"""Traced runs of the paper's two kernels, held to the interpreted oracle.

The interpreted executors (:mod:`repro.core.special_interpreted`,
:mod:`repro.core.general_interpreted`) walk Algorithms 1-2 warp by
warp in Python, pushing every request through the memory models one at
a time.  That is the right shape for an *oracle* but far too slow for
sweeps.  The kernels here return the same ``(output, KernelCost)`` pair
at batch speed:

* :class:`FastSpecialKernel` prices the special case with the one cost
  model that DSE and dispatch use, :meth:`SpecialCaseKernel.cost
  <repro.core.special.SpecialCaseKernel.cost>`, on the aligned problems
  the interpreter runs;
* :class:`FastGeneralKernel` still generates the general case's request
  streams in closed form: for each access site it enumerates, in numpy,
  the scalar byte base of every (block, iteration) instance plus the
  per-lane relative pattern shared by all of them, folds the bases down
  to their residues modulo the memory structure period (see the
  canonical-pattern cache notes in :mod:`repro.gpu.trace`), and feeds
  the distinct ``(warps, lanes)`` residue matrices through
  :func:`~repro.gpu.trace.prepare_batch` and the tracer's prepared
  folds with summed multiplicities.  It stays until the general cost
  model's gaps to the oracle close (ROADMAP item 2).

Both costs are **byte-identical** to what the interpreter produces —
same ledger, same per-site statistics, same launch (the special one
while its filters fit the constant cache) — because

* every per-request model outcome (cycles, phases, transactions,
  request/unique bytes, serializations) is an integer, and all counts
  are integer-valued, so float64 accumulation is exact regardless of
  grouping or order;
* a request's model outcome depends only on its addresses modulo the
  structure period, so folding a base down to its residue cannot change
  the canonical pattern the model sees;
* the interpreted path runs through the very same canonical-pattern
  cache, so on a model-call miss both paths invoke the model with the
  same canonical row.

The interpreters stay on as the cross-check oracle: pass ``audit=True``
to ``run_traced`` (or run ``repro audit``) and the result is compared
field-for-field against a full interpreted run (:func:`audit_traced`) —
any difference raises :class:`~repro.errors.AuditMismatchError`.
``trace_cost(problem)`` gives the cost without data; like the
interpreter, it requires the output to tile the block grid exactly.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.conv.reference import conv2d_taps
from repro.conv.tensors import ConvProblem
from repro.errors import AuditMismatchError, ConfigurationError, ShapeError, TraceError
from repro.gpu.arch import GPUArchitecture, KEPLER_K40M
from repro.gpu.device import _GLOBAL_ALIGN
from repro.gpu.memory.banks import BankConflictPolicy
from repro.gpu.simt import Dim3, LaunchConfig
from repro.gpu.trace import (
    _LEDGER_FIELDS,
    _SITE_FIELDS,
    KernelCost,
    KernelTracer,
    prepare_batch,
)

__all__ = [
    "kernel_cost_diffs",
    "audit_traced",
    "FastSpecialKernel",
    "FastGeneralKernel",
]

# ----------------------------------------------------------------------
# KernelCost comparison (the audit contract)
# ----------------------------------------------------------------------

_LAUNCH_FIELDS = ("grid", "block", "registers_per_thread", "smem_per_block")


def kernel_cost_diffs(fast: KernelCost, oracle: KernelCost) -> List[str]:
    """Field-for-field differences between two kernel costs.

    Every field except ``name`` must be *exactly* equal (``==``, no
    tolerance): launch geometry, flags, all ledger counters, and every
    per-site statistic.  Returns human-readable difference strings;
    empty means byte-identical.
    """
    diffs: List[str] = []
    for attr in ("software_prefetch", "launches"):
        a, b = getattr(fast, attr), getattr(oracle, attr)
        if a != b:
            diffs.append("%s: fast=%r oracle=%r" % (attr, a, b))
    for attr in _LAUNCH_FIELDS:
        a, b = getattr(fast.launch, attr), getattr(oracle.launch, attr)
        if a != b:
            diffs.append("launch.%s: fast=%r oracle=%r" % (attr, a, b))
    for attr in _LEDGER_FIELDS:
        a, b = getattr(fast.ledger, attr), getattr(oracle.ledger, attr)
        if a != b:
            diffs.append("ledger.%s: fast=%r oracle=%r" % (attr, a, b))
    fast_sites, oracle_sites = fast.ledger.sites, oracle.ledger.sites
    for name in oracle_sites:
        if name not in fast_sites:
            diffs.append("site %s: missing from the fast trace" % name)
    for name in fast_sites:
        if name not in oracle_sites:
            diffs.append("site %s: absent from the oracle trace" % name)
    for name in fast_sites:
        if name not in oracle_sites:
            continue
        for attr in _SITE_FIELDS:
            a = getattr(fast_sites[name], attr)
            b = getattr(oracle_sites[name], attr)
            if a != b:
                diffs.append("site %s.%s: fast=%r oracle=%r"
                             % (name, attr, a, b))
    return diffs


def audit_traced(name: str, out: np.ndarray, cost: KernelCost, oracle,
                 image: np.ndarray, filters: np.ndarray) -> None:
    """Hold a traced run's ``(out, cost)`` to the interpreted ``oracle``
    run on ``image`` and ``filters``: the costs field for field
    (:func:`kernel_cost_diffs`) and the outputs bit for bit.  Raises
    :class:`~repro.errors.AuditMismatchError` naming the first
    differences; returns nothing when they agree."""
    ref_out, ref_cost = oracle.run_traced(image, filters)
    diffs = kernel_cost_diffs(cost, ref_cost)
    if out.shape != ref_out.shape or not np.array_equal(
            out.view(np.uint32), ref_out.view(np.uint32)):
        diffs.append("output buffers differ bitwise")
    if not diffs:
        return
    shown = "; ".join(diffs[:8])
    if len(diffs) > 8:
        shown += "; ... (%d more)" % (len(diffs) - 8)
    raise AuditMismatchError(
        "audit failed: %s disagrees with the interpreted oracle %s "
        "in %d field(s): %s" % (name, oracle.name, len(diffs), shown))


# ----------------------------------------------------------------------
# Residue folding and span checks
# ----------------------------------------------------------------------

def _fold_bases(bases, rels, mod: int) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse absolute scalar bases to residues mod the structure period.

    ``bases`` holds one byte base per request-group instance (block,
    row, iteration...); ``rels`` the relative byte patterns shared by
    every instance — one row per warp-shape variant, one column per
    lane.  A request's model outcome depends only on its base modulo
    ``mod`` (:func:`~repro.gpu.trace.prepare_batch` canonicalizes by
    multiples of ``mod``), so the distinct residues with their
    multiplicities carry the whole batch.  Returns the ``(rows, lanes)``
    address matrix and the per-row counts, ready for
    :func:`~repro.gpu.trace.prepare_batch`.
    """
    vals, cnt = np.unique(
        np.asarray(bases, dtype=np.int64).reshape(-1) % mod,
        return_counts=True)
    rels = np.asarray(rels, dtype=np.int64)
    if rels.ndim == 1:
        rels = rels[np.newaxis, :]
    matrix = (vals[:, np.newaxis, np.newaxis] + rels[np.newaxis]).reshape(
        -1, rels.shape[1])
    counts = np.repeat(cnt.astype(np.float64), rels.shape[0])
    return matrix, counts


def _check_span(space: str, name: str, size_floats: int, lo: int, hi: int,
                vector: int, site: str) -> None:
    """Replicate the whole-span bounds check of
    :meth:`GlobalArray.addresses` (``space="global"``) or
    :meth:`SharedArray.addresses` (``space="shared"``)."""
    if lo < 0 or hi + (vector - 1) >= size_floats:
        raise TraceError(
            "%s index out of range in %s (vector=%d) at site %r"
            % (space, name, vector, site))


def _round_up(value: int, unit: int) -> int:
    return (value + unit - 1) // unit * unit


# ----------------------------------------------------------------------
# Special case (Algorithm 1)
# ----------------------------------------------------------------------

class FastSpecialKernel:
    """The traced run of :class:`InterpretedSpecialKernel`'s problems.

    Its cost is :class:`~repro.core.special.SpecialCaseKernel`'s, the
    model the DSE and dispatch price with, after the interpreter's
    aligned-problem check; its output is the direct kernels' tap loop.
    """

    def __init__(
        self,
        arch: GPUArchitecture = KEPLER_K40M,
        config=None,
        matched: bool = True,
        bank_policy: BankConflictPolicy = BankConflictPolicy.WORD_MERGE,
    ):
        from repro.core.config import SpecialCaseConfig
        from repro.core.special import SpecialCaseKernel

        self.arch = arch
        self.config = config if config is not None \
            else SpecialCaseConfig(block_w=64, block_h=4)
        self.matched = matched
        self.bank_policy = bank_policy
        self.kernel = SpecialCaseKernel(arch, self.config, matched,
                                        bank_policy)
        self.n = self.kernel.n
        self.name = "special-fastsim[%s,n=%d]" % (arch.name, self.n)

    # ------------------------------------------------------------------
    def run_traced(
        self, image: np.ndarray, filters: np.ndarray,
        audit: bool = False,
    ) -> Tuple[np.ndarray, KernelCost]:
        """Convolve and return ``(output, executed-trace cost)``.

        Bit-identical to ``InterpretedSpecialKernel.run_traced`` in
        both values, at batch speed.  ``audit=True`` additionally runs
        the interpreter and verifies that claim.
        """
        from repro.core.special_interpreted import InterpretedSpecialKernel

        problem = ConvProblem.from_arrays(image, filters)
        if problem.channels != 1:
            raise ShapeError(
                "the special-case kernel takes a single-channel image, "
                "got %d channels" % problem.channels)
        cost = self.trace_cost(problem)
        out = conv2d_taps(problem, image, filters)
        if audit:
            audit_traced(
                self.name, out, cost,
                InterpretedSpecialKernel(
                    arch=self.arch, config=self.config, matched=self.matched,
                    bank_policy=self.bank_policy),
                problem.chw_image(image)[0],
                problem.check_filters(filters)[:, 0])
        return out, cost

    # ------------------------------------------------------------------
    def trace_cost(self, problem: ConvProblem) -> KernelCost:
        """The executed-trace cost of an aligned problem:
        ``SpecialCaseKernel.cost``, which equals the interpreter's on
        every problem the interpreter runs whose filters fit the
        constant cache.  Past it the cost adds the constant-cache
        misses (``gm.cm_miss``), which the interpreter does not model,
        and an audit reports them."""
        cfg = self.config
        cfg.validate(problem.kernel_size, self.n, self.arch.warp_size)
        oh, ow = problem.out_height, problem.out_width
        if oh % cfg.block_h or ow % cfg.block_w:
            raise ConfigurationError(
                "the audit kernel needs the %dx%d output to tile the "
                "%dx%d block exactly" % (oh, ow, cfg.block_h, cfg.block_w))
        return self.kernel.cost(problem)


# ----------------------------------------------------------------------
# General case (Algorithm 2)
# ----------------------------------------------------------------------

class FastGeneralKernel:
    """Vectorized trace twin of :class:`InterpretedGeneralKernel`."""

    def __init__(
        self,
        arch: GPUArchitecture = KEPLER_K40M,
        config=None,
        matched: bool = True,
        bank_policy: BankConflictPolicy = BankConflictPolicy.WORD_MERGE,
    ):
        from repro.core.bankwidth import matched_vector
        from repro.core.config import GeneralCaseConfig

        self.arch = arch
        self.config = config if config is not None \
            else GeneralCaseConfig(w=32, h=4, ftb=16, wt=16, ft=4, csh=2)
        self.matched = matched
        self.bank_policy = bank_policy
        self.n = matched_vector(arch).n if matched else 1
        self.name = "general-fastsim[%s,n=%d]" % (arch.name, self.n)

    # ------------------------------------------------------------------
    def run_traced(
        self, image: np.ndarray, filters: np.ndarray,
        audit: bool = False,
    ) -> Tuple[np.ndarray, KernelCost]:
        """Convolve and return ``(output, executed-trace cost)``,
        bit-identical to ``InterpretedGeneralKernel.run_traced``."""
        from repro.core.general_interpreted import InterpretedGeneralKernel

        problem = ConvProblem.from_arrays(image, filters)
        cost = self.trace_cost(problem)
        out = conv2d_taps(problem, image, filters)
        if audit:
            audit_traced(
                self.name, out, cost,
                InterpretedGeneralKernel(
                    arch=self.arch, config=self.config, matched=self.matched,
                    bank_policy=self.bank_policy),
                problem.chw_image(image), problem.check_filters(filters))
        return out, cost

    # ------------------------------------------------------------------
    def trace_cost(self, problem: ConvProblem) -> KernelCost:
        """Generate the executed-trace cost for an aligned problem."""
        cfg, n, arch = self.config, self.n, self.arch
        ws = arch.warp_size
        k = problem.kernel_size
        cfg.validate(k, n, ws)
        c_total, f_total = problem.channels, problem.filters
        oh, ow = problem.out_height, problem.out_width
        if oh % cfg.h or ow % cfg.w:
            raise ConfigurationError(
                "the audit kernel needs the %dx%d output to tile the "
                "%dx%d block exactly" % (oh, ow, cfg.h, cfg.w))
        if f_total % cfg.ftb or c_total % cfg.csh:
            raise ConfigurationError(
                "the audit kernel needs F %% FTB == 0 and C %% CSH == 0")

        img_h, img_w = problem.height, problem.width
        threads = cfg.threads
        warps = threads // ws
        row_floats = cfg.w + k - 1
        img_rows = cfg.h + k - 1
        flt_row = cfg.ftb + cfg.smem_filter_pad(n)
        taps = k * k
        blocks_y, blocks_x = oh // cfg.h, ow // cfg.w
        sblocks = blocks_y * blocks_x
        fgroups = f_total // cfg.ftb
        total_blocks = fgroups * sblocks
        chunks = c_total // cfg.csh
        unit = n * 4

        g_img_base = _GLOBAL_ALIGN
        g_flt_base = g_img_base + _round_up(c_total * img_h * img_w * 4,
                                            _GLOBAL_ALIGN)
        g_out_base = g_flt_base + _round_up(f_total * c_total * taps * 4,
                                            _GLOBAL_ALIGN)
        img_size = c_total * img_h * img_w
        flt_size = f_total * c_total * taps
        out_size = f_total * oh * ow
        sh_img_size = cfg.csh * img_rows * row_floats
        sh_flt_size = cfg.csh * taps * flt_row

        tracer = KernelTracer(arch, self.bank_policy)
        gmod = tracer.gmem_batch_mod(unit)
        smod = tracer.smem_batch_mod()

        tx_of = np.arange(threads, dtype=np.int64) % cfg.tx
        ty_of = np.arange(threads, dtype=np.int64) // cfg.tx
        rows_of_ty = (np.arange(cfg.ty, dtype=np.int64) * cfg.wt) // cfg.w
        cols_of_ty = (np.arange(cfg.ty, dtype=np.int64) * cfg.wt) % cfg.w

        # Cooperative staging streams the row in first-warp pieces of
        # at most 32 vector units.
        units_per_row = math.ceil(row_floats / n)
        pieces = [np.arange(d, min(d + ws, units_per_row), dtype=np.int64)
                  for d in range(0, units_per_row, ws)]

        # gm.load_image: each channel's block rows, once per filter group.
        row_abs = (np.arange(blocks_y, dtype=np.int64)[:, np.newaxis] * cfg.h
                   + np.arange(img_rows, dtype=np.int64)[np.newaxis, :])
        col0 = np.arange(blocks_x, dtype=np.int64) * cfg.w
        gbase_idx = (
            np.arange(c_total, dtype=np.int64)[:, np.newaxis, np.newaxis,
                                               np.newaxis]
            * (img_h * img_w)
            + row_abs[np.newaxis, :, :, np.newaxis] * img_w
            + col0[np.newaxis, np.newaxis, np.newaxis, :]).reshape(-1)
        _check_span("global", "image", img_size, int(gbase_idx.min()),
                    int(gbase_idx.max()) + (units_per_row - 1) * n,
                    n, "gm.load_image")
        bases_img = g_img_base + gbase_idx * 4
        for piece in pieces:
            matrix, counts = _fold_bases(bases_img, piece * unit, gmod)
            tracer.gmem_read_prepared(
                prepare_batch(matrix, gmod, counts * float(fgroups)), unit,
                site="gm.load_image")

        # sm.store_image: the same pieces against the staged rows.
        sm_rows = np.arange(cfg.csh * img_rows, dtype=np.int64) \
            * (row_floats * 4)
        _check_span("shared", "shImg", sh_img_size, 0,
                    (cfg.csh * img_rows - 1) * row_floats
                    + (units_per_row - 1) * n, n, "sm.store_image")
        store_scale = float(chunks * total_blocks)
        for piece in pieces:
            matrix, counts = _fold_bases(sm_rows, piece * unit, smod)
            tracer.smem_write_prepared(
                prepare_batch(matrix, smod, counts * store_scale), unit,
                site="sm.store_image")

        # gm.load_filter: scalar first-warp stream of each filter's
        # CSH*K*K taps, once per spatial block.
        run = cfg.csh * taps
        flt_gbase = ((np.arange(f_total, dtype=np.int64)[:, np.newaxis]
                      * c_total
                      + np.arange(0, c_total, cfg.csh,
                                  dtype=np.int64)[np.newaxis, :])
                     * taps).reshape(-1)
        _check_span("global", "filters", flt_size, int(flt_gbase.min()),
                    int(flt_gbase.max()) + run - 1, 1,
                    "gm.load_filter")
        bases_flt = g_flt_base + flt_gbase * 4
        fmod = tracer.gmem_batch_mod(4)
        for done in range(0, run, ws):
            rel = np.arange(done, min(done + ws, run), dtype=np.int64) * 4
            matrix, counts = _fold_bases(bases_flt, rel, fmod)
            tracer.gmem_read_prepared(
                prepare_batch(matrix, fmod, counts * float(sblocks)), 4,
                site="gm.load_filter")

        # sm.store_filter: the transposed+padded scalar store pieces.
        total = cfg.ftb * run
        _check_span("shared", "shFlt", sh_flt_size, 0,
                    (run - 1) * flt_row + cfg.ftb - 1, 1,
                    "sm.store_filter")
        for done in range(0, total, ws):
            l = np.arange(done, min(done + ws, total), dtype=np.int64)
            row = ((l // cfg.ftb) * flt_row + l % cfg.ftb) * 4
            tracer.smem_write_prepared(
                prepare_batch(row, smod, [store_scale]), 4,
                site="sm.store_filter")

        # sm.load_image_row: each thread's WT+K-1 register row as
        # clamped overlapping vector units, per (channel, j).
        u_img = math.ceil((cfg.wt + k - 1) / n)
        offs = np.array([max(0, min(u * n, cfg.wt + k - 1 - n))
                         for u in range(u_img)], dtype=np.int64)
        rel_ty = ((rows_of_ty[ty_of] * row_floats + cols_of_ty[ty_of])
                  .reshape(warps, ws) * 4)
        img_row_sc = (
            np.arange(cfg.csh, dtype=np.int64)[:, np.newaxis, np.newaxis]
            * (img_rows * row_floats)
            + np.arange(k, dtype=np.int64)[np.newaxis, :, np.newaxis]
            * row_floats
            + offs[np.newaxis, np.newaxis, :]).reshape(-1)
        _check_span(
            "shared", "shImg", sh_img_size, 0,
            int(img_row_sc.max()) + int(rel_ty.max()) // 4, n,
            "sm.load_image_row")
        matrix, counts = _fold_bases(img_row_sc * 4, rel_ty, smod)
        tracer.smem_read_prepared(
            prepare_batch(matrix, smod, counts * store_scale), unit,
            site="sm.load_image_row")

        # sm.load_filter_row: FT filter values per thread, vectorized.
        u_flt = max(1, cfg.ft // n)
        rel_tx = (tx_of * cfg.ft).reshape(warps, ws) * 4
        flt_row_sc = (
            np.arange(cfg.csh * taps, dtype=np.int64)[:, np.newaxis] * flt_row
            + np.arange(u_flt, dtype=np.int64)[np.newaxis, :] * n).reshape(-1)
        _check_span(
            "shared", "shFlt", sh_flt_size, 0,
            int(flt_row_sc.max()) + int(rel_tx.max()) // 4, n,
            "sm.load_filter_row")
        matrix, counts = _fold_bases(flt_row_sc * 4, rel_tx, smod)
        tracer.smem_read_prepared(
            prepare_batch(matrix, smod, counts * store_scale), unit,
            site="sm.load_filter_row")

        # FMA rounds: each (channel, j, kk, warp) updates ws*ft*wt values.
        tracer.flops(2.0 * ws * cfg.ft * cfg.wt
                     * float(c_total * taps * warps * total_blocks))

        # gm.store_out: wide units along WT, filter dimension fastest.
        wide = (16 if (cfg.wt * 4) % 16 == 0 else unit) // 4
        u_out = math.ceil(cfg.wt / wide)
        rel_out = ((tx_of * cfg.ft * (oh * ow)
                    + rows_of_ty[ty_of] * ow
                    + cols_of_ty[ty_of]).reshape(warps, ws) * 4)
        out_sc = (
            np.arange(fgroups, dtype=np.int64)[
                :, np.newaxis, np.newaxis, np.newaxis, np.newaxis]
            * (cfg.ftb * oh * ow)
            + (np.arange(blocks_y, dtype=np.int64) * cfg.h * ow)[
                np.newaxis, :, np.newaxis, np.newaxis, np.newaxis]
            + col0[np.newaxis, np.newaxis, :, np.newaxis, np.newaxis]
            + (np.arange(cfg.ft, dtype=np.int64) * (oh * ow))[
                np.newaxis, np.newaxis, np.newaxis, :, np.newaxis]
            + (np.arange(u_out, dtype=np.int64) * wide)[
                np.newaxis, np.newaxis, np.newaxis, np.newaxis, :]
        ).reshape(-1)
        _check_span("global", "out", out_size, int(out_sc.min()),
                    int(out_sc.max()) + int(rel_out.max()) // 4,
                    wide, "gm.store_out")
        omod = tracer.gmem_batch_mod(wide * 4)
        matrix, counts = _fold_bases(g_out_base + out_sc * 4, rel_out, omod)
        tracer.gmem_write_prepared(prepare_batch(matrix, omod, counts),
                                   wide * 4, site="gm.store_out")

        tracer.sync(float((2 * chunks + 2) * total_blocks))

        launch = LaunchConfig(
            grid=Dim3(x=fgroups, y=sblocks),
            block=Dim3(x=cfg.tx, y=cfg.ty),
            registers_per_thread=cfg.registers_per_thread(k, n),
            smem_per_block=(sh_img_size + sh_flt_size) * 4,
        )
        return tracer.finish(name=self.name, launch=launch,
                             software_prefetch=True)
