"""Vectorized whole-warp trace generation for the paper's two kernels.

The interpreted executors (:mod:`repro.core.special_interpreted`,
:mod:`repro.core.general_interpreted`) walk Algorithms 1-2 warp by
warp in Python, pushing every request through the memory models one at
a time.  That is the right shape for an *oracle* but far too slow for
sweeps.  This module generates the same request streams analytically:
for each access site it enumerates, in numpy, the scalar byte base of
every (block, iteration) instance plus the per-lane relative pattern
shared by all of them, folds the bases down to their residues modulo
the memory structure period (see the canonical-pattern cache notes in
:mod:`repro.gpu.trace`), and feeds the distinct ``(warps, lanes)``
residue matrices through :func:`~repro.gpu.trace.prepare_batch` and the
tracer's prepared folds with summed multiplicities.

The result is a :class:`~repro.gpu.trace.KernelCost` that is
**byte-identical** to what the interpreter would have produced — same
ledger, same per-site statistics, same launch — because

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
to ``run_traced`` (or run ``repro audit``) and the fast result is
compared field-for-field against a full interpreted run — any difference raises
:class:`~repro.errors.AuditMismatchError`.

For *cost-only* queries, ``trace_cost(problem)`` generates the trace
without data; it matches the interpreter bit-for-bit but, like the
interpreter, requires the output to tile the block grid exactly.  The
analytic closed-form model of Secs. 3-4
(:class:`~repro.core.special.SpecialCaseKernel` /
:class:`~repro.core.general.GeneralCaseKernel` ``.cost``) covers
arbitrary problem shapes.
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


def _raise_mismatch(name: str, oracle_name: str, diffs: List[str]) -> None:
    shown = "; ".join(diffs[:8])
    if len(diffs) > 8:
        shown += "; ... (%d more)" % (len(diffs) - 8)
    raise AuditMismatchError(
        "audit failed: %s disagrees with the interpreted oracle %s "
        "in %d field(s): %s" % (name, oracle_name, len(diffs), shown))


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


def _check_global_span(name: str, size_floats: int, lo: int, hi: int,
                       vector: int, site: str) -> None:
    """Replicate :meth:`GlobalArray.addresses`' whole-span bounds check."""
    if lo < 0 or hi + (vector - 1) >= size_floats:
        raise TraceError(
            "global index out of range in %s (vector=%d) at site %r"
            % (name, vector, site))


def _check_shared_span(name: str, size_floats: int, lo: int, hi: int,
                       vector: int, site: str) -> None:
    """Replicate :meth:`SharedArray.addresses`' whole-span bounds check."""
    if lo < 0 or hi + (vector - 1) >= size_floats:
        raise TraceError(
            "shared index out of range in %s (vector=%d) at site %r"
            % (name, vector, site))


def _round_up(value: int, unit: int) -> int:
    return (value + unit - 1) // unit * unit


# ----------------------------------------------------------------------
# Special case (Algorithm 1)
# ----------------------------------------------------------------------

class FastSpecialKernel:
    """Vectorized trace twin of :class:`InterpretedSpecialKernel`.

    Same thread layout, circular row window, constant-memory broadcasts
    and prefetch schedule as the interpreter — but the request streams
    are generated in closed form and folded as prepared batches, with
    no Python per-warp (or even per-block) loop.
    """

    def __init__(
        self,
        arch: GPUArchitecture = KEPLER_K40M,
        config=None,
        matched: bool = True,
        bank_policy: BankConflictPolicy = BankConflictPolicy.WORD_MERGE,
    ):
        from repro.core.bankwidth import matched_vector
        from repro.core.config import SpecialCaseConfig

        self.arch = arch
        self.config = config if config is not None \
            else SpecialCaseConfig(block_w=64, block_h=4)
        self.matched = matched
        self.bank_policy = bank_policy
        self.n = matched_vector(arch).n if matched else 1
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
        problem = ConvProblem.from_arrays(image, filters)
        if problem.channels != 1:
            raise ShapeError(
                "the special-case kernel takes a single-channel image, "
                "got %d channels" % problem.channels)
        cost = self.trace_cost(problem)
        out = conv2d_taps(problem, image, filters)
        if audit:
            self._audit(problem.chw_image(image)[0],
                        problem.check_filters(filters)[:, 0], out, cost)
        return out, cost

    # ------------------------------------------------------------------
    def _audit(self, img, flt, out, cost) -> None:
        from repro.core.special_interpreted import InterpretedSpecialKernel

        oracle = InterpretedSpecialKernel(
            arch=self.arch, config=self.config, matched=self.matched,
            bank_policy=self.bank_policy)
        ref_out, ref_cost = oracle.run_traced(img, flt)
        diffs = kernel_cost_diffs(cost, ref_cost)
        if out.shape != ref_out.shape or not np.array_equal(
                out.view(np.uint32), ref_out.view(np.uint32)):
            diffs.append("output buffers differ bitwise")
        if diffs:
            _raise_mismatch(self.name, oracle.name, diffs)

    # ------------------------------------------------------------------
    def trace_cost(self, problem: ConvProblem) -> KernelCost:
        """Generate the executed-trace cost for an aligned problem."""
        cfg, n, arch = self.config, self.n, self.arch
        ws = arch.warp_size
        k = problem.kernel_size
        f_count = problem.filters
        if problem.channels != 1:
            raise ConfigurationError(
                "the special-case kernel handles one input channel, got %d"
                % problem.channels)
        cfg.validate(k, n, ws)
        oh, ow = problem.out_height, problem.out_width
        w, h = cfg.block_w, cfg.block_h
        if oh % h or ow % w:
            raise ConfigurationError(
                "the audit kernel needs the %dx%d output to tile the "
                "%dx%d block exactly" % (oh, ow, h, w))
        if f_count * k * k * 4 > arch.const_memory_size:
            raise TraceError("constant allocation exceeds constant memory")

        img_h, img_w = problem.height, problem.width
        threads = cfg.threads(n)
        warps = threads // ws
        row_floats = cfg.smem_row_floats(k, n)
        halo_units = math.ceil((k - 1) / n)
        window_units = 1 + halo_units
        blocks_y, blocks_x = oh // h, ow // w
        blocks = blocks_y * blocks_x
        unit = n * 4

        # DeviceExecutor allocation layout: image at 512, output after.
        g_img_base = _GLOBAL_ALIGN
        g_out_base = g_img_base + _round_up(img_h * img_w * 4, _GLOBAL_ALIGN)
        img_size = img_h * img_w
        out_size = f_count * oh * ow

        tracer = KernelTracer(arch, self.bank_policy)
        gmod = tracer.gmem_batch_mod(unit)
        smod = tracer.smem_batch_mod()
        lane = np.arange(threads, dtype=np.int64).reshape(warps, ws)
        rel_row = lane * unit            # each warp's slice of one row

        # gm.load_row: every staged input row of every block, once.
        row_idx = (np.arange(blocks_y, dtype=np.int64)[:, np.newaxis] * h
                   + np.arange(h + k - 1, dtype=np.int64)[np.newaxis, :])
        col0 = np.arange(blocks_x, dtype=np.int64) * w
        base_idx = (row_idx[:, :, np.newaxis] * img_w
                    + col0[np.newaxis, np.newaxis, :]).reshape(-1)
        _check_global_span("image", img_size, int(base_idx.min()),
                           int(base_idx.max()) + (threads - 1) * n,
                           n, "gm.load_row")
        matrix, counts = _fold_bases(g_img_base + base_idx * 4, rel_row, gmod)
        tracer.gmem_read_prepared(prepare_batch(matrix, gmod, counts), unit,
                                  site="gm.load_row")

        if halo_units:
            rel_halo = (w + np.arange(halo_units, dtype=np.int64) * n) * 4
            _check_global_span(
                "image", img_size, int(base_idx.min()) + w,
                int(base_idx.max()) + w + (halo_units - 1) * n,
                n, "gm.load_row_halo")
            matrix, counts = _fold_bases(g_img_base + base_idx * 4,
                                         rel_halo, gmod)
            tracer.gmem_read_prepared(prepare_batch(matrix, gmod, counts),
                                      unit, site="gm.load_row_halo")

        # sm.store_row: K initial rows plus one prefetch store per
        # output row but the last; slot multiplicities by circular slot.
        store_slots = np.concatenate([
            np.arange(k, dtype=np.int64),
            np.arange(h - 1, dtype=np.int64) % k,
        ])
        smem_size = k * row_floats
        _check_shared_span("rows", smem_size,
                           int(store_slots.min()) * row_floats,
                           int(store_slots.max()) * row_floats
                           + (threads - 1) * n, n, "sm.store_row")
        matrix, counts = _fold_bases(store_slots * (row_floats * 4),
                                     rel_row, smod)
        tracer.smem_write_prepared(
            prepare_batch(matrix, smod, counts * float(blocks)), unit,
            site="sm.store_row")
        if halo_units:
            rel_halo_s = (w + np.arange(halo_units, dtype=np.int64) * n) * 4
            _check_shared_span("rows", smem_size,
                               int(store_slots.min()) * row_floats + w,
                               int(store_slots.max()) * row_floats + w
                               + (halo_units - 1) * n, n, "sm.store_row_halo")
            matrix, counts = _fold_bases(store_slots * (row_floats * 4),
                                         rel_halo_s, smod)
            tracer.smem_write_prepared(
                prepare_batch(matrix, smod, counts * float(blocks)), unit,
                site="sm.store_row_halo")

        # sm.load_window: K-1 priming rows plus one refresh per output
        # row, each read as window_units overlapping vector slices.
        win_slots = np.concatenate([
            np.arange(k - 1, dtype=np.int64),
            (np.arange(h, dtype=np.int64) + k - 1) % k,
        ])
        rel_win = ((lane[np.newaxis, :, :]
                    + np.arange(window_units,
                                dtype=np.int64)[:, np.newaxis, np.newaxis])
                   * unit).reshape(window_units * warps, ws)
        _check_shared_span("rows", smem_size,
                           int(win_slots.min()) * row_floats,
                           int(win_slots.max()) * row_floats
                           + (threads - 1 + window_units - 1) * n,
                           n, "sm.load_window")
        matrix, counts = _fold_bases(win_slots * (row_floats * 4),
                                     rel_win, smod)
        tracer.smem_read_prepared(
            prepare_batch(matrix, smod, counts * float(blocks)), unit,
            site="sm.load_window")

        # cm.filter_tap: every tap is a full-warp broadcast; all of them
        # share the canonical all-zero pattern.
        tap_requests = float(h * f_count * k * k * warps * blocks)
        tracer.cmem_read(np.zeros(ws, dtype=np.int64), count=tap_requests,
                         site="cm.filter_tap")

        # FMA rounds: 2 flops per lane per vector element.
        tracer.flops(2.0 * ws * n * float(k * k * f_count * h * warps * blocks))

        # gm.store_out: one vector store per (output row, filter, warp).
        out_base_idx = (
            np.arange(f_count, dtype=np.int64)[:, np.newaxis, np.newaxis]
            * (oh * ow)
            + np.arange(oh, dtype=np.int64)[np.newaxis, :, np.newaxis] * ow
            + col0[np.newaxis, np.newaxis, :]).reshape(-1)
        _check_global_span("out", out_size, int(out_base_idx.min()),
                           int(out_base_idx.max()) + (threads - 1) * n,
                           n, "gm.store_out")
        matrix, counts = _fold_bases(g_out_base + out_base_idx * 4,
                                     rel_row, gmod)
        tracer.gmem_write_prepared(prepare_batch(matrix, gmod, counts), unit,
                                   site="gm.store_out")

        tracer.sync(float((1 + 2 * h) * blocks))

        launch = LaunchConfig(
            grid=Dim3(x=blocks_x, y=blocks_y),
            block=Dim3(x=threads),
            registers_per_thread=cfg.registers_per_thread(k, n),
            smem_per_block=smem_size * 4,
        )
        return tracer.finish(name=self.name, launch=launch,
                             software_prefetch=True)


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
        problem = ConvProblem.from_arrays(image, filters)
        cost = self.trace_cost(problem)
        out = conv2d_taps(problem, image, filters)
        if audit:
            self._audit(problem.chw_image(image),
                        problem.check_filters(filters), out, cost)
        return out, cost

    # ------------------------------------------------------------------
    def _audit(self, img, flt, out, cost) -> None:
        from repro.core.general_interpreted import InterpretedGeneralKernel

        oracle = InterpretedGeneralKernel(
            arch=self.arch, config=self.config, matched=self.matched,
            bank_policy=self.bank_policy)
        ref_out, ref_cost = oracle.run_traced(img, flt)
        diffs = kernel_cost_diffs(cost, ref_cost)
        if out.shape != ref_out.shape or not np.array_equal(
                out.view(np.uint32), ref_out.view(np.uint32)):
            diffs.append("output buffers differ bitwise")
        if diffs:
            _raise_mismatch(self.name, oracle.name, diffs)

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
        _check_global_span("image", img_size, int(gbase_idx.min()),
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
        _check_shared_span("shImg", sh_img_size, 0,
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
        _check_global_span("filters", flt_size, int(flt_gbase.min()),
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
        _check_shared_span("shFlt", sh_flt_size, 0,
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
        _check_shared_span(
            "shImg", sh_img_size, 0,
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
        _check_shared_span(
            "shFlt", sh_flt_size, 0,
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
        _check_global_span("out", out_size, int(out_sc.min()),
                           int(out_sc.max()) + int(rel_out.max()) // 4,
                           wide, "gm.store_out")
        omod = tracer.gmem_batch_mod(wide * 4)
        matrix, counts = _fold_bases(g_out_base + out_sc * 4, rel_out, omod)
        tracer.gmem_write_prepared(prepare_batch(matrix, omod, counts),
                                   wide * 4, site="gm.store_out")

        tracer.sync(float((2 * chunks + 2) * total_blocks))

        launch = LaunchConfig(
            grid=Dim3(x=fgroups, y=sblocks),
            block=Dim3(x=threads),
            registers_per_thread=cfg.registers_per_thread(k, n),
            smem_per_block=(sh_img_size + sh_flt_size) * 4,
        )
        return tracer.finish(name=self.name, launch=launch,
                             software_prefetch=True)
