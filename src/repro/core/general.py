"""The general-case convolution kernel: multiple channels (paper Sec. 4).

The kernel uses a 2-D thread-block grid: the X dimension covers groups
of ``F_TB`` filters, the Y dimension covers ``H x W`` output blocks; a
block iterates over all ``C`` channels, staging ``C_SH`` channels of
image blocks and filters in shared memory per step (Fig. 6).  Threads
form a ``TX x TY`` grid with the X (filter) dimension fastest; each
thread accumulates an ``F_T x W_T`` register tile whose ``W_T`` output
pixels are *contiguous along the row* — the paper's central deviation
from blocked GEMM, which lets one register row of ``W_T + K - 1`` pixels
feed ``K`` FMA rounds and cuts shared-memory image traffic by
``(W_T + K - 1) / (W_T * K)`` (Sec. 4.2).

The filter block is stored transposed in shared memory with padding so
that the vectorized filter reads are conflict-free; image reads exploit
the broadcast mechanism (all ``TX`` threads of a row read the same
address).  Global loads are double-buffered (prefetch, Algorithm 2
lines 8-9/17-18); the writeback is uncoalesced by design and the tracer
prices it at store-sector granularity, confirming the paper's judgement
that it is cheap enough to leave unoptimized.

As for the special case, :meth:`GeneralCaseKernel.cost` carries the
traffic, the interpreter (:mod:`repro.core.general_interpreted`)
executes the dataflow, and :meth:`GeneralCaseKernel.run` returns the
shared tap loop's exact output (:func:`repro.conv.reference.conv2d_taps`).
"""

from __future__ import annotations

import functools
import math
from typing import List, Optional

import numpy as np

from repro.conv.reference import conv2d_taps
from repro.conv.tensors import ConvProblem, Padding
from repro.core.bankwidth import DataType, mismatch_factor
from repro.core.config import TABLE1_CONFIGS, GeneralCaseConfig
from repro.errors import ConfigurationError
from repro.gpu.arch import GPUArchitecture, KEPLER_K40M
from repro.gpu.memory.banks import BankConflictPolicy
from repro.gpu.simt import Dim3, LaunchConfig
from repro.gpu.timing import Priced
from repro.gpu.trace import (
    KernelCost,
    KernelTracer,
    TrafficLedger,
    cross_block_reuse,
    gmem_floor,
    lane_batch,
    prepare_batch,
    prepare_rows,
)

__all__ = ["GeneralCaseKernel", "default_config_for", "SMALL_IMAGE_CONFIGS",
           "palette"]


def default_config_for(kernel_size: int, n: int) -> GeneralCaseConfig:
    """The Table 1 configuration for ``kernel_size``, or a safe fallback.

    Filter sizes outside Table 1 get a conservative configuration that
    satisfies every divisibility constraint for ``n`` in {1, 2}.
    """
    if kernel_size in TABLE1_CONFIGS:
        return TABLE1_CONFIGS[kernel_size]
    fallback = GeneralCaseConfig(w=32, h=4, ftb=32, wt=8, ft=8, csh=1)
    fallback.validate(kernel_size, n)
    return fallback


#: Narrow-block fallbacks for the adaptive mode: small images cannot
#: fill the Table 1 tiles (the source of the paper's 32x32 caveat), so
#: the selector may trade per-block efficiency for parallelism.
SMALL_IMAGE_CONFIGS = (
    GeneralCaseConfig(w=16, h=8, ftb=32, wt=8, ft=8, csh=2),
    GeneralCaseConfig(w=16, h=4, ftb=64, wt=8, ft=8, csh=2),
    GeneralCaseConfig(w=16, h=4, ftb=32, wt=4, ft=8, csh=2),
    GeneralCaseConfig(w=8, h=8, ftb=32, wt=8, ft=8, csh=2),
)


def palette(kernel_size: int, n: int) -> List[GeneralCaseConfig]:
    """The shipped general-case configurations, in search order: the
    Table 1 entry for this filter size (or the conservative fallback),
    every other Table 1 configuration, then :data:`SMALL_IMAGE_CONFIGS`,
    each once.  Serving's search and ``best_config`` pick from it.  The
    Table 1 and small-image configurations are distinct, so only the
    first entry can repeat one of them: one comparison each, not a
    scan."""
    shipped = tuple(TABLE1_CONFIGS.values()) + SMALL_IMAGE_CONFIGS
    try:
        first = default_config_for(kernel_size, n)
    except ConfigurationError:
        return list(shipped)
    return [first] + [cfg for cfg in shipped if cfg != first]


class GeneralCaseKernel(Priced):
    """Communication-reduced direct convolution for arbitrary C (Sec. 4)."""

    def __init__(
        self,
        arch: GPUArchitecture = KEPLER_K40M,
        config: Optional[GeneralCaseConfig] = None,
        matched: bool = True,
        bank_policy: BankConflictPolicy = BankConflictPolicy.WORD_MERGE,
        dtype: DataType = DataType.FLOAT,
    ):
        # ``dtype`` parameterizes the cost model only (paper Sec. 6:
        # short data types raise the mismatch factor); functional
        # execution stays in float32.  Per-problem selection from the
        # shipped palette, the fix for the paper's 32x32 caveat, is
        # ``best_config(problem, arch, case="general").config``.
        self.arch = arch
        self._config = config
        self.matched = matched
        self.bank_policy = bank_policy
        self.dtype = dtype
        self.elem_bytes = dtype.width
        # The matched vector's width (``matched_vector(...).n``), without
        # building the VectorSpec: a search builds a kernel per candidate.
        self.n = mismatch_factor(arch, dtype.width) if matched else 1
        self.name = "general[%s,%s,n=%d]" % (arch.name, dtype.label, self.n)

    # ------------------------------------------------------------------
    def config_for(self, problem: ConvProblem) -> GeneralCaseConfig:
        cfg = self._config
        if cfg is None:
            cfg = default_config_for(problem.kernel_size, self.n)
        cfg.validate(problem.kernel_size, self.n, self.arch.warp_size)
        return cfg

    def _check_problem(self, problem: ConvProblem) -> ConvProblem:
        if problem.groups != 1:
            raise ConfigurationError(
                "the general-case kernel handles ungrouped convolution, "
                "got %s" % problem.describe())
        valid = problem.as_valid()
        if valid.span > min(valid.height, valid.width):
            raise ConfigurationError("filter larger than padded image")
        return valid

    def launch_config(self, problem: ConvProblem) -> LaunchConfig:
        valid = self._check_problem(problem)
        return self._launch(valid, self.config_for(valid))

    def _launch(self, valid: ConvProblem,
                cfg: GeneralCaseConfig) -> LaunchConfig:
        """The launch for an already-checked problem and configuration."""
        k = valid.kernel_size
        s, d = valid.stride, valid.dilation
        # The output tiles of ``BlockGrid(valid, cfg.block_spec())``,
        # counted without building the grid.
        tiles = (math.ceil(valid.out_height / cfg.h)
                 * math.ceil(valid.out_width / cfg.w))
        return LaunchConfig(
            grid=Dim3(x=math.ceil(valid.filters / cfg.ftb), y=tiles),
            block=Dim3(x=cfg.tx, y=cfg.ty),
            registers_per_thread=cfg.registers_per_thread(k, self.n, s, d),
            smem_per_block=cfg.smem_bytes(k, self.n, self.elem_bytes, s, d),
        )

    # ------------------------------------------------------------------
    # Functional execution
    # ------------------------------------------------------------------
    def run(
        self,
        image: np.ndarray,
        filters: np.ndarray,
        padding: Padding = Padding.VALID,
        problem: Optional[ConvProblem] = None,
    ) -> np.ndarray:
        """Check the problem and configuration, then return Algorithm
        2's exact ``(F, OH, OW)`` output (:func:`conv2d_taps`).

        Without ``problem`` the arrays state it through
        :meth:`ConvProblem.from_arrays`; a full problem brings stride
        and dilation along (grouping is out of scope for this kernel —
        see the depthwise backend).
        """
        if problem is None:
            problem = ConvProblem.from_arrays(image, filters, padding)
        self.config_for(self._check_problem(problem))
        return conv2d_taps(problem, image, filters)

    # ------------------------------------------------------------------
    # Traced cost
    # ------------------------------------------------------------------
    def floor(self, problem: ConvProblem) -> KernelCost:
        """A lower bound on :meth:`cost`: the same launch, FLOPs,
        barriers and prefetch flag, and the global-memory bytes the
        cost's image and filter loads and its writeback cannot go below
        (:func:`gmem_floor` over :meth:`_gmem_sites`: each row's distinct
        bytes, so aliasing writeback lanes count once), with no shared-
        memory traffic.  Its modeled time never exceeds the cost's
        (docs/SIMULATOR.md).  Raises what :meth:`cost` raises from its
        problem and configuration checks; an invalid launch raises from
        ``TimingModel.evaluate``."""
        valid = self._check_problem(problem)
        cfg = self.config_for(valid)
        ledger = TrafficLedger(
            gmem_segment_size=self.arch.gmem_transaction_size)
        floor = self._floor(valid, cfg, ledger)
        loads, stores = self._gmem_sites(valid, cfg, floor.launch)
        gmem_floor(ledger, loads + stores)
        return floor

    def _floor(self, valid: ConvProblem, cfg: GeneralCaseConfig,
               ledger: TrafficLedger) -> KernelCost:
        """The floor of an already-checked problem and configuration,
        written to ``ledger``."""
        k = valid.kernel_size
        n = self.n
        s, d = valid.stride, valid.dilation
        launch = self._launch(valid, cfg)
        blocks = float(launch.total_blocks)
        chunks = math.ceil(valid.channels / cfg.csh)
        # A thread's image register row is read as n-float units from
        # its footprint row, pitch floats per staged row; rows off a
        # unit boundary are a misaligned access, which the bank model
        # would reject when ``cost`` folds the site.  The configuration
        # cannot run this problem, so it is rejected here, for the floor
        # and the price alike, as a configuration error a search counts
        # (columns are unit-aligned: w and wt are multiples of n).
        pitch = (cfg.w - 1) * s + d * (k - 1) + 1
        if s * pitch % n and _misaligned_rows(
                self.arch.warp_size, cfg.tx, cfg.ty, cfg.wt, cfg.w,
                s * pitch, n):
            raise ConfigurationError(
                "shared-memory accesses must be %d-byte aligned"
                % (n * self.elem_bytes))
        ledger.flops = (2.0 * k * k * valid.channels * cfg.ftb * cfg.w
                        * cfg.h * blocks)
        ledger.syncthreads = (2.0 * chunks + 2.0) * blocks
        return KernelCost(name=self.name, launch=launch, ledger=ledger,
                          software_prefetch=True)

    def cost(self, problem: ConvProblem) -> KernelCost:
        """The floor plus every access site's traffic."""
        valid = self._check_problem(problem)
        cfg = self.config_for(valid)
        # Every site's warp requests depend only on the configuration and
        # a few problem dimensions, never on how often they run, so each
        # site is a prepared batch cached per geometry and folded with
        # this problem's counts.  The fold order and each row's
        # ``mult * scale`` are part of the model: the counts are not all
        # integers, so regrouping them would change the ledger's float
        # sums (docs/SIMULATOR.md).
        tracer = KernelTracer(self.arch, self.bank_policy)
        cost = self._floor(valid, cfg, tracer.ledger)
        launch = cost.launch
        k = valid.kernel_size
        n = self.n
        s, d = valid.stride, valid.dilation
        fgroups, tiles = launch.grid.x, launch.grid.y
        tx, ty = launch.block.x, launch.block.y
        blocks = float(tiles * fgroups)
        warps = math.ceil(tx * ty / self.arch.warp_size)
        c_total = valid.channels
        chunks = math.ceil(c_total / cfg.csh)
        warp_lanes = self.arch.warp_size
        elem = self.elem_bytes
        unit = n * elem
        row_bytes = tracer.smem_batch_mod()

        img_row_floats = (cfg.w - 1) * s + d * (k - 1) + 1
        img_rows = (cfg.h - 1) * s + d * (k - 1) + 1
        loads, stores = self._gmem_sites(valid, cfg, launch)

        # --- global loads: image rows, then the filter chunk ----------------
        tracer.gmem_sites(loads)

        # --- shared-memory staging ------------------------------------------
        img_units = cfg.csh * img_rows * math.ceil(img_row_floats / n)
        tracer.smem_write_prepared(
            lane_batch(warp_lanes, unit, row_bytes),
            unit,
            scale=img_units / warp_lanes * chunks * blocks,
            site="sm.store_image",
        )
        # Lane ``l`` writes ``shFlt[tap][f]`` with the filter index
        # fastest; the stores are scalar (the transpose defeats
        # vectorization), and the pad keeps successive tap rows off the
        # same banks.
        flt_values = cfg.csh * k * k * cfg.ftb
        tracer.smem_write_prepared(
            lane_batch(warp_lanes, elem, row_bytes, 0,
                       min(cfg.ftb, warp_lanes),
                       (cfg.ftb + cfg.smem_filter_pad(n)) * elem),
            elem,
            scale=flt_values / warp_lanes * chunks * blocks,
            site="sm.store_filter",
        )

        # --- shared-memory reads: image register rows (line 12) -------------
        # Address depends only on ty; TX lanes broadcast.  A warp holds
        # warp/TX distinct ty values.
        tracer.smem_read_prepared(
            _img_row_read_batch(warp_lanes, tx, ty, cfg.wt, cfg.w, k, elem,
                                n, row_bytes, s, d),
            unit,
            scale=float(warps) * k * c_total * blocks,
            site="sm.load_image_row",
        )

        # --- shared-memory reads: filter values (line 14) --------------------
        tracer.smem_read_prepared(
            _flt_row_read_batch(warp_lanes, tx, cfg.ft, elem, n, row_bytes),
            unit,
            scale=float(warps) * k * k * c_total * blocks,
            site="sm.load_filter_row",
        )

        # --- writeback: uncoalesced by design (Sec. 4.2) ----------------------
        tracer.gmem_sites(stores)

        launch.validate(self.arch)
        return cost

    def _gmem_sites(self, valid: ConvProblem, cfg: GeneralCaseConfig,
                    launch: LaunchConfig) -> tuple:
        """The global-memory sites :meth:`cost` folds, as ``(loads,
        stores)`` lists of :meth:`KernelTracer.gmem_sites` tuples; the
        floor bounds the same ones."""
        k = valid.kernel_size
        n = self.n
        s, d = valid.stride, valid.dilation
        fgroups, tiles = launch.grid.x, launch.grid.y
        tx, ty = launch.block.x, launch.block.y
        blocks = float(tiles * fgroups)
        warp_lanes = self.arch.warp_size
        c_total = valid.channels
        elem = self.elem_bytes
        unit = n * elem
        img_row_floats = (cfg.w - 1) * s + d * (k - 1) + 1
        img_rows = (cfg.h - 1) * s + d * (k - 1) + 1

        # Image rows of the staged chunk: each footprint row is one
        # contiguous run; runs are strided by the image pitch, so they are
        # traced per-row.  The row base is aligned to W floats (blocks
        # start at multiples of W).
        full_row_reqs = math.ceil(img_row_floats / (n * warp_lanes))
        # The TBX filter-group blocks at the same image location stream
        # the same pixels; the footprint is tiny, so the L2 serves the
        # repeats (symmetric with the credit the cuDNN baseline gets).
        img_slab = valid.channels * valid.height * valid.width * elem
        # The filter chunk: FTB runs of CSH*K*K floats, shared by every
        # output tile.
        flt_slab = valid.filters * c_total * k * k * elem
        loads = [
            ("gm.load_image",
             lane_batch(min(warp_lanes, math.ceil(img_row_floats / n)), unit,
                        KernelTracer.gmem_batch_mod(unit)),
             unit, float(full_row_reqs) * img_rows * c_total * blocks, False,
             cross_block_reuse(self.arch, img_slab, fgroups)),
            ("gm.load_filter",
             _filter_load_batch(warp_lanes, cfg.ftb, c_total * k * k * elem,
                                cfg.csh * k * k,
                                math.ceil(c_total / cfg.csh), elem),
             elem, blocks, False,
             cross_block_reuse(self.arch, flt_slab, tiles)),
        ]
        # The writeback: lane tx writes filter map tx*FT + ff; maps are
        # OH*OW apart.  Each thread writes its WT pixels as wide units;
        # store sectors price it.
        map_stride = valid.out_height * valid.out_width * elem
        wb_prep, wide = _writeback_batch(
            warp_lanes, tx, ty, cfg.ft, cfg.wt, map_stride, elem, n)
        warps = math.ceil(tx * ty / warp_lanes)
        stores = [("gm.store_out", wb_prep, wide, float(warps) * blocks, True,
                   1.0)]
        return loads, stores


@functools.lru_cache(maxsize=4096)
def _misaligned_rows(warp_lanes, tx, ty, wt, w, row_floats, n) -> bool:
    """Whether a warp's image register rows, ``row_floats`` apart, include
    one that starts off an ``n``-float unit boundary."""
    groups = {(lane // tx) % ty for lane in range(warp_lanes)}
    return any((g * wt) // w * row_floats % n for g in groups)


@functools.lru_cache(maxsize=4096)
def _img_row_read_batch(warp_lanes, tx, ty, wt, w, k, elem, n, row_bytes,
                        stride=1, dilation=1):
    """Prepared batch of one warp's image register-row reads (line 12)."""
    lanes = np.arange(warp_lanes, dtype=np.int64)
    ty_ids = (lanes // tx) % ty
    pitch = (w - 1) * stride + dilation * (k - 1) + 1
    base = (
        ((ty_ids * wt) // w) * stride * pitch
        + ((ty_ids * wt) % w) * stride
    ) * elem
    u_img = math.ceil(((wt - 1) * stride + dilation * (k - 1) + 1) / n)
    unit = n * elem
    matrix = (
        base[np.newaxis, :]
        + np.arange(u_img, dtype=np.int64)[:, np.newaxis] * unit
    )
    return prepare_batch(matrix, row_bytes)


@functools.lru_cache(maxsize=4096)
def _flt_row_read_batch(warp_lanes, tx, ft, elem, n, row_bytes):
    """Prepared batch of one warp's vectorized filter reads (line 14)."""
    lanes = np.arange(warp_lanes, dtype=np.int64)
    base = (lanes % tx) * ft * elem
    u_flt = max(1, ft // n)
    unit = n * elem
    matrix = (
        base[np.newaxis, :]
        + np.arange(u_flt, dtype=np.int64)[:, np.newaxis] * unit
    )
    return prepare_batch(matrix, row_bytes)


@functools.lru_cache(maxsize=4096)
def _writeback_batch(warp_lanes, tx, ty, ft, wt, map_stride, elem, n):
    """Prepared batch of the uncoalesced writeback, plus its store width."""
    lanes = np.arange(warp_lanes, dtype=np.int64)
    tx_ids = lanes % tx
    ty_ids = (lanes // tx) % ty
    wide = 16 if (wt * elem) % 16 == 0 else n * elem
    u_out = math.ceil(wt * elem / wide)
    wb_addrs = tx_ids * ft * map_stride + ty_ids * wt * elem
    wb_offsets = (
        np.arange(ft, dtype=np.int64)[:, np.newaxis] * map_stride
        + np.arange(u_out, dtype=np.int64) * wide
    ).reshape(-1, 1)
    matrix = wb_addrs[np.newaxis, :] + wb_offsets
    matrix -= matrix % wide
    return prepare_batch(matrix, math.lcm(wide, KernelTracer.SECTOR_BYTES)), wide


@functools.lru_cache(maxsize=4096)
def _filter_load_batch(warp_lanes, ftb, stride, run_floats, chunks, elem):
    """Prepared filter-chunk loads, in trace order, with per-row counts.

    Filter ``f``'s run for channel chunk ``c`` starts at byte
    ``f * stride + c * run_floats * elem``; only its residue mod the
    sector matters to the coalescer, so the distinct residues are
    enumerated and weighted by frequency (which makes the sector count
    exact, as the interpreter audit verifies).  Each run of
    ``run_floats`` scalars splits into full-warp requests plus one
    remainder request with the leftover lanes.  The rows stay unmerged
    (:func:`prepare_rows`): the site divides every row's bytes by its
    L2 reuse, so merging equal rows would change the float sum.
    """
    seg = KernelTracer.SECTOR_BYTES
    base_grid = (
        np.arange(ftb, dtype=np.int64)[:, np.newaxis] * stride
        + np.arange(chunks, dtype=np.int64) * (run_floats * elem)
    ) % seg
    values, freqs = np.unique(base_grid, return_counts=True)
    scalar_lanes = np.arange(warp_lanes, dtype=np.int64) * elem
    full_reqs, rem = divmod(run_floats, warp_lanes)
    rows, mults = [], []
    for base, freq in zip(values.tolist(), freqs.tolist()):
        if full_reqs:
            rows.append(base + scalar_lanes)
            mults.append(float(full_reqs) * freq)
        if rem:
            rem_base = base + full_reqs * warp_lanes * elem
            rows.append(rem_base + scalar_lanes[:rem])
            mults.append(float(freq))
    return prepare_rows(rows, mults, math.lcm(elem, seg))

