"""The special-case convolution kernel: one input channel (paper Sec. 3).

The kernel partitions the output plane into ``H x W`` blocks (Fig. 4).
A thread block of ``W / n`` threads sweeps the block top to bottom, one
output row per step (Fig. 5); each thread produces ``n`` contiguous
output pixels per row and keeps a ``K x (K + n - 1)`` pixel window in
registers.  Shared memory holds a circular window of ``K`` image rows;
the next row is prefetched from global memory into registers while the
current row's convolutions execute, and stored to shared memory behind a
barrier (Algorithm 1).  Filters live in constant memory and are read at
the same tap by every thread in a warp — pure broadcasts.

Three views of the one algorithm:

* :meth:`SpecialCaseKernel.cost` carries the traffic: it replays every
  memory access site's actual warp address patterns through the
  bank/coalescing/broadcast models, each staged image row where it
  starts, and returns the ledger the timing model consumes;
* the interpreter (:mod:`repro.core.special_interpreted`) executes the
  dataflow warp by warp — the circular shared-memory window and the
  register-row rotation — and is the audit oracle: on every aligned
  problem whose filters fit the constant cache its executed trace
  equals the cost field for field;
* :meth:`SpecialCaseKernel.run` returns the exact float32 output of
  the shared tap loop (:func:`repro.conv.reference.conv2d_taps`), which
  sums each output's taps in the order the kernel's threads do.

``matched=False`` builds the paper's "unmatched kernel" of Fig. 7b: the
same algorithm with ``n`` forced to 1 (scalar ``float`` accesses), used
to quantify the cost of ignoring the bank-width model.

``dtype`` implements the paper's Sec. 6 future-work extension: for
``half``/``char`` data the mismatch factor grows to 4/8 on Kepler (2/4
on 4-byte-bank devices) and the kernel vectorizes accordingly.  The
data type parameterizes the *cost model* (element widths in every
traced access and in the resource/footprint accounting); functional
execution stays in float32 — the arithmetic is not the object of the
model, the traffic is.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from repro.conv.reference import conv2d_taps
from repro.conv.tensors import ConvProblem, Padding
from repro.core.bankwidth import DataType, mismatch_factor
from repro.core.config import BEST_SPECIAL_CONFIG, SpecialCaseConfig
from repro.errors import ConfigurationError, ShapeError
from repro.gpu.arch import GPUArchitecture, KEPLER_K40M
from repro.gpu.memory.banks import BankConflictPolicy
from repro.gpu.simt import Dim3, LaunchConfig
from repro.gpu.timing import Priced
from repro.gpu.trace import (
    KernelCost,
    KernelTracer,
    TrafficLedger,
    gmem_floor,
    lane_batch,
)

__all__ = ["SpecialCaseKernel"]


@functools.lru_cache(maxsize=1024)
def _row_starts(pitch: int, unit: int, mod: int, step: int, rows: int,
                bands: int) -> tuple:
    """The staged image rows by where they start, as ascending ``(start
    byte, rows)`` pairs.

    Each of ``bands`` block rows stages ``rows`` consecutive image rows,
    band ``b`` from image row ``b * step`` on; image row ``i`` starts at
    byte ``i * pitch`` modulo ``mod``, rounded down to the vector
    ``unit``.  Row starts repeat every ``q = mod / gcd(pitch, mod)``
    rows, so the rows are counted by their index modulo ``q``, in
    closed form: each band adds ``rows // q`` to every class and one
    more to the ``rows % q`` classes from its first row's on.
    """
    q = mod // math.gcd(pitch, mod)
    full_bands, part_bands = divmod(bands, q)
    full_rows, part_rows = divmod(rows, q)
    starts = {}
    for j in range(q):
        count = bands * full_rows
        for b in range(min(bands, q)):
            if (j - b * step) % q < part_rows:
                count += full_bands + (b < part_bands)
        if count:
            start = j * pitch % mod // unit * unit
            starts[start] = starts.get(start, 0) + count
    return tuple(sorted(starts.items()))


class SpecialCaseKernel(Priced):
    """Communication-optimized direct convolution for C = 1 (Sec. 3)."""

    def __init__(
        self,
        arch: GPUArchitecture = KEPLER_K40M,
        config: SpecialCaseConfig = BEST_SPECIAL_CONFIG,
        matched: bool = True,
        bank_policy: BankConflictPolicy = BankConflictPolicy.WORD_MERGE,
        dtype: DataType = DataType.FLOAT,
    ):
        self.arch = arch
        self.config = config
        self.matched = matched
        self.bank_policy = bank_policy
        self.dtype = dtype
        self.elem_bytes = dtype.width
        # The matched vector's width (``matched_vector(...).n``), without
        # building the VectorSpec: a search builds a kernel per candidate.
        self.n = mismatch_factor(arch, dtype.width) if matched else 1
        self.name = "special[%s,%s,n=%d]" % (arch.name, dtype.label, self.n)

    # ------------------------------------------------------------------
    def _check_problem(self, problem: ConvProblem) -> ConvProblem:
        if problem.channels != 1:
            raise ConfigurationError(
                "the special-case kernel handles one input channel, got %d"
                % problem.channels
            )
        valid = problem.as_valid()
        self.config.validate(valid.kernel_size, self.n, self.arch.warp_size)
        cm_bytes = valid.filters * valid.kernel_size ** 2 * self.elem_bytes
        if cm_bytes > self.arch.const_memory_size:
            raise ConfigurationError(
                "filters need %d bytes of constant memory, %s has %d"
                % (cm_bytes, self.arch.name, self.arch.const_memory_size)
            )
        return valid

    def launch_config(self, problem: ConvProblem) -> LaunchConfig:
        return self._launch(self._check_problem(problem))

    def _launch(self, valid: ConvProblem) -> LaunchConfig:
        """The launch for an already-checked (``as_valid``) problem."""
        k = valid.kernel_size
        s, d = valid.stride, valid.dilation
        # The blocks of ``BlockGrid(valid, self.config.block_spec())``,
        # counted without building the grid.
        return LaunchConfig(
            grid=Dim3(x=math.ceil(valid.out_width / self.config.block_w),
                      y=math.ceil(valid.out_height / self.config.block_h)),
            block=Dim3(x=self.config.threads(self.n)),
            registers_per_thread=self.config.registers_per_thread(
                k, self.n, s, d),
            smem_per_block=self.config.smem_bytes(
                k, self.n, self.elem_bytes, s, d),
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
        1's exact ``(F, OH, OW)`` output (:func:`conv2d_taps`).

        Without ``problem`` the arrays state it through
        :meth:`ConvProblem.from_arrays`; a full problem brings stride,
        dilation and NHWC layout along (always C = 1).
        """
        if problem is None:
            problem = ConvProblem.from_arrays(image, filters, padding)
            if problem.channels != 1:
                raise ShapeError(
                    "the special-case kernel takes a single-channel image, "
                    "got %d channels" % problem.channels)
        self._check_problem(problem)
        return conv2d_taps(problem, image, filters)

    # ------------------------------------------------------------------
    # Traced cost
    # ------------------------------------------------------------------
    def floor(self, problem: ConvProblem) -> KernelCost:
        """A lower bound on :meth:`cost`: the same launch, FLOPs,
        barriers and prefetch flag, and the global-memory bytes the
        cost's image-row loads and output stores cannot go below
        (:func:`gmem_floor` over :meth:`_gmem_sites`), with no shared-
        or constant-memory traffic.  Its modeled time never exceeds the
        cost's (docs/SIMULATOR.md).  Raises what :meth:`cost` raises
        from its problem and configuration checks; an invalid launch
        raises from ``TimingModel.evaluate``."""
        valid = self._check_problem(problem)
        ledger = TrafficLedger(
            gmem_segment_size=self.arch.gmem_transaction_size)
        floor = self._floor(valid, ledger)
        # One row per staged piece: a row's distinct bytes do not depend
        # on where it starts, so splitting it by start residue, as the
        # cost does, would add the same integers.
        grid = floor.launch.grid
        starts = ((0, self._staged_rows(valid) * grid.y),)
        loads, stores = self._gmem_sites(valid, grid, starts,
                                         self._staged(valid))
        gmem_floor(ledger, loads + stores)
        return floor

    def _floor(self, valid: ConvProblem, ledger: TrafficLedger) -> KernelCost:
        """The floor of an already-checked problem, written to ``ledger``."""
        cfg = self.config
        k, h = valid.kernel_size, cfg.block_h
        launch = self._launch(valid)
        blocks = launch.total_blocks
        ledger.flops = 2.0 * k * k * valid.filters * cfg.block_w * h * blocks
        # Barriers: two per row iteration plus the initial one.
        ledger.syncthreads = float((2 * h + 1) * blocks)
        return KernelCost(name=self.name, launch=launch, ledger=ledger,
                          software_prefetch=True)

    def cost(self, problem: ConvProblem) -> KernelCost:
        """The floor plus every access site's traffic, replayed through
        the memory models.

        Each site is a :func:`lane_batch` cached per geometry and folded
        with this problem's count, one fold per request row in the order
        and with the count expressions of a request-by-request replay
        (docs/SIMULATOR.md); a staged image-row piece is one load per
        start residue of its rows (:func:`_row_starts`).  Every count is
        a product of positive extents, so no fold is skipped for a zero
        count.
        """
        valid = self._check_problem(problem)
        tracer = KernelTracer(self.arch, self.bank_policy)
        cost = self._floor(valid, tracer.ledger)
        cfg = self.config
        k = valid.kernel_size
        n = self.n
        grid = cost.launch.grid
        blocks = cost.launch.total_blocks
        warp_lanes = self.arch.warp_size
        warps = math.ceil(cfg.threads(n) / warp_lanes)
        h = cfg.block_h
        f_count = valid.filters

        elem = self.elem_bytes
        unit = n * elem
        smem_mod = tracer.smem_batch_mod()
        s, d = valid.stride, valid.dilation
        span = valid.span
        staged = self._staged(valid)
        rows = self._staged_rows(valid)
        mod = KernelTracer.gmem_batch_mod(unit)
        # Image row i starts i * pitch bytes into the image, and every
        # block column and the image base are whole periods further on.
        starts = _row_starts(valid.width * elem % mod, unit, mod,
                             h * s % mod, rows, grid.y)
        loads, stores = self._gmem_sites(valid, grid, starts, staged)

        # --- global loads of image rows (coalesced vector units) ----------
        tracer.gmem_sites(loads)

        # --- shared-memory staging of those rows -------------------------
        for name, lanes, base, reqs in staged:
            tracer.smem_write_prepared(
                lane_batch(lanes, unit, smem_mod, base), unit,
                scale=float(reqs * rows * blocks), site="sm.store_" + name)

        # --- per-iteration register loads from shared memory --------------
        # Each thread reads its (n-1)*s + span pixel row slice as vector
        # units (line 6), one request per unit; the initial priming rows
        # are read the same way (line 3).  Tap rows d apart with the
        # window advancing s rows per output row reuse k - s/d register
        # rows (all k when s = 1, d = 1).
        slice_floats = (n - 1) * s + span
        window_units = math.ceil(slice_floats / n)
        fresh_taps = s // d if (s % d == 0 and s // d < k) else k
        row_reads = (k - fresh_taps) + h * fresh_taps
        tracer.smem_read_prepared(
            lane_batch(warp_lanes, n * s * elem, smem_mod, 0, None, 0,
                       window_units, unit),
            unit, scale=float(warps * row_reads * blocks),
            site="sm.load_window",
        )

        # --- constant-memory filter taps: one broadcast per FMA round -----
        working_set = f_count * k * k * elem
        hit = tracer.cmem.hit_rate(working_set)
        broadcasts = float(warps * h * f_count * k * k * blocks)
        tracer.cmem_read_prepared(lane_batch(warp_lanes, 0, 1),
                                  scale=broadcasts, site="cm.filter_tap")
        if hit < 1.0:
            # Constant-cache misses fall through to DRAM, once per miss.
            miss_reads = broadcasts * (1.0 - hit)
            tracer.gmem_read_prepared(
                lane_batch(1, 0, tracer.gmem_batch_mod(elem)), elem,
                scale=miss_reads, site="gm.cm_miss")

        # --- output writeback (vector units, coalesced) ---------------------
        tracer.gmem_sites(stores)

        cost.launch.validate(self.arch)
        return cost

    def _staged_rows(self, valid: ConvProblem) -> int:
        """The image rows a block stages: K initial + (H - 1) prefetched
        rows at stride 1; strided blocks advance s input rows per output
        row under the same span window."""
        return (self.config.block_h - 1) * valid.stride + valid.span

    def _staged(self, valid: ConvProblem) -> list:
        """The pieces of one staged image row, as (site, lanes, base
        byte, requests per row), each a coalesced run of vector units."""
        cfg = self.config
        n = self.n
        s, span = valid.stride, valid.span
        warp_lanes = self.arch.warp_size
        if s == 1:
            warps = math.ceil(cfg.threads(n) / warp_lanes)
            staged = [("row", warp_lanes, 0, warps)]
            halo_units = math.ceil((span - 1) / n)
            if halo_units:
                staged.append(("row_halo", halo_units,
                               cfg.block_w * self.elem_bytes, 1))
            return staged
        # Strided blocks still stage their full contiguous footprint row
        # (every s-th pixel plus dilated halo is in range), so the
        # cooperative load stays vectorized; the warp count changes.
        footprint = (cfg.block_w - 1) * s + span   # input floats per row
        full_rounds, tail_units = divmod(math.ceil(footprint / n), warp_lanes)
        staged = []
        if full_rounds:
            staged.append(("row", warp_lanes, 0, full_rounds))
        if tail_units:
            staged.append(("row_halo", tail_units, 0, 1))
        return staged

    def _gmem_sites(self, valid: ConvProblem, grid: Dim3, starts,
                    staged: list) -> tuple:
        """The global-memory sites :meth:`cost` folds, as ``(loads,
        stores)`` lists of :meth:`KernelTracer.gmem_sites` tuples; the
        floor bounds the same ones.  Each staged piece is one load per
        ``(start byte, rows)`` of ``starts``: the staged rows of one
        column of ``grid`` that start at that byte of a sector period,
        which every column stages alike.  The constant-cache misses
        (``gm.cm_miss``) are left out of both lists: the cost folds
        them between the two, and the floor skips them."""
        n, elem = self.n, self.elem_bytes
        unit = n * elem
        mod = KernelTracer.gmem_batch_mod(unit)
        warp_lanes = self.arch.warp_size
        loads = [("gm.load_" + name,
                  lane_batch(lanes, unit, mod, base + start), unit,
                  float(reqs * rows * grid.x), False, 1.0)
                 for name, lanes, base, reqs in staged
                 for start, rows in starts]
        blocks = grid.count
        warps = math.ceil(self.config.threads(n) / warp_lanes)
        count = float(warps * self.config.block_h * valid.filters * blocks)
        if (valid.out_width * elem) % self.arch.gmem_transaction_size:
            # Output rows are generally not segment-aligned (OW = N-K+1);
            # sample an offset base as well and average implicitly by
            # splitting the count across the two alignments.
            stores = [(site, lane_batch(warp_lanes, unit, mod, base), unit,
                       count / 2.0, True, 1.0)
                      for base, site in ((0, "gm.store_out"),
                                         (unit, "gm.store_out_misaligned"))]
        else:
            stores = [("gm.store_out", lane_batch(warp_lanes, unit, mod),
                       unit, count, True, 1.0)]
        return loads, stores
