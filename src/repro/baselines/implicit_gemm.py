"""cuDNN-like implicit-GEMM convolution (Chetlur et al. [8]).

cuDNN's GEMM-based convolution avoids the explicit im2col workspace by
materializing sub-blocks of the lowered matrix *in shared memory at run
time*: a register-blocked GEMM whose B-panel loads gather directly from
the input image with im2col addressing.  This is the comparison kernel
for both of the paper's experiments (Figs. 7 and 8).

Modeling notes (see DESIGN.md):

* The GEMM dimensions are ``M = F``, ``N = OH * OW``, ``K = C*K_f*K_f``.
  Tiles are padded; the padded FLOPs are what the machine executes, but
  achieved GFlop/s is always normalized by the *nominal* operation
  count — this is how the paper's Fig. 7 numbers can sink far below
  hardware peak for small ``F``.
* Shared-memory operand reads are scalar ``float`` — the paper's
  premise is precisely that cuDNN (v5.1) does not restructure its
  per-thread data width for Kepler's 8-byte banks.
* A tile-shape heuristic picks the best tiling per problem from a
  palette, standing in for cuDNN's internal kernel selection.  It is the
  design-space explorer's bounded search (``repro.core.dse``), over
  each tile's compute-only floor.
* Every input pixel is re-gathered for each of the ``K_f * K_f`` lowered
  rows it appears in and for each M-tile — the traffic the paper's
  kernels eliminate (their Sec. 4.2 claims ~1/K of it).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.baselines.gemm import (
    GemmShape,
    GemmTiling,
    tile_floor,
    trace_tile_rounds,
)
from repro.baselines.im2col import gather_batch, im2col_matrix
from repro.conv.tensors import ConvProblem, Padding
from repro.errors import ShapeError
from repro.gpu.arch import GPUArchitecture, KEPLER_K40M
from repro.gpu.memory.banks import BankConflictPolicy
from repro.gpu.simt import Dim3, LaunchConfig
from repro.gpu.timing import Priced
from repro.gpu.trace import (
    KernelCost,
    KernelTracer,
    TrafficLedger,
    cross_block_reuse,
    lane_batch,
)

__all__ = ["ImplicitGemmKernel", "DEFAULT_TILE_PALETTE"]

_F32 = 4

#: Tile shapes the kernel-selection heuristic chooses from, mirroring the
#: few specialized kernels the library of the paper's era ships (scalar
#: operand reads each).  One skinny tile serves small-M problems; below
#: M = 32 the padding is paid in full, as the paper's F = 1 points show.
DEFAULT_TILE_PALETTE = (
    GemmTiling(bm=128, bn=128, bk=8, tm=8, tn=8, n=1),
    GemmTiling(bm=128, bn=64, bk=8, tm=8, tn=4, n=1),
    GemmTiling(bm=64, bn=64, bk=8, tm=4, tn=4, n=1),
    GemmTiling(bm=32, bn=64, bk=8, tm=4, tn=4, n=1),
)


def _aligned_width(pitch_elems: int) -> int:
    """Widest vector access a row pitch of ``pitch_elems`` floats permits."""
    for width in (16, 8, 4):
        if (pitch_elems * _F32) % width == 0:
            return width
    return 4


def _check_ungrouped(problem: ConvProblem) -> None:
    if problem.groups != 1:
        raise ShapeError(
            "the implicit-GEMM kernel handles ungrouped convolution, "
            "got %s" % problem.describe())


class ImplicitGemmKernel(Priced):
    """GEMM-based convolution with on-chip im2col (the cuDNN analogue)."""

    def __init__(
        self,
        arch: GPUArchitecture = KEPLER_K40M,
        tiling: Optional[GemmTiling] = None,
        bank_policy: BankConflictPolicy = BankConflictPolicy.WORD_MERGE,
    ):
        self.arch = arch
        self._tiling = tiling
        self.bank_policy = bank_policy
        self.name = "cuDNN-like[%s]" % arch.name

    # ------------------------------------------------------------------
    @staticmethod
    def gemm_shape(problem: ConvProblem) -> GemmShape:
        valid = problem.as_valid()
        k = valid.kernel_size
        return GemmShape(
            m=valid.filters,
            n=valid.out_height * valid.out_width,
            k=valid.channels * k * k,
        )

    def select_tiling(self, problem: ConvProblem) -> GemmTiling:
        """Pick the palette tile with the best predicted time."""
        if self._tiling is not None:
            return self._tiling
        return self.search(problem).ranked.config

    def search(self, problem: ConvProblem, limit: float = math.inf):
        """The bounded tile search over :data:`DEFAULT_TILE_PALETTE`.

        ``repro.core.dse``'s branch and bound prices the tiles in
        ``(floor time, palette index)`` order and stops once no unpriced
        tile can win.  Its winner is the exhaustive argmin (the best
        time, the earliest tile on a tie), answered as a
        :class:`~repro.core.dse.PricedConfig` whose config is the tile,
        or ``None`` when it takes longer than ``limit`` seconds.  The
        problem's GEMM shape is derived once, for every tile.
        """
        from repro.core.dse import _rank

        shape = self.gemm_shape(problem)

        def tile_kernel(arch, config):
            return _TileCandidate(self, config, shape)

        return _rank(DEFAULT_TILE_PALETTE, tile_kernel, problem, self.arch,
                     "implicit-gemm", limit)

    # ------------------------------------------------------------------
    def run(
        self,
        image: np.ndarray,
        filters: np.ndarray,
        padding: Padding = Padding.VALID,
        problem: Optional[ConvProblem] = None,
    ) -> np.ndarray:
        """Functional execution: the implicit lowering made explicit."""
        if problem is None:
            problem = ConvProblem.from_arrays(image, filters, padding)
        _check_ungrouped(problem)
        padded = problem.padded_image(image)
        flt = problem.check_filters(filters)
        valid = problem.as_valid()
        lowered = im2col_matrix(padded, valid.kernel_size,
                                valid.stride, valid.dilation)
        a = flt.reshape(valid.filters, -1)
        return problem.layout_output(
            (a @ lowered).reshape(valid.filters, valid.out_height,
                                  valid.out_width))

    # ------------------------------------------------------------------
    def floor(self, problem: ConvProblem) -> KernelCost:
        """:meth:`cost` without its memory traffic: the floor of the tile
        it prices (docs/SIMULATOR.md, "Floors and the bounded search").
        The tile search prices each palette tile's floor as this, at
        that tile."""
        return self._floor_with(
            problem, self.select_tiling(problem), self.gemm_shape(problem),
            TrafficLedger(gmem_segment_size=self.arch.gmem_transaction_size))

    def _floor_with(self, problem: ConvProblem, t: GemmTiling,
                    shape: GemmShape, ledger: TrafficLedger) -> KernelCost:
        """Tile ``t``'s floor on ``problem``, whose GEMM shape is
        ``shape``: its launch, FLOPs, barriers and prefetch flag,
        written to ``ledger``."""
        # The GEMM lowering is dense: pricing a grouped problem as one
        # would cost work ``run`` refuses to do.
        _check_ungrouped(problem)
        grid_x = math.ceil(shape.m / t.bm)
        grid_y = math.ceil(shape.n / t.bn)
        launch = LaunchConfig(
            grid=Dim3(x=grid_x, y=grid_y),
            block=Dim3(x=t.threads_x, y=t.threads_y),
            registers_per_thread=min(t.registers_per_thread() + 8,
                                     self.arch.max_registers_per_thread),
            smem_per_block=t.smem_bytes(),
        )
        tile_floor(ledger, t, math.ceil(shape.k / t.bk),
                   float(grid_x * grid_y))
        return KernelCost(name=self.name, launch=launch, ledger=ledger,
                          software_prefetch=True)

    def cost(self, problem: ConvProblem) -> KernelCost:
        """The selected tile's cost: a fixed tiling's, or the cost the
        tile search priced its winner with (traced once)."""
        if self._tiling is not None:
            return self._cost_with(problem, self._tiling)
        return self.search(problem).cost

    def _cost_with(self, problem: ConvProblem, t: GemmTiling,
                   shape: Optional[GemmShape] = None) -> KernelCost:
        """Tile ``t``'s floor plus every access site's traffic; the tile
        search passes the problem's GEMM ``shape`` it derived."""
        if shape is None:
            shape = self.gemm_shape(problem)
        tracer = KernelTracer(self.arch, self.bank_policy)
        cost = self._floor_with(problem, t, shape, tracer.ledger)
        valid = problem.as_valid()
        arch = self.arch

        grid_x, grid_y = cost.launch.grid.x, cost.launch.grid.y
        blocks = float(grid_x * grid_y)
        ksteps = math.ceil(shape.k / t.bk)
        warp_lanes = arch.warp_size

        # --- A panel: BM filters x BK lowered coordinates (contiguous) ----
        # Traffic uses the real K extent; the pad rows are predicated off.
        # The filter pitch (C*K*K floats) is rarely 16-byte aligned, so
        # the load width degrades like the hardware's would.
        a_rows_total = min(shape.k, ksteps * t.bk)
        width = _aligned_width(shape.k)
        run_units = max(1, t.bk * _F32 // width)
        a_reqs = min(shape.m, grid_x * t.bm) * run_units / arch.warp_size
        a_slab = shape.m * shape.k * _F32
        tracer.gmem_read_prepared(
            lane_batch(warp_lanes, width, tracer.gmem_batch_mod(width), 0,
                       run_units, shape.k * _F32),
            width, scale=a_reqs * (a_rows_total / t.bk) * grid_y,
            site="gm.load_filters",
            l2_reuse=cross_block_reuse(arch, a_slab, grid_y))

        # --- B panel: BK lowered rows x BN output positions, gathered -----
        # For one lowered row, BN consecutive output positions map to
        # contiguous input pixels within an output row; runs break at row
        # ends.  Scalar loads (gather addressing defeats vectorization).
        b_reqs_per_row = t.bn / arch.warp_size
        # The K*K lowered rows of one channel re-read the same input
        # lines within a handful of k-steps: classic L2 temporal reuse.
        k_taps = valid.kernel_size ** 2
        tracer.gmem_read_prepared(
            gather_batch(tracer, valid), _F32,
            scale=b_reqs_per_row * shape.k * grid_y * grid_x,
            site="gm.load_image_gather", l2_reuse=float(k_taps))

        # --- shared-memory staging and operand reads -----------------------
        # The palette's operand reads are scalar float (unmatched); the
        # FMAs, padded tiles in full, are the floor's.
        trace_tile_rounds(tracer, t, ksteps, blocks)

        # --- writeback: BN contiguous output pixels per tile row --------------
        w_width = _aligned_width(shape.n)
        run_w = max(1, t.bn * _F32 // w_width)
        wb_rows = min(shape.m, grid_x * t.bm)
        tracer.gmem_write_prepared(
            lane_batch(warp_lanes, w_width, tracer.gmem_batch_mod(w_width),
                       0, run_w, shape.n * _F32),
            w_width, scale=wb_rows * run_w / arch.warp_size * grid_y,
            site="gm.store_out")

        cost.launch.validate(arch)
        return cost


class _TileCandidate:
    """One palette tile as :meth:`ImplicitGemmKernel.search` prices it:
    the kernel's floor and cost at that tile, on the GEMM shape the
    search derived once for its problem."""

    def __init__(self, kernel: ImplicitGemmKernel, tiling: GemmTiling,
                 shape: GemmShape):
        self.kernel = kernel
        self.tiling = tiling
        self.shape = shape

    def floor(self, problem: ConvProblem) -> KernelCost:
        ledger = TrafficLedger(
            gmem_segment_size=self.kernel.arch.gmem_transaction_size)
        return self.kernel._floor_with(problem, self.tiling, self.shape,
                                       ledger)

    def cost(self, problem: ConvProblem) -> KernelCost:
        return self.kernel._cost_with(problem, self.tiling, self.shape)
