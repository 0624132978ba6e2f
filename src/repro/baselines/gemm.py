"""Blocked GEMM kernels (paper Fig. 2 and the substrate for the GEMM
convolution baselines).

:class:`TiledGemmKernel` models the classic register-blocked shared-
memory GEMM of Nath/Tomov/Dongarra (the MAGMA kernel the paper modifies)
with a parameterized tiling: ``BM x BN`` output tiles, ``BK`` reduction
panels staged in shared memory, ``TM x TN`` register tiles per thread,
and per-thread vector width ``n`` for the shared-memory operand reads —
the knob the paper's Fig. 2 experiment turns.

Three tilings reproduce Fig. 2's three curves:

* ``MAGMA_FERMI_TILING`` — MAGMA's Fermi-era kernel: scalar (``float``)
  operand reads, matched on Fermi's 4-byte banks but *unmatched* on
  Kepler's 8-byte banks;
* ``MAGMA_MATCHED_TILING`` — the paper's modification: identical tiling
  with ``float2`` operand reads (``n = 2``);
* ``CUBLAS_KEPLER_TILING`` — a Kepler-tuned kernel with a larger
  register tile and matched reads, standing in for cuBLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, ShapeError
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

__all__ = [
    "GemmShape",
    "GemmTiling",
    "TiledGemmKernel",
    "MAGMA_FERMI_TILING",
    "MAGMA_MATCHED_TILING",
    "CUBLAS_KEPLER_TILING",
    "magma_fermi_gemm",
    "magma_matched_gemm",
    "cublas_like_gemm",
]

_F32 = 4


@dataclass(frozen=True)
class GemmShape:
    """C[m, n] = A[m, k] @ B[k, n], row-major."""

    m: int
    n: int
    k: int

    def __post_init__(self):
        if min(self.m, self.n, self.k) < 1:
            raise ShapeError("GEMM extents must be positive")

    @property
    def flops(self) -> int:
        return 2 * self.m * self.n * self.k

    @classmethod
    def square(cls, dim: int) -> "GemmShape":
        return cls(dim, dim, dim)


@dataclass(frozen=True)
class GemmTiling:
    """Static tiling of a register-blocked GEMM kernel."""

    bm: int
    bn: int
    bk: int
    tm: int
    tn: int
    n: int = 1          # per-thread vector width for SM operand reads

    def __post_init__(self):
        if min(self.bm, self.bn, self.bk, self.tm, self.tn, self.n) < 1:
            raise ConfigurationError("tiling parameters must be positive")
        if self.bm % self.tm or self.bn % self.tn:
            raise ConfigurationError("BM/BN must be divisible by TM/TN")
        if self.tm % self.n or self.tn % self.n:
            raise ConfigurationError("TM and TN must be divisible by n")

    @property
    def threads_x(self) -> int:
        return self.bm // self.tm

    @property
    def threads_y(self) -> int:
        return self.bn // self.tn

    @property
    def threads(self) -> int:
        return self.threads_x * self.threads_y

    def smem_bytes(self) -> int:
        """Double-buffered A (transposed) and B panels."""
        a_panel = self.bk * (self.bm + self.n)
        b_panel = self.bk * (self.bn + self.n)
        return 2 * (a_panel + b_panel) * _F32

    def registers_per_thread(self) -> int:
        prefetch = -(-(self.bm + self.bn) * self.bk // self.threads)
        return self.tm * self.tn + self.tm + self.tn + prefetch + 14


#: MAGMA's Fermi kernel: 64x64x16 tiles, 4x4 register tiles, scalar reads.
MAGMA_FERMI_TILING = GemmTiling(bm=64, bn=64, bk=16, tm=4, tn=4, n=1)

#: The paper's modification: the same kernel reading float2 operands.
MAGMA_MATCHED_TILING = GemmTiling(bm=64, bn=64, bk=16, tm=4, tn=4, n=2)

#: A Kepler-tuned stand-in for cuBLAS: bigger register tile, matched reads.
CUBLAS_KEPLER_TILING = GemmTiling(bm=128, bn=64, bk=8, tm=8, tn=4, n=2)


class TiledGemmKernel(Priced):
    """Register-blocked shared-memory GEMM: functional + traced cost."""

    def __init__(
        self,
        tiling: GemmTiling,
        arch: GPUArchitecture = KEPLER_K40M,
        name: Optional[str] = None,
        bank_policy: BankConflictPolicy = BankConflictPolicy.WORD_MERGE,
    ):
        self.tiling = tiling
        self.arch = arch
        self.bank_policy = bank_policy
        self.name = name or "gemm[%dx%dx%d,n=%d]" % (
            tiling.bm, tiling.bn, tiling.bk, tiling.n,
        )

    # ------------------------------------------------------------------
    def launch_config(self, shape: GemmShape) -> LaunchConfig:
        t = self.tiling
        grid_x = math.ceil(shape.m / t.bm)
        grid_y = math.ceil(shape.n / t.bn)
        # Real kernels spill to local memory rather than exceed the ISA
        # register limit; clamp the estimate the same way.
        regs = min(t.registers_per_thread(), self.arch.max_registers_per_thread)
        return LaunchConfig(
            grid=Dim3(x=grid_x, y=grid_y),
            block=Dim3(x=t.threads_x, y=t.threads_y),
            registers_per_thread=regs,
            smem_per_block=t.smem_bytes(),
        )

    # ------------------------------------------------------------------
    def run(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Block-tiled matrix product (exact float32 accumulation order
        of the BK-panel loop)."""
        a = np.asarray(a, dtype=np.float32)
        b = np.asarray(b, dtype=np.float32)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError("incompatible GEMM operands %s, %s" % (a.shape, b.shape))
        shape = GemmShape(m=a.shape[0], n=b.shape[1], k=a.shape[1])
        t = self.tiling
        out = np.zeros((shape.m, shape.n), dtype=np.float32)
        for i0 in range(0, shape.m, t.bm):
            i1 = min(i0 + t.bm, shape.m)
            for j0 in range(0, shape.n, t.bn):
                j1 = min(j0 + t.bn, shape.n)
                acc = np.zeros((i1 - i0, j1 - j0), dtype=np.float32)
                for k0 in range(0, shape.k, t.bk):
                    k1 = min(k0 + t.bk, shape.k)
                    acc += a[i0:i1, k0:k1] @ b[k0:k1, j0:j1]
                out[i0:i1, j0:j1] = acc
        return out

    # ------------------------------------------------------------------
    def floor(self, shape: GemmShape) -> KernelCost:
        """:meth:`cost` without its memory traffic: the same launch,
        FLOPs, barriers and prefetch flag over an otherwise empty
        ledger (docs/SIMULATOR.md, "Floors and the bounded search")."""
        return self._floor(shape, TrafficLedger(
            gmem_segment_size=self.arch.gmem_transaction_size))

    def _floor(self, shape: GemmShape, ledger: TrafficLedger) -> KernelCost:
        """The floor of ``shape``, written to ``ledger``."""
        launch = self.launch_config(shape)
        tile_floor(ledger, self.tiling, math.ceil(shape.k / self.tiling.bk),
                   float(launch.total_blocks))
        return KernelCost(name=self.name, launch=launch, ledger=ledger,
                          software_prefetch=True)

    def cost(self, shape: GemmShape) -> KernelCost:
        """The floor plus every access site's traffic."""
        t = self.tiling
        arch = self.arch
        tracer = KernelTracer(arch, self.bank_policy)
        cost = self._floor(shape, tracer.ledger)
        blocks = float(cost.launch.total_blocks)
        ksteps = math.ceil(shape.k / t.bk)
        warp_lanes = arch.warp_size
        unit = t.n * _F32

        # --- global loads of the A and B panels (wide, cooperative) -------
        # A is re-read by every block along the N grid axis and B along
        # the M axis; the L2 absorbs the repeats when the slab fits.
        grid_x = math.ceil(shape.m / t.bm)
        grid_y = math.ceil(shape.n / t.bn)
        self._trace_panel_load(tracer, t.bm, t.bk, shape.k, ksteps * blocks,
                               site="gm.load_a",
                               l2_reuse=cross_block_reuse(
                                   arch, shape.m * shape.k * _F32, grid_y))
        self._trace_panel_load(tracer, t.bk, t.bn, shape.n, ksteps * blocks,
                               site="gm.load_b",
                               l2_reuse=cross_block_reuse(
                                   arch, shape.k * shape.n * _F32, grid_x))

        trace_tile_rounds(tracer, t, ksteps, blocks)

        # --- writeback: rows of BN contiguous floats -------------------------
        wb_rows = t.bm
        run_units = t.bn // t.n
        per_warp_rows = max(1, arch.warp_size // run_units)
        reqs = wb_rows * run_units / arch.warp_size
        tracer.gmem_write_prepared(
            lane_batch(min(warp_lanes, run_units * per_warp_rows), unit,
                       tracer.gmem_batch_mod(unit), 0, run_units,
                       shape.n * _F32),
            unit, scale=reqs * blocks, site="gm.store_c")

        cost.launch.validate(arch)
        return cost

    def _trace_panel_load(self, tracer, rows, cols, pitch_elems, count, site,
                          l2_reuse=1.0):
        """Cooperative wide loads of a rows x cols panel with row pitch
        ``pitch_elems`` floats; lanes cover consecutive (row, col) pairs.
        The load width is the widest vector the row pitch keeps aligned
        (misaligned pitches force narrower loads, as on hardware)."""
        width = _panel_load_width(cols, pitch_elems)
        run_units = max(1, cols * _F32 // width)
        total_units = rows * run_units
        reqs = total_units / self.arch.warp_size
        tracer.gmem_read_prepared(
            lane_batch(self.arch.warp_size, width,
                       tracer.gmem_batch_mod(width), 0, run_units,
                       pitch_elems * _F32),
            width, scale=reqs * count, site=site, l2_reuse=l2_reuse)

    def time_ms(self, shape: GemmShape) -> float:
        """Predicted execution time in milliseconds (Fig. 2's y-axis)."""
        return self.predict(shape).total * 1e3


def tile_floor(ledger: TrafficLedger, t: GemmTiling, ksteps: int,
               blocks: float) -> None:
    """The compute and barriers of ``ksteps`` BK-panel steps on
    ``blocks`` blocks, written to ``ledger``: the full tile's FMAs
    (padded tiles execute in full) and two barriers per step.  Every
    tiled GEMM's floor; its cost adds :func:`trace_tile_rounds` and the
    global traffic."""
    ledger.flops = 2.0 * t.bm * t.bn * t.bk * ksteps * blocks
    ledger.syncthreads = 2.0 * ksteps * blocks


def trace_tile_rounds(tracer: KernelTracer, t: GemmTiling, ksteps: int,
                      blocks: float) -> None:
    """The shared-memory traffic of ``ksteps`` BK-panel steps on
    ``blocks`` blocks (their FMAs are :func:`tile_floor`'s).

    Every step stages both panels in shared memory (contiguous vector
    writes) and reads the operands once per FMA round.  A is stored
    transposed; the register tiles are unit-interleaved (thread x's
    u-th unit lives at u*TX + x), the standard layout that keeps
    consecutive lanes on consecutive units, and each register unit is
    one warp request.
    """
    warp_lanes = tracer.arch.warp_size
    unit = t.n * _F32
    mod = tracer.smem_batch_mod()

    # --- staging into shared memory --------------------------------------
    panel_units = (t.bm * t.bk + t.bk * t.bn) / (4.0 * warp_lanes)
    tracer.smem_write_prepared(
        lane_batch(warp_lanes, 16, mod), 16,
        scale=panel_units * ksteps * blocks, site="sm.store_panels")

    # --- operand reads per FMA round ---------------------------------------
    warps = math.ceil(t.threads / warp_lanes)
    rounds = float(warps) * t.bk * ksteps * blocks
    tracer.smem_read_prepared(
        lane_batch(warp_lanes, unit, mod, 0, t.threads_x, 0, t.tm // t.n,
                   t.threads_x * unit),
        unit, scale=rounds, site="sm.load_a_col")
    tracer.smem_read_prepared(
        lane_batch(warp_lanes, 0, mod, 0, t.threads_x, unit, t.tn // t.n,
                   t.threads_y * unit),
        unit, scale=rounds, site="sm.load_b_row")


def _panel_load_width(cols: int, pitch_elems: int) -> int:
    """Widest aligned vector load for panel rows of ``cols`` floats."""
    for width in (16, 8, 4):
        if (pitch_elems * _F32) % width == 0 and (cols * _F32) % width == 0:
            return width
    return 4


def magma_fermi_gemm(arch: GPUArchitecture = KEPLER_K40M) -> TiledGemmKernel:
    """MAGMA's Fermi kernel, as run (unmodified) on ``arch``."""
    return TiledGemmKernel(MAGMA_FERMI_TILING, arch, name="MAGMA")


def magma_matched_gemm(arch: GPUArchitecture = KEPLER_K40M) -> TiledGemmKernel:
    """The paper's bank-width-matched MAGMA modification."""
    return TiledGemmKernel(MAGMA_MATCHED_TILING, arch, name="MAGMA mod.")


def cublas_like_gemm(arch: GPUArchitecture = KEPLER_K40M) -> TiledGemmKernel:
    """A Kepler-tuned GEMM standing in for cuBLAS."""
    return TiledGemmKernel(CUBLAS_KEPLER_TILING, arch, name="cuBLAS")
