"""Winograd convolution F(m x m, 3x3), m in {2, 4} (paper Sec. 1,
refs [15, 16]).

The minimal-filtering algorithm of Lavin & Gray: the output is tiled
m x m; each tile needs an (m+2) x (m+2) input patch, and the per-output
multiply count drops by 9 m^2/(m+2)^2 — 2.25x for F(2x2), 4x for
F(4x4) — at the cost of input/output transforms, extra memory for the
transformed filters, numerical headroom (the F(4x4) transform constants
grow), and specialization to the 3x3 filter: the trade-offs the paper
cites for why direct convolution remains the general workhorse.

Functional execution implements the actual transform pipeline
(``V = B^T d B``, ``U = G g G^T``, ``M = sum_c U . V``,
``Y = A^T M A``) and is verified against the reference convolution; the
cost model is analytic like the FFT baseline's.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.baselines.fft_conv import check_transform_axes
from repro.conv.tensors import ConvProblem, Padding
from repro.errors import ConfigurationError
from repro.gpu.arch import GPUArchitecture, KEPLER_K40M
from repro.gpu.simt import Dim3, LaunchConfig
from repro.gpu.timing import Priced
from repro.gpu.trace import KernelCost, TrafficLedger

__all__ = ["WinogradConvolution"]

_THREADS = 256

# F(2x2, 3x3) transform matrices (Lavin & Gray, CVPR 2016).
_BT2 = np.array(
    [[1, 0, -1, 0],
     [0, 1, 1, 0],
     [0, -1, 1, 0],
     [0, 1, 0, -1]], dtype=np.float32)
_G2 = np.array(
    [[1, 0, 0],
     [0.5, 0.5, 0.5],
     [0.5, -0.5, 0.5],
     [0, 0, 1]], dtype=np.float32)
_AT2 = np.array(
    [[1, 1, 1, 0],
     [0, 1, -1, -1]], dtype=np.float32)

# F(4x4, 3x3) transform matrices (Lavin & Gray, CVPR 2016).
_BT4 = np.array(
    [[4, 0, -5, 0, 1, 0],
     [0, -4, -4, 1, 1, 0],
     [0, 4, -4, -1, 1, 0],
     [0, -2, -1, 2, 1, 0],
     [0, 2, -1, -2, 1, 0],
     [0, 4, 0, -5, 0, 1]], dtype=np.float32)
_G4 = np.array(
    [[1 / 4, 0, 0],
     [-1 / 6, -1 / 6, -1 / 6],
     [-1 / 6, 1 / 6, -1 / 6],
     [1 / 24, 1 / 12, 1 / 6],
     [1 / 24, -1 / 12, 1 / 6],
     [0, 0, 1]], dtype=np.float32)
_AT4 = np.array(
    [[1, 1, 1, 1, 1, 0],
     [0, 1, -1, 2, -2, 0],
     [0, 1, 1, 4, 4, 0],
     [0, 1, -1, 8, -8, 1]], dtype=np.float32)

_TRANSFORMS = {2: (_BT2, _G2, _AT2), 4: (_BT4, _G4, _AT4)}


class WinogradConvolution(Priced):
    """F(m x m, 3x3) minimal-filtering convolution, m in {2, 4}."""

    def __init__(self, arch: GPUArchitecture = KEPLER_K40M, tile: int = 2):
        if tile not in _TRANSFORMS:
            raise ConfigurationError("tile must be 2 or 4, got %r" % tile)
        self.arch = arch
        self.tile = tile            # m: output tile extent
        self.patch = tile + 2       # input patch extent (m + r - 1)
        self._bt, self._g, self._at = _TRANSFORMS[tile]
        self.name = "winograd-f%dx%d[%s]" % (tile, tile, arch.name)

    # ------------------------------------------------------------------
    def run(
        self,
        image: np.ndarray,
        filters: np.ndarray,
        padding: Padding = Padding.VALID,
        problem: "Optional[ConvProblem]" = None,
    ) -> np.ndarray:
        if problem is None:
            problem = ConvProblem.from_arrays(image, filters, padding)
        check_transform_axes(problem)
        if problem.kernel_size != 3:
            raise ConfigurationError(
                "F(%dx%d, 3x3) is specialized to 3x3 filters"
                % (self.tile, self.tile))
        flt = problem.check_filters(filters)
        padded = problem.padded_image(image)
        valid = problem.as_valid()
        oh, ow = valid.out_height, valid.out_width

        # Round the output up to whole m x m tiles (zero-pad the input).
        m, t = self.tile, self.patch
        th, tw = math.ceil(oh / m), math.ceil(ow / m)
        need_h, need_w = m * th + 2, m * tw + 2
        work = np.zeros((valid.channels, need_h, need_w), dtype=np.float32)
        work[:, : padded.shape[1], : padded.shape[2]] = padded

        # U = G g G^T for every (f, c).
        u = np.einsum("ij,fcjk,lk->fcil", self._g, flt, self._g)

        # V = B^T d B for every tile and channel: gather the t x t patches.
        patches = np.empty((valid.channels, th, tw, t, t), dtype=np.float32)
        for ty in range(t):
            for tx in range(t):
                patches[:, :, :, ty, tx] = work[
                    :, ty : ty + m * th : m, tx : tx + m * tw : m
                ]
        v = np.einsum("ij,cabjk,lk->cabil", self._bt, patches, self._bt)

        # M = sum_c U .* V ; Y = A^T M A.
        mm = np.einsum("fcil,cabil->fabil", u, v)
        y = np.einsum("ij,fabjk,lk->fabil", self._at, mm, self._at)

        out = np.empty((valid.filters, m * th, m * tw), dtype=np.float32)
        for ty in range(m):
            for tx in range(m):
                out[:, ty::m, tx::m] = y[:, :, :, ty, tx]
        return out[:, :oh, :ow]

    # ------------------------------------------------------------------
    def flop_count(self, problem: ConvProblem) -> float:
        """Analytic flops: elementwise products + all three transforms."""
        valid = problem.as_valid()
        if valid.kernel_size != 3:
            raise ConfigurationError(
                "F(%dx%d, 3x3) is specialized to 3x3 filters"
                % (self.tile, self.tile))
        m, t = self.tile, self.patch
        tiles = math.ceil(valid.out_height / m) * math.ceil(valid.out_width / m)
        c, f = valid.channels, valid.filters
        products = 2.0 * t * t * tiles * c * f
        # Two matrix passes per 2-D transform, ~2 flops per element term.
        input_tf = 4.0 * t * t * t * tiles * c
        filter_tf = 4.0 * t * 3 * (3 + t) * f * c
        output_tf = 4.0 * m * t * (t + m) * tiles * f
        return products + input_tf + filter_tf + output_tf

    def transformed_filter_bytes(self, problem: ConvProblem) -> int:
        """The (m+2)^2/9 filter blow-up the paper counts against Winograd."""
        valid = problem.as_valid()
        return valid.filters * valid.channels * self.patch * self.patch * 4

    def floor(self, problem: ConvProblem) -> KernelCost:
        """:meth:`cost` without its memory traffic: the same launch,
        FLOPs and launch count over an otherwise empty ledger
        (docs/SIMULATOR.md, "Floors and the bounded search")."""
        valid = problem.as_valid()
        ledger = TrafficLedger(gmem_segment_size=self.arch.gmem_transaction_size)
        ledger.flops = self.flop_count(problem)
        launch = LaunchConfig(
            grid=Dim3(x=max(1, math.ceil(
                self._tiles(valid) * valid.filters / _THREADS))),
            block=Dim3(x=_THREADS),
            registers_per_thread=48,
            smem_per_block=8192,
        )
        return KernelCost(name=self.name, launch=launch, ledger=ledger, launches=4)

    def _tiles(self, valid: ConvProblem) -> int:
        """Output tiles of m x m."""
        m = self.tile
        return math.ceil(valid.out_height / m) * math.ceil(valid.out_width / m)

    def cost(self, problem: ConvProblem) -> KernelCost:
        """The floor plus the transforms' memory traffic."""
        valid = problem.as_valid()
        cost = self.floor(problem)
        ledger = cost.ledger

        t = self.patch
        tiles = self._tiles(valid)
        v_bytes = valid.channels * tiles * t * t * 4
        m_bytes = valid.filters * tiles * t * t * 4
        reads = valid.image_bytes + self.transformed_filter_bytes(problem) + v_bytes + m_bytes
        writes = v_bytes + m_bytes + valid.output_bytes
        ledger.gmem_read_bytes_moved = ledger.gmem_read_request_bytes = float(reads)
        ledger.gmem_write_bytes_moved = ledger.gmem_write_request_bytes = float(writes)
        return cost
