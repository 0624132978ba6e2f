"""Naive direct convolution: one thread per output pixel.

The strawman every optimized kernel is implicitly measured against: no
shared-memory staging, no register blocking — each thread walks the
``K x K x C`` window reading the image and the filter straight from
global memory.  Warp-adjacent threads cover adjacent output columns, so
individual tap reads are coalesced, but nothing is ever reused on chip:
the image is re-read ``K * K * F`` times and the filters ``OH * OW``
times, which is exactly the data-sharing headroom Fig. 3b of the paper
illustrates.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.conv.reference import conv2d_reference
from repro.conv.tensors import ConvProblem, Layout, Padding
from repro.gpu.arch import GPUArchitecture, KEPLER_K40M
from repro.gpu.simt import Dim3, LaunchConfig
from repro.gpu.timing import Priced
from repro.gpu.trace import (
    KernelCost,
    KernelTracer,
    cross_block_reuse,
    lane_batch,
)

__all__ = ["NaiveDirectKernel"]

_F32 = 4
_THREADS = 256


class NaiveDirectKernel(Priced):
    """One-thread-per-output direct convolution (no on-chip reuse)."""

    def __init__(self, arch: GPUArchitecture = KEPLER_K40M):
        self.arch = arch
        self.name = "naive-direct[%s]" % arch.name

    # ------------------------------------------------------------------
    def run(
        self,
        image: np.ndarray,
        filters: np.ndarray,
        padding: Padding = Padding.VALID,
        problem: Optional[ConvProblem] = None,
    ) -> np.ndarray:
        """The per-thread loop nest collapses to the reference result."""
        return conv2d_reference(image, filters, padding, problem=problem)

    def launch_config(self, problem: ConvProblem) -> LaunchConfig:
        valid = problem.as_valid()
        outputs = valid.filters * valid.out_height * valid.out_width
        return LaunchConfig(
            grid=Dim3(x=max(1, math.ceil(outputs / _THREADS))),
            block=Dim3(x=_THREADS),
            registers_per_thread=28,
            smem_per_block=0,
        )

    # ------------------------------------------------------------------
    def cost(self, problem: ConvProblem) -> KernelCost:
        valid = problem.as_valid()
        k = valid.kernel_size
        launch = self.launch_config(problem)
        arch = self.arch
        tracer = KernelTracer(arch)
        warp_lanes = arch.warp_size
        mod = tracer.gmem_batch_mod(_F32)

        outputs = valid.filters * valid.out_height * valid.out_width
        warp_count = outputs / arch.warp_size
        taps = k * k * valid.channels_per_group

        # Image taps: a warp covers contiguous output columns (runs break
        # at output-row ends), so each tap is one mostly-coalesced read.
        # Strided outputs spread the lane addresses by the stride; NHWC
        # images spread them further by the channel count (channels are
        # innermost, so the per-tap channel walk is contiguous instead).
        s = valid.stride
        x_step = s * _F32
        row_step = valid.width * s * _F32
        if valid.layout is Layout.NHWC:
            x_step *= valid.channels
            row_step *= valid.channels
        run = min(valid.out_width, arch.warp_size)
        # Neighbouring taps and the F output maps re-read the same lines;
        # the L2 catches the K*K-window repeats (the F-fold repeats are
        # spread too far apart in time to credit).
        tracer.gmem_read_prepared(
            lane_batch(warp_lanes, x_step, mod, 0, run, row_step), _F32,
            scale=warp_count * taps, site="gm.image_tap",
            l2_reuse=float(k * k))

        # Filter taps: all lanes of a warp share (f, c, ky, kx) — one
        # address, one transaction, but issued for every tap of every warp.
        flt_slab = valid.filters * taps * _F32
        tracer.gmem_read_prepared(
            lane_batch(warp_lanes, 0, mod), _F32,
            scale=warp_count * taps, site="gm.filter_tap",
            l2_reuse=cross_block_reuse(arch, flt_slab, warp_count,
                                       cap=1024.0))

        tracer.flops(2.0 * taps * outputs)

        out_run = min(valid.out_width, arch.warp_size)
        out_x = _F32
        out_row = valid.out_width * _F32
        if valid.layout is Layout.NHWC:
            out_x *= valid.filters
            out_row *= valid.filters
        tracer.gmem_write_prepared(
            lane_batch(warp_lanes, out_x, mod, 0, out_run, out_row), _F32,
            scale=warp_count, site="gm.store_out")

        return tracer.finish(name=self.name, launch=launch)
