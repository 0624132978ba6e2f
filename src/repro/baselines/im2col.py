"""Explicit im2col + GEMM convolution (Caffe's default, paper Sec. 1).

Convolution is lowered to one big matrix product by materializing the
``(C*K*K) x (OH*OW)`` im2col matrix in global memory, then invoking a
tuned GEMM.  Good GEMM efficiency, but the lowered matrix costs a
``K * K``-fold memory blow-up and an extra global-memory round trip —
the "huge amount of additional memory" the paper holds against it.

:func:`im2col_matrix` is also the functional substrate for the
cuDNN-like implicit-GEMM baseline (which forms the same matrix, but
tile-by-tile in shared memory).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.baselines.gemm import CUBLAS_KEPLER_TILING, GemmShape, TiledGemmKernel
from repro.conv.tensors import ConvProblem, Padding
from repro.errors import ShapeError
from repro.gpu.arch import GPUArchitecture, KEPLER_K40M
from repro.gpu.memory.banks import BankConflictPolicy
from repro.gpu.simt import Dim3, LaunchConfig
from repro.gpu.timing import Priced
from repro.gpu.trace import KernelCost, KernelTracer, PreparedBatch, lane_batch

__all__ = ["im2col_matrix", "Im2colKernel"]

_F32 = 4


def im2col_matrix(image: np.ndarray, kernel_size: int, stride: int = 1,
                  dilation: int = 1) -> np.ndarray:
    """Lower a (C, H, W) image to the (C*K*K, OH*OW) im2col matrix.

    Row ``(c*K + ky)*K + kx`` holds the input window element ``(ky, kx)``
    of channel ``c`` for every output position, row-major over (oy, ox).
    Strided/dilated lowering samples the same windows the convolution
    taps: window (ky, kx) of output (oy, ox) reads input pixel
    ``(oy*stride + ky*dilation, ox*stride + kx*dilation)``.
    """
    img = np.asarray(image, dtype=np.float32)
    if img.ndim == 2:
        img = img[np.newaxis]
    if img.ndim != 3:
        raise ShapeError("image must be (C, H, W)")
    c, h, w = img.shape
    k = kernel_size
    span = dilation * (k - 1) + 1
    if k < 1 or span > min(h, w):
        raise ShapeError(
            "kernel_size %d (dilated span %d) does not fit image %dx%d"
            % (k, span, h, w))
    oh = (h - span) // stride + 1
    ow = (w - span) // stride + 1
    rows = []
    for ci in range(c):
        for ky in range(k):
            for kx in range(k):
                y0 = ky * dilation
                x0 = kx * dilation
                rows.append(
                    img[ci,
                        y0 : y0 + (oh - 1) * stride + 1 : stride,
                        x0 : x0 + (ow - 1) * stride + 1 : stride].reshape(-1))
    return np.stack(rows)


def gather_batch(tracer: KernelTracer, valid: ConvProblem) -> PreparedBatch:
    """One warp's scalar gather of a lowered row from a (C, H, W) image.

    Consecutive lanes take consecutive output positions, which sit
    ``stride`` pixels apart; runs break at output-row ends, and the next
    output row starts ``stride`` image rows further on.
    """
    s = valid.stride
    return lane_batch(tracer.arch.warp_size, s * _F32,
                      tracer.gmem_batch_mod(_F32), 0,
                      min(valid.out_width, tracer.arch.warp_size),
                      valid.width * s * _F32)


class Im2colKernel(Priced):
    """Caffe-style convolution: explicit lowering pass + blocked GEMM."""

    def __init__(
        self,
        arch: GPUArchitecture = KEPLER_K40M,
        bank_policy: BankConflictPolicy = BankConflictPolicy.WORD_MERGE,
    ):
        self.arch = arch
        self.bank_policy = bank_policy
        self.gemm = TiledGemmKernel(CUBLAS_KEPLER_TILING, arch,
                                    name="im2col.gemm", bank_policy=bank_policy)
        self.name = "im2col+gemm[%s]" % arch.name

    # ------------------------------------------------------------------
    def gemm_shape(self, problem: ConvProblem) -> GemmShape:
        """The per-group GEMM: grouped problems run ``groups`` of these."""
        valid = problem.as_valid()
        k = valid.kernel_size
        return GemmShape(
            m=valid.filters_per_group,
            n=valid.out_height * valid.out_width,
            k=valid.channels_per_group * k * k,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        image: np.ndarray,
        filters: np.ndarray,
        padding: Padding = Padding.VALID,
        problem: Optional[ConvProblem] = None,
    ) -> np.ndarray:
        if problem is None:
            problem = ConvProblem.from_arrays(image, filters, padding)
        padded = problem.padded_image(image)
        flt = problem.check_filters(filters)
        valid = problem.as_valid()
        if valid.groups == 1:
            lowered = im2col_matrix(padded, valid.kernel_size,
                                    valid.stride, valid.dilation)
            a = flt.reshape(valid.filters, -1)
            out = self.gemm.run(a, lowered)
        else:
            cpg, fpg = valid.channels_per_group, valid.filters_per_group
            parts = []
            for g in range(valid.groups):
                lowered = im2col_matrix(
                    padded[g * cpg : (g + 1) * cpg], valid.kernel_size,
                    valid.stride, valid.dilation)
                a = flt[g * fpg : (g + 1) * fpg].reshape(fpg, -1)
                parts.append(self.gemm.run(a, lowered))
            out = np.concatenate(parts, axis=0)
        return problem.layout_output(
            out.reshape(valid.filters, valid.out_height, valid.out_width))

    # ------------------------------------------------------------------
    def floor(self, problem: ConvProblem) -> KernelCost:
        """:meth:`cost` without its memory traffic: the GEMM's launch,
        FLOPs and barriers, the two launches per group and the prefetch
        flag over an otherwise empty ledger (docs/SIMULATOR.md, "Floors
        and the bounded search").  The lowering pass adds only traffic."""
        valid = problem.as_valid()
        return self._pipeline(valid, self.gemm.floor(self.gemm_shape(problem)))

    def _pipeline(self, valid: ConvProblem, gemm_cost: KernelCost) -> KernelCost:
        """The two-launch pipeline around the GEMM's floor or cost.

        The GEMM dominates: report under the GEMM's launch with two
        kernel launches of overhead.  Grouped problems run the identical
        per-group pipeline ``groups`` times: scale the ledger and the
        launch count.
        """
        if valid.groups > 1:
            gemm_cost.ledger.scale(float(valid.groups))
        return KernelCost(
            name=self.name,
            launch=gemm_cost.launch,
            ledger=gemm_cost.ledger,
            software_prefetch=True,
            launches=2 * valid.groups,
        )

    def cost(self, problem: ConvProblem) -> KernelCost:
        """Lowering pass plus GEMM, merged into one two-launch cost."""
        valid = problem.as_valid()
        shape = self.gemm_shape(problem)
        gemm_cost = self.gemm.cost(shape)

        # Lowering kernel: one thread per lowered element; reads gather
        # from the image (contiguous runs of OW, spread by the stride),
        # writes are dense.
        tracer = KernelTracer(self.arch, self.bank_policy)
        total = shape.k * shape.n
        reqs = total / self.arch.warp_size
        tracer.gmem_read_prepared(
            gather_batch(tracer, valid), _F32, scale=reqs,
            site="gm.im2col_gather", l2_reuse=float(valid.kernel_size ** 2))
        tracer.gmem_write_prepared(
            lane_batch(self.arch.warp_size, _F32,
                       tracer.gmem_batch_mod(_F32)),
            _F32, scale=reqs, site="gm.im2col_store")

        threads = 256
        grid = max(1, math.ceil(total / threads))
        lower_launch = LaunchConfig(
            grid=Dim3(x=grid), block=Dim3(x=threads),
            registers_per_thread=20, smem_per_block=0,
        )
        lower_cost = tracer.finish(name="im2col.lower", launch=lower_launch)

        # Merge both launches' traffic into the GEMM's ledger.
        gemm_cost.ledger.merge(lower_cost.ledger)
        return self._pipeline(valid, gemm_cost)
