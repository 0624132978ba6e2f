"""FFT-based convolution (paper Sec. 1, refs [12-14]).

Convolution by the correlation theorem: pad the filters to the image
size, transform, multiply by the conjugate spectrum, accumulate over
channels, inverse-transform.  Reduces arithmetic complexity for large
filters, but — exactly as the paper argues — pays for (i) padding every
``K x K`` filter to ``H x W`` (a large memory and transform-time
overhead) and (ii) needing a large batch to amortize the filter
transforms.  With the paper's batch of one the filter transforms are
paid in full, which is why this method loses to direct convolution for
the small filters evaluated.

The cost model is first-order analytic (standard 5 N log2 N FFT flop
counts plus memory passes) rather than warp-traced: the paper does not
evaluate FFT convolution, and this baseline exists to reproduce the
related-work argument quantitatively.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.conv.tensors import ConvProblem, Padding
from repro.errors import ShapeError
from repro.gpu.arch import GPUArchitecture, KEPLER_K40M
from repro.gpu.simt import Dim3, LaunchConfig
from repro.gpu.timing import Priced
from repro.gpu.trace import KernelCost, TrafficLedger

__all__ = ["FFTConvolution"]

_F32 = 4
_THREADS = 256


def check_transform_axes(problem: ConvProblem) -> None:
    """Transform-domain kernels compute only the paper's default axes."""
    if not problem.has_default_axes:
        raise ShapeError(
            "transform-domain kernels handle only default axes "
            "(stride=1, dilation=1, groups=1, NCHW), got %s"
            % problem.describe())


class FFTConvolution(Priced):
    """Frequency-domain convolution with padded-filter accounting."""

    def __init__(self, arch: GPUArchitecture = KEPLER_K40M):
        self.arch = arch
        self.name = "fft-conv[%s]" % arch.name

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
        padded = problem.padded_image(image)
        flt = problem.check_filters(filters)
        valid = problem.as_valid()
        h, w = valid.height, valid.width
        oh, ow = valid.out_height, valid.out_width

        # Filters padded to the image extent — the overhead the paper
        # cites against FFT convolution.
        img_hat = np.fft.rfft2(padded, s=(h, w))
        flt_hat = np.fft.rfft2(flt, s=(h, w))
        # Correlation theorem: multiply by the conjugate filter spectrum.
        prod = np.einsum("chw,fchw->fhw", img_hat, np.conj(flt_hat))
        full = np.fft.irfft2(prod, s=(h, w))
        return full[:, :oh, :ow].astype(np.float32)

    # ------------------------------------------------------------------
    def flop_count(self, problem: ConvProblem, batch: int = 1) -> float:
        """Analytic FFT-method flops: transforms + pointwise products.

        With ``batch`` images the filter transforms are paid once — the
        amortization the paper says FFT convolution depends on.
        """
        valid = problem.as_valid()
        n = valid.height * valid.width
        fft_one = 2.5 * n * math.log2(max(n, 2))  # real transform ~ half of 5NlogN
        transforms = (
            valid.channels * batch                  # image transforms
            + valid.filters * valid.channels        # filter transforms, once
            + valid.filters * batch                 # inverse transforms
        )
        bins = valid.height * (valid.width // 2 + 1)
        pointwise = 8.0 * valid.channels * valid.filters * bins * batch
        return transforms * fft_one + pointwise

    def floor(self, problem: ConvProblem) -> KernelCost:
        """:meth:`cost` without its memory traffic: the same launch,
        FLOPs and launch count over an otherwise empty ledger
        (docs/SIMULATOR.md, "Floors and the bounded search")."""
        return self._floor(problem, 1)

    def _floor(self, problem: ConvProblem, batch: int) -> KernelCost:
        """The floor of ``batch`` images, on a fresh ledger."""
        valid = problem.as_valid()
        ledger = TrafficLedger(gmem_segment_size=self.arch.gmem_transaction_size)
        ledger.flops = self.flop_count(problem, batch)
        total_work = valid.filters * valid.out_height * valid.out_width * batch
        launch = LaunchConfig(
            grid=Dim3(x=max(1, math.ceil(total_work / _THREADS))),
            block=Dim3(x=_THREADS),
            registers_per_thread=32,
            smem_per_block=4096,
        )
        launches = 3 + int(math.ceil(math.log2(max(valid.channels, 2))))
        return KernelCost(name=self.name, launch=launch, ledger=ledger,
                          launches=launches)

    def cost(self, problem: ConvProblem) -> KernelCost:
        return self.batched_cost(problem, 1)

    def batched_cost(self, problem: ConvProblem, batch: int) -> KernelCost:
        """The floor plus the transforms' memory passes."""
        valid = problem.as_valid()
        cost = self._floor(problem, batch)
        ledger = cost.ledger

        bins = valid.height * (valid.width // 2 + 1)
        spectra = (
            valid.channels * batch
            + valid.filters * valid.channels
            + valid.filters * batch
        )
        # Each transform makes roughly log-radix passes; charge two
        # read+write passes per array as a generous lower bound.
        pass_bytes = spectra * bins * 8 * 2 * 2
        ledger.gmem_read_bytes_moved = pass_bytes / 2 + valid.image_bytes * batch
        ledger.gmem_read_request_bytes = ledger.gmem_read_bytes_moved
        ledger.gmem_write_bytes_moved = pass_bytes / 2 + valid.output_bytes * batch
        ledger.gmem_write_request_bytes = ledger.gmem_write_bytes_moved
        return cost
