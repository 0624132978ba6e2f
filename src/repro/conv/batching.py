"""Minibatch execution on top of the single-image kernels.

The paper's evaluation is parameterized per image, but its related-work
argument against FFT convolution is a *batch* argument: "in order to
reuse the Fourier transform of the filters, the batch size should be
big enough" (Sec. 1).  This module adds the batch dimension:

* :class:`BatchedKernel` wraps any kernel object.  Functionally it maps
  over the batch; for the cost model it scales the traced ledger by the
  batch size and widens the grid's z dimension (one image per z slice,
  exactly how a CUDA port would batch), so occupancy and wave effects
  are modeled for the *batched* launch.  Per-batch-constant traffic can
  be declared by the wrapped kernel through an optional
  ``batched_cost(problem, batch)`` method — which
  :class:`~repro.baselines.fft_conv.FFTConvolution` implements to pay
  its filter transforms once.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.conv.tensors import ConvProblem, Padding
from repro.errors import ConfigurationError, ShapeError
from repro.gpu.simt import Dim3
from repro.gpu.timing import Priced
from repro.gpu.trace import KernelCost

__all__ = ["BatchedKernel"]


class BatchedKernel(Priced):
    """Run a single-image kernel over a minibatch."""

    def __init__(self, kernel, batch: int):
        if batch < 1:
            raise ConfigurationError("batch must be positive, got %r" % batch)
        self.kernel = kernel
        self.batch = batch
        self.arch = kernel.arch
        self.name = "%s x batch %d" % (kernel.name, batch)

    # ------------------------------------------------------------------
    def run(
        self,
        images: np.ndarray,
        filters: np.ndarray,
        padding: Padding = Padding.VALID,
    ) -> np.ndarray:
        """Convolve ``(B, C, H, W)`` images; returns ``(B, F, OH, OW)``."""
        arr = np.asarray(images, dtype=np.float32)
        if arr.ndim == 3:
            arr = arr[:, np.newaxis]   # (B, H, W) -> single channel
        if arr.ndim != 4:
            raise ShapeError("batched images must be (B, C, H, W)")
        if arr.shape[0] != self.batch:
            raise ShapeError(
                "expected batch of %d images, got %d" % (self.batch, arr.shape[0])
            )
        outputs = [self.kernel.run(img, filters, padding) for img in arr]
        return np.stack(outputs)

    # ------------------------------------------------------------------
    def cost(self, problem: ConvProblem) -> KernelCost:
        batched = getattr(self.kernel, "batched_cost", None)
        if batched is not None:
            return batched(problem, self.batch)
        cost = self.kernel.cost(problem)
        cost.ledger.scale(self.batch)
        launch = dataclasses.replace(
            cost.launch,
            grid=Dim3(cost.launch.grid.x, cost.launch.grid.y,
                      cost.launch.grid.z * self.batch),
        )
        return dataclasses.replace(cost, launch=launch, name=self.name)

    def gflops(self, problem: ConvProblem) -> float:
        """Throughput normalized by the whole batch's nominal flops."""
        return self.predict(problem).gflops(problem.flops * self.batch)
