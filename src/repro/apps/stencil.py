"""Iterative Jacobi stencils on the paper's special-case kernel.

The paper closes by noting its bank-width model and kernel designs
"can be applied to other applications and architectures" (Sec. 6).
Stencil relaxation is the canonical other application: a 5-point (or
9-point) Jacobi update *is* a single-channel 3x3 convolution with a
fixed filter, applied repeatedly with ping-pong buffers.  This module
maps it onto :class:`~repro.core.special.SpecialCaseKernel`, inheriting
its communication-optimal blocking, constant-memory filter broadcast,
and bank-width-matched accesses — and therefore also the matched vs
unmatched experiment.

Boundary handling is Dirichlet: the border cells hold their initial
values; interior cells average their neighbours each sweep.
"""

from __future__ import annotations

import numpy as np

from repro.conv.tensors import ConvProblem, Padding
from repro.kernels import default_registry
from repro.errors import ConfigurationError, ShapeError
from repro.gpu.arch import GPUArchitecture, KEPLER_K40M
from repro.gpu.timing import TimingBreakdown, TimingModel
from repro.gpu.trace import KernelCost

__all__ = ["JacobiStencil", "FIVE_POINT", "NINE_POINT"]

#: 5-point Laplace relaxation: average of the von Neumann neighbours.
FIVE_POINT = np.array(
    [[0.0, 0.25, 0.0],
     [0.25, 0.0, 0.25],
     [0.0, 0.25, 0.0]], dtype=np.float32)

#: 9-point relaxation: Moore neighbourhood with the classic 4/2/1 weights.
NINE_POINT = np.array(
    [[1.0, 2.0, 1.0],
     [2.0, 0.0, 2.0],
     [1.0, 2.0, 1.0]], dtype=np.float32) / 12.0


class JacobiStencil:
    """Jacobi relaxation driven by the special-case convolution kernel."""

    def __init__(
        self,
        arch: GPUArchitecture = KEPLER_K40M,
        points: int = 5,
        matched: bool = True,
    ):
        if points == 5:
            self.filter = FIVE_POINT
        elif points == 9:
            self.filter = NINE_POINT
        else:
            raise ConfigurationError("points must be 5 or 9, got %r" % points)
        self.points = points
        self.arch = arch
        self.kernel = default_registry().get("special").build(
            None, arch, matched=matched)
        self.name = "jacobi%d[%s,n=%d]" % (points, arch.name, self.kernel.n)

    # ------------------------------------------------------------------
    def run(self, grid: np.ndarray, iterations: int = 1) -> np.ndarray:
        """Relax ``grid`` for ``iterations`` sweeps (Dirichlet borders)."""
        state = np.asarray(grid, dtype=np.float32)
        if state.ndim != 2:
            raise ShapeError("the grid must be 2-D, got %d-D" % state.ndim)
        if iterations < 0:
            raise ConfigurationError("iterations cannot be negative")
        state = state.copy()
        for _ in range(iterations):
            smoothed = self.kernel.run(state, self.filter, padding=Padding.SAME)[0]
            # Dirichlet: interior updates, borders pinned.
            state[1:-1, 1:-1] = smoothed[1:-1, 1:-1]
        return state

    def residual(self, grid: np.ndarray) -> float:
        """Max interior change one further sweep would make."""
        after = self.run(grid, iterations=1)
        return float(np.abs(after - np.asarray(grid, dtype=np.float32)).max())

    # ------------------------------------------------------------------
    def problem(self, height: int, width: int) -> ConvProblem:
        return ConvProblem(height=height, width=width, channels=1, filters=1,
                           kernel_size=3, padding=Padding.SAME)

    def cost(self, height: int, width: int, iterations: int = 1) -> KernelCost:
        """Traced cost of the ping-pong iteration loop."""
        if iterations < 1:
            raise ConfigurationError("iterations must be positive")
        cost = self.kernel.cost(self.problem(height, width))
        # Each sweep is one launch over the same traffic.
        cost.ledger.scale(iterations)
        cost.launches = iterations
        return cost

    def predict(self, height: int, width: int,
                iterations: int = 1) -> TimingBreakdown:
        return TimingModel(self.arch).evaluate(
            self.cost(height, width, iterations))

    def updates_per_second(self, height: int, width: int,
                           iterations: int = 10) -> float:
        """Modeled cell updates per second (the stencil community's GUPS)."""
        t = self.predict(height, width, iterations).total
        return height * width * iterations / t
