"""Applications of the paper's kernels beyond convolution benchmarks —
the "can be applied to other applications" of its conclusion (Sec. 6)."""

from repro.apps.stencil import JacobiStencil

__all__ = ["JacobiStencil"]
