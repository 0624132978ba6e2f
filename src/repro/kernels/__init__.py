"""Unified kernel-backend registry.

``repro.kernels`` gives every convolution method in the repository one
uniform surface — the :class:`~repro.kernels.protocol.ConvBackend`
protocol — and one place to find them all — the process-wide
:func:`default_registry`.  The serving dispatcher, the design-space
explorer, the bench figure drivers and the CLI all enumerate the same
registry, so adding a backend is a single ``register()`` call.
"""

from __future__ import annotations

from typing import Optional

from repro.kernels.backends import (
    DepthwiseBackend,
    FFTBackend,
    GeneralBackend,
    Im2colBackend,
    ImplicitGemmBackend,
    NaiveBackend,
    SpecialBackend,
    WinogradBackend,
    register_builtin_backends,
)
from repro.kernels.protocol import BOUNDED, ConvBackend
from repro.kernels.registry import BackendRegistry

__all__ = [
    "BOUNDED",
    "ConvBackend",
    "BackendRegistry",
    "default_registry",
    "SpecialBackend",
    "GeneralBackend",
    "DepthwiseBackend",
    "Im2colBackend",
    "ImplicitGemmBackend",
    "NaiveBackend",
    "FFTBackend",
    "WinogradBackend",
    "register_builtin_backends",
]

_default: Optional[BackendRegistry] = None


def default_registry() -> BackendRegistry:
    """The process-wide registry, pre-loaded with the eight built-in
    backends (``special``, ``general``, ``im2col``, ``implicit-gemm``,
    ``naive``, ``fft``, ``winograd``, ``depthwise``)."""
    global _default
    if _default is None:
        _default = register_builtin_backends(BackendRegistry())
    return _default
