"""The built-in backend portfolio: every convolution method in the
repository, wrapped in the :class:`~repro.kernels.protocol.ConvBackend`
protocol and self-registered.

Adding a backend to the system is one registration::

    from repro.kernels import default_registry

    class MyBackend(ConvBackend):
        name = "mine"
        def build(self, problem, arch=KEPLER_K40M, config=None, **kw):
            return MyKernel(arch, **kw)

    default_registry().register(MyBackend())

after which it is servable (``ServeEngine(backends=("mine", ...))``),
listed by ``repro backends``, and admitted to registry-driven sweeps —
no dispatcher, DSE, bench or CLI edits.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.baselines.direct_naive import NaiveDirectKernel
from repro.baselines.fft_conv import FFTConvolution
from repro.baselines.im2col import Im2colKernel
from repro.baselines.implicit_gemm import ImplicitGemmKernel
from repro.baselines.winograd import WinogradConvolution
from repro.conv.tensors import ConvProblem, FLOAT_BYTES
from repro.core.depthwise import DepthwiseKernel
from repro.core.general import GeneralCaseKernel
from repro.core.special import SpecialCaseKernel
from repro.errors import ConfigurationError, ReproError
from repro.gpu.arch import GPUArchitecture, KEPLER_K40M
from repro.gpu.timing import TimingBreakdown
from repro.kernels.protocol import BOUNDED, ConvBackend
from repro.kernels.registry import BackendRegistry

__all__ = [
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


class _TunedBackend(ConvBackend):
    """Shared behavior of the two paper kernels: configurations come
    from the design-space explorer, so feasibility *is* the existence of
    a valid configuration under the architecture's budgets."""

    def _explore(self, problem, arch, limit, full=False):
        """The backend's one search: the bounded winner search
        (:func:`repro.core.dse._rank`) under ``limit`` seconds, which
        :meth:`configure` runs under a plan build's limit and
        :func:`~repro.core.dse.best_config` under ``math.inf``.  ``full``
        searches the whole Table 1 axis space instead of the shipped
        palette (general case only)."""
        raise NotImplementedError

    def configure(self, problem: ConvProblem,
                  arch: GPUArchitecture = KEPLER_K40M,
                  limit: float = math.inf,
                  ) -> Tuple[Optional[object], Optional[TimingBreakdown]]:
        """The bounded winner search's configuration and the breakdown
        that priced it; ``(None, None)`` when no candidate is valid,
        ``(BOUNDED, None)`` when the winner takes longer than ``limit``
        seconds."""
        try:
            winner = self._explore(problem, arch, limit)
        except ConfigurationError:
            return None, None
        if winner is None:
            return BOUNDED, None
        return winner.ranked.config, winner.breakdown

    def admit(self, problem: ConvProblem,
              arch: GPUArchitecture = KEPLER_K40M,
              limit: float = math.inf
              ) -> Tuple[bool, Optional[object], Optional[TimingBreakdown]]:
        # The explorer already enforces the smem/register/thread budgets
        # per candidate, so feasibility is "the search is non-empty" and
        # the one search that decides it also yields the configuration.
        ok, config, breakdown = super().admit(problem, arch, limit)
        return ok and config is not None, config, breakdown


class SpecialBackend(_TunedBackend):
    """The paper's special-case kernel (Sec. 3): single input channel,
    filters broadcast from constant memory."""

    name = "special"
    AXES = {
        "stride": True,
        "dilation": True,
        "groups": "single",
        "layouts": ("nchw", "nhwc"),
    }

    def capability(self, problem: ConvProblem,
                   arch: GPUArchitecture) -> bool:
        if problem.channels != 1:
            return False
        valid = problem.as_valid()
        cm_bytes = valid.filters * valid.kernel_size ** 2 * FLOAT_BYTES
        return cm_bytes <= arch.const_memory_size

    def _explore(self, problem, arch, limit, full=False):
        from repro.core.dse import explore_special

        return explore_special(arch, problem=problem, limit=limit)

    def build(self, problem, arch=KEPLER_K40M, config=None, **kwargs):
        if config is not None:
            kwargs["config"] = config
        return SpecialCaseKernel(arch=arch, **kwargs)


class GeneralBackend(_TunedBackend):
    """The paper's general-case kernel (Sec. 4): arbitrary channels,
    register-tiled with contiguous-row output pixels."""

    name = "general"
    AXES = {
        "stride": True,
        "dilation": True,
        "groups": "single",
        "layouts": ("nchw",),
    }

    def _explore(self, problem, arch, limit, full=False):
        from repro.core.bankwidth import matched_vector
        from repro.core.dse import explore_general
        from repro.core.general import palette

        k = problem.as_valid().kernel_size
        configs = None
        if not full:
            configs = palette(k, matched_vector(arch).n)
        return explore_general(k, arch, problem=problem, configs=configs,
                               limit=limit)

    def build(self, problem, arch=KEPLER_K40M, config=None, **kwargs):
        if config is not None:
            kwargs["config"] = config
        return GeneralCaseKernel(arch=arch, **kwargs)


class DepthwiseBackend(_TunedBackend):
    """Depthwise convolution (``groups == channels``): one special-case
    sweep per channel, batched over grid Z (see
    :class:`~repro.core.depthwise.DepthwiseKernel`)."""

    name = "depthwise"
    AXES = {
        "stride": True,
        "dilation": True,
        "groups": "depthwise",
        "layouts": ("nchw", "nhwc"),
    }

    def capability(self, problem: ConvProblem,
                   arch: GPUArchitecture) -> bool:
        if problem.groups != problem.channels or problem.channels <= 1:
            return False
        valid = problem.as_valid()
        cm_bytes = valid.filters * valid.kernel_size ** 2 * FLOAT_BYTES
        return cm_bytes <= arch.const_memory_size

    def _explore(self, problem, arch, limit, full=False):
        from repro.core.dse import explore_special

        # The search prices the per-group special problem, not the
        # grouped launch this backend is priced at, so a limit on the
        # latter does not bound it: any limit becomes ``math.inf``.
        return explore_special(
            arch, problem=DepthwiseKernel.group_problem(problem),
            limit=math.inf)

    def configure(self, problem, arch=KEPLER_K40M, limit=math.inf):
        # The winner's breakdown prices one group, not the grouped
        # launch, so the caller prices the launch itself.
        return super().configure(problem, arch, limit)[0], None

    def build(self, problem, arch=KEPLER_K40M, config=None, **kwargs):
        if config is not None:
            kwargs["config"] = config
        return DepthwiseKernel(arch=arch, **kwargs)


class Im2colBackend(ConvBackend):
    """Caffe-style explicit lowering + blocked GEMM."""

    name = "im2col"
    AXES = {
        "stride": True,
        "dilation": True,
        "groups": "any",
        "layouts": ("nchw", "nhwc"),
    }

    def build(self, problem, arch=KEPLER_K40M, config=None, **kwargs):
        return Im2colKernel(arch=arch, **kwargs)


class ImplicitGemmBackend(ConvBackend):
    """cuDNN-like implicit GEMM: the paper's comparison kernel."""

    name = "implicit-gemm"
    AXES = {
        "stride": True,
        "dilation": True,
        "groups": "single",
        "layouts": ("nchw",),
    }

    def configure(self, problem, arch=KEPLER_K40M, limit=math.inf):
        """Under a finite ``limit``, the kernel's bounded tile search:
        no config (the built kernel selects its own tile) and the
        winning tile's breakdown, or :data:`BOUNDED` when it takes
        longer than ``limit``.  A search that raises leaves the price
        to the built kernel's ``predict``, which raises alike."""
        if limit < math.inf:
            try:
                winner = self.build(problem, arch).search(problem, limit)
            except ReproError:
                return None, None
            if winner is None:
                return BOUNDED, None
            return None, winner.breakdown
        return None, None

    def build(self, problem, arch=KEPLER_K40M, config=None, **kwargs):
        return ImplicitGemmKernel(arch=arch, **kwargs)


class NaiveBackend(ConvBackend):
    """One-thread-per-output direct convolution — the degradation
    target; it supports every valid problem on every architecture."""

    name = "naive"
    AXES = {
        "stride": True,
        "dilation": True,
        "groups": "any",
        "layouts": ("nchw", "nhwc"),
    }

    def build(self, problem, arch=KEPLER_K40M, config=None, **kwargs):
        return NaiveDirectKernel(arch=arch, **kwargs)


class FFTBackend(ConvBackend):
    """Frequency-domain convolution (paper Sec. 1, refs [12-14])."""

    name = "fft"

    def build(self, problem, arch=KEPLER_K40M, config=None, **kwargs):
        return FFTConvolution(arch=arch, **kwargs)


class WinogradBackend(ConvBackend):
    """Winograd F(m x m, 3x3) minimal filtering — 3x3 filters only."""

    name = "winograd"

    def capability(self, problem: ConvProblem,
                   arch: GPUArchitecture) -> bool:
        return problem.kernel_size == 3

    def build(self, problem, arch=KEPLER_K40M, config=None, **kwargs):
        if config is not None:
            kwargs["tile"] = config
        return WinogradConvolution(arch=arch, **kwargs)


def register_builtin_backends(registry: BackendRegistry) -> BackendRegistry:
    """Register the eight built-in backends, dispatch-priority first.

    The first five names reproduce the serving layer's historical
    routing order (ties in predicted time break toward the first); FFT,
    Winograd and the depthwise specialization join the portfolio after
    the always-on fallback.
    """
    for backend in (
        SpecialBackend(),
        GeneralBackend(),
        Im2colBackend(),
        ImplicitGemmBackend(),
        NaiveBackend(),
        FFTBackend(),
        WinogradBackend(),
        DepthwiseBackend(),
    ):
        registry.register(backend)
    return registry
