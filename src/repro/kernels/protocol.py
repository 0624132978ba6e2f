"""The ``ConvBackend`` protocol: one uniform surface per convolution
method.

The paper's evaluation is a *backend comparison* — its two kernels
against GEMM-, im2col- and cuDNN-style baselines — and every layer of
this repository (serving dispatch, design-space exploration, the figure
drivers, the CLI) ultimately asks the same five questions of a
convolution method:

* *can you handle this problem on this device?*  (:meth:`ConvBackend.supports`)
* *how should you be configured for it?*          (:meth:`ConvBackend.configure`)
* *give me an executable kernel.*                 (:meth:`ConvBackend.build`)
* *what does it cost?*                            (the built kernel's ``predict``)
* *run it.*                                       (:meth:`ConvBackend.run`)

A backend is a lightweight, stateless *factory* over one of the kernel
classes (``SpecialCaseKernel``, ``Im2colKernel``, ...): ``build``
instantiates the kernel for an architecture and an optional tuned
configuration, and :meth:`ConvBackend.run` delegates to a fresh build.
Backends carry no per-problem state, so one instance can serve every
architecture and every shape concurrently.

``supports`` is a *capability* predicate: it must be exactly as strong
as ``build`` — a backend admitted for a problem must construct without
raising (the registry parity suite enforces this).  The architecture's
shared-memory / register / thread budgets are checked where a launch is
priced: every floor and price validates its launch, so a paper kernel
is admitted only when its search finds a candidate within them, and any
other backend over them raises when it is priced.
:meth:`ConvBackend.admit` answers the first two questions in one pass,
``(ok, config, breakdown)``, so a backend whose feasibility *is* its
configuration search (the paper kernels) searches once per admission,
and a search that priced its winner hands that price back.  Under a
time limit, a backend that can prove it takes longer (by its search or
by its kernel's compute-only floor) is left out unpriced.

Since the problem model grew stride / dilation / groups / layout axes,
every backend also declares which of those generalized axes it serves
via the :attr:`ConvBackend.AXES` class attribute; ``supports`` chains
the :meth:`axes_ok` gate in front of capability and configuration so a
backend written for the classic default axes never sees a strided,
dilated, grouped or NHWC problem.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional, Tuple

import numpy as np

from repro.conv.tensors import ConvProblem, Padding
from repro.errors import ReproError, SearchBounded
from repro.gpu.arch import GPUArchitecture, KEPLER_K40M
from repro.gpu.timing import TimingBreakdown, TimingModel, below_every_price

__all__ = ["ConvBackend", "BOUNDED"]

#: The configuration :meth:`ConvBackend.configure` answers when it
#: proved that the backend takes longer than the limit (its search, or
#: its kernel's floor); :meth:`ConvBackend.admit` raises
#: :class:`~repro.errors.SearchBounded` for it.
BOUNDED = "bounded"


class ConvBackend(ABC):
    """One convolution method, viewed uniformly by every consumer layer.

    Subclasses must set :attr:`name` (the registry key) and implement
    :meth:`build`; the capability predicate, the DSE hook and the
    execution convenience have safe defaults.
    """

    #: Registry key and dispatch label (``"special"``, ``"im2col"``, ...).
    name: str = ""

    #: Generalized-axis support: which problem axes beyond the classic
    #: defaults (stride=1, dilation=1, groups=1, NCHW) this backend
    #: serves.  ``stride`` / ``dilation`` are booleans; ``groups`` is
    #: ``"single"`` (ungrouped only), ``"depthwise"`` (groups ==
    #: channels) or ``"any"``; ``layouts`` lists accepted
    #: :class:`~repro.conv.tensors.Layout` values.  The conservative
    #: default declares exactly the pre-generalization contract.
    AXES = {
        "stride": False,
        "dilation": False,
        "groups": "single",
        "layouts": ("nchw",),
    }

    # ------------------------------------------------------------------
    # Capability
    # ------------------------------------------------------------------
    def supports(self, problem: ConvProblem,
                 arch: GPUArchitecture = KEPLER_K40M) -> bool:
        """Whether this backend can serve ``problem`` on ``arch``.

        ``supports() is True`` guarantees :meth:`build` succeeds for the
        same ``(problem, arch)`` pair.  It is the verdict half of
        :meth:`admit`.
        """
        return self.admit(problem, arch)[0]

    def admit(self, problem: ConvProblem,
              arch: GPUArchitecture = KEPLER_K40M,
              limit: float = math.inf,
              ) -> Tuple[bool, Optional[object], Optional[TimingBreakdown]]:
        """Admission and configuration in one pass: ``(ok, config,
        breakdown)``.

        The default chains the axis gate (:meth:`axes_ok`) with the
        cheap structural test (:meth:`capability`), then asks an
        admitted backend for its :meth:`configure` answer; a filtered
        backend answers ``(False, None, None)``.  Resource budgets need
        no gate of their own: every floor and price validates its launch
        (``LaunchConfig.validate``), so a launch over the architecture's
        budgets raises when the backend is priced.  A
        :class:`~repro.errors.ReproError` raised by ``configure``
        propagates.

        ``limit`` is the time (seconds) a backend must come in at or
        under to matter to the caller.  ``configure`` bounds its work
        with it, and a backend it proves slower raises
        :class:`~repro.errors.SearchBounded`, as every backend does,
        unconfigured, under a limit at or below zero; a NaN limit raises
        :class:`~repro.errors.ConfigurationError`.
        """
        if not self._gates_ok(problem, arch):
            return False, None, None
        return (True,) + self._configured(problem, arch, limit)

    def _configured(self, problem: ConvProblem, arch: GPUArchitecture,
                    limit: float) -> Tuple[Optional[object],
                                           Optional[TimingBreakdown]]:
        """:meth:`configure`'s answer, or
        :class:`~repro.errors.SearchBounded` when it is :data:`BOUNDED`
        or, without asking, when ``limit`` lies below every price
        (:func:`~repro.gpu.timing.below_every_price`, which raises
        :class:`~repro.errors.ConfigurationError` for a NaN limit)."""
        if below_every_price(limit):
            config, breakdown = BOUNDED, None
        else:
            config, breakdown = self.configure(problem, arch, limit)
        if config is BOUNDED:
            raise SearchBounded(
                "the %s backend takes longer than %r s for %r on %s"
                % (self.name, limit, problem, arch.name))
        return config, breakdown

    def _gates_ok(self, problem: ConvProblem, arch: GPUArchitecture) -> bool:
        """The cheap gates: a valid problem inside :attr:`AXES` that
        :meth:`capability` accepts."""
        try:
            problem.as_valid()
        except ReproError:
            return False
        return self.axes_ok(problem) and self.capability(problem, arch)

    def axes_ok(self, problem: ConvProblem) -> bool:
        """Whether ``problem``'s generalized axes fall inside
        :attr:`AXES`.  Default-axis problems always pass."""
        axes = self.AXES
        if problem.stride != 1 and not axes.get("stride", False):
            return False
        if problem.dilation != 1 and not axes.get("dilation", False):
            return False
        if problem.groups != 1:
            grouping = axes.get("groups", "single")
            if grouping == "single":
                return False
            if (grouping == "depthwise"
                    and problem.groups != problem.channels):
                return False
        return problem.layout.value in axes.get("layouts", ("nchw",))

    def capability(self, problem: ConvProblem,
                   arch: GPUArchitecture) -> bool:
        """Cheap structural predicate (channel counts, filter sizes...).

        Default: every valid problem is structurally acceptable.
        """
        return True

    # ------------------------------------------------------------------
    # Configuration (the DSE hook)
    # ------------------------------------------------------------------
    def configure(self, problem: ConvProblem,
                  arch: GPUArchitecture = KEPLER_K40M,
                  limit: float = math.inf,
                  ) -> Tuple[Optional[object], Optional[TimingBreakdown]]:
        """``(config, breakdown)``: the tuned configuration for
        ``problem`` on ``arch``, and its breakdown when finding it priced
        it (``None`` otherwise).

        A ``None`` config means "no tunable configuration": either the
        backend has none (the baselines) or the search found no valid
        candidate.  The paper kernels override this with the
        design-space explorer, bounded by ``limit``.  The config is
        :data:`BOUNDED` when the backend is proved to take longer than
        ``limit`` seconds: here, when the default kernel's compute-only
        ``floor`` does (docs/SIMULATOR.md, "Floors and the bounded
        search").  A kernel without a floor (the naive fallback, always
        priced) is never bounded, nor one whose floor raises: its
        ``predict`` raises alike.
        """
        if limit < math.inf:
            floor = getattr(self.build(problem, arch), "floor", None)
            try:
                slower = floor is not None and TimingModel(arch).evaluate(
                    floor(problem)).total > limit
            except ReproError:
                slower = False
            if slower:
                return BOUNDED, None
        return None, None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @abstractmethod
    def build(self, problem: Optional[ConvProblem],
              arch: GPUArchitecture = KEPLER_K40M,
              config: Optional[object] = None, **kwargs):
        """Instantiate the kernel for ``arch`` (and ``config`` if given).

        ``problem`` may be ``None``: kernels are problem-independent
        objects, and the argument exists so configuration-sensitive
        backends can specialize.  Extra ``kwargs`` pass through to the
        kernel constructor (``matched=False``, ``bank_policy=...``,
        ``dtype=...`` — the ablation knobs the bench layer turns).
        """

    # ------------------------------------------------------------------
    # Execution convenience
    # ------------------------------------------------------------------
    def run(self, image: np.ndarray, filters: np.ndarray,
            padding: Padding = Padding.VALID,
            arch: GPUArchitecture = KEPLER_K40M,
            config: Optional[object] = None,
            problem: Optional[ConvProblem] = None) -> np.ndarray:
        """Build and functionally execute in one call.

        Pass ``problem`` for non-default axes (stride, dilation, groups,
        NHWC) — without it the kernel infers a default-axis problem from
        the array shapes, as before.
        """
        if problem is not None:
            padding = problem.padding
        return self.build(problem, arch, config).run(
            image, filters, padding, problem=problem)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return "<%s name=%r>" % (type(self).__name__, self.name)
