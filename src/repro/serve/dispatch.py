"""Cost-model-driven backend dispatch.

For each distinct problem shape the dispatcher builds a
:class:`KernelPlan`.  It prices the naive fallback first, then walks the
portfolio in routing order through the kernel-backend registry's
admission step (``registry.admit_one``), whose ``configure`` autotunes
each backend, and branches on the one outcome it answers.  Each
admission is bounded by the lowest price found so far: a backend whose
search, or whose kernel's compute-only floor, proves it takes longer
could not win, so it is left out unpriced (outcome ``bounded``) and
listed in :attr:`KernelPlan.bounded`.  The dispatcher builds every
admitted candidate from its configuration, prices it (a search hands
back its winner's breakdown; the others are predicted with the traced
cost + timing models) and routes to the cheapest.  Plans are memoized
in the :class:`~repro.serve.plan_cache.PlanCache`, so the design-space
exploration is paid once per shape, and once per backend within it.

The dispatcher holds no per-backend knowledge: any backend registered
with :func:`repro.kernels.default_registry` — including FFT and
Winograd — is servable by name.

Execution is one batched :func:`~repro.conv.reference.conv2d_reference`
call per batch, so every served output is bit-identical to the
reference; the plan only prices the batch.

Degradation is graceful at plan time: a backend whose ``configure``,
``build`` or ``predict`` raises is skipped and counted in
``dispatch_backend_rejections_total`` by backend and stage.  The
naive-direct backend is in every portfolio, and a build in which no
backend plans degrades to it (``source="degraded"``).

Transient build failures get a distinct treatment: a plan build
that raises :class:`~repro.errors.TransientBackendError` — a modeled
flaky toolchain/driver hiccup, or an injected ``build-fail`` fault from
an installed chaos plan — is retried up to :data:`PLAN_RETRIES` times
(``dispatch_plan_retries_total`` counts the attempts) before the error
surfaces.  The backoff between attempts is virtual, like every other
latency in the model — retries are counted, not slept.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.conv.reference import conv2d_reference
from repro.conv.tensors import ConvProblem
from repro.errors import ReproError, TransientBackendError
from repro.gpu.arch import GPUArchitecture, KEPLER_K40M
from repro.gpu.timing import TimingBreakdown
from repro.kernels import BackendRegistry, default_registry
from repro.obs.metrics import Registry
from repro.obs.tracing import Tracer
from repro.serve.plan_cache import PlanCache
from repro.serve.request import ConvRequest, plan_key

__all__ = ["KernelPlan", "Dispatcher", "DEFAULT_BACKENDS"]

#: Backend routing order (ties in predicted time break toward the first):
#: every name in the default kernel-backend registry, registration order.
DEFAULT_BACKENDS = default_registry().names()

#: Retries of a plan build that raised a transient backend error.
PLAN_RETRIES = 2


@dataclass
class KernelPlan:
    """The memoized serving decision for one problem shape."""

    problem: ConvProblem
    backend: str
    kernel: object
    breakdown: TimingBreakdown
    config: object = None        # winning DSE config (paper kernels only)
    source: str = "cost-model"   # "cost-model" | "degraded"
    candidates: dict = field(default_factory=dict)  # backend -> predicted s
    bounded: tuple = ()          # proved slower than a cheaper one, unpriced

    @property
    def launch_s(self) -> float:
        """Per-launch overhead — amortized across a batch."""
        return self.breakdown.t_launch

    @property
    def busy_s(self) -> float:
        """Modeled per-request execution time excluding launch overhead."""
        return self.breakdown.total - self.breakdown.t_launch

    def batch_seconds(self, batch_size: int) -> float:
        """Modeled cost of serving ``batch_size`` requests as one launch."""
        return self.launch_s + self.busy_s * batch_size


def _serve_reference(
    problem: ConvProblem, requests: Sequence[ConvRequest]
) -> List[np.ndarray]:
    """Serve a same-shape batch with one batched reference call."""
    if not requests:
        return []
    if any(r.problem != problem for r in requests):
        raise ReproError(
            "reference batch mixes shapes; every request must be %s"
            % problem.describe())
    return list(conv2d_reference(
        np.stack([r.image for r in requests]),
        np.stack([r.filters for r in requests]),
        problem=problem,
    ))


class Dispatcher:
    """Route requests to the cheapest predicted backend."""

    def __init__(
        self,
        arch: GPUArchitecture = KEPLER_K40M,
        cache: Optional[PlanCache] = None,
        backends: Optional[Sequence[str]] = None,
        registry: Optional[Registry] = None,
        tracer: Optional[Tracer] = None,
        kernels: Optional[BackendRegistry] = None,
        chaos=None,
    ):
        self.kernels = kernels if kernels is not None else default_registry()
        if backends is None:
            backends = self.kernels.names()
        unknown = set(backends) - set(self.kernels.names())
        if unknown:
            raise ReproError(
                "unknown backends %s; registered backends: %s"
                % (sorted(unknown), ", ".join(sorted(self.kernels.names()))))
        self.arch = arch
        self.registry = registry if registry is not None else Registry()
        self.cache = cache if cache is not None else PlanCache(
            registry=self.registry)
        self.tracer = tracer
        self._planned = self.registry.counter(
            "dispatch_plans_built_total",
            "Plans built from scratch, by winning backend",
            labelnames=("backend",))
        self._executions = self.registry.counter(
            "dispatch_executions_total",
            "Batch executions, by planned backend",
            labelnames=("backend",))
        self._plan_retries = self.registry.counter(
            "dispatch_plan_retries_total",
            "Plan builds retried after a transient backend failure")
        self._rejections = self.registry.counter(
            "dispatch_backend_rejections_total",
            "Backends dropped from a plan build because configure, build "
            "or predict raised, by backend and stage",
            labelnames=("backend", "stage"))
        self.chaos = chaos       # optional FaultInjector (build-fail hook)
        # Each name is walked once, at its first place in the routing
        # order.  The naive backend is the degradation target; it is
        # always on.
        self.backends = tuple(dict.fromkeys(backends))
        if self.kernels.fallback not in self.backends:
            self.backends += (self.kernels.fallback,)
        self._naive = self.kernels.get(self.kernels.fallback).build(None, arch)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, problem: ConvProblem) -> KernelPlan:
        """The (cached) serving plan for a problem shape."""
        key = plan_key(problem, self.arch)
        if self.tracer is None:
            return self.cache.get_or_build(
                key, lambda: self.build_plan_retrying(problem))
        with self.tracer.span(
            "plan %dx%dx%d k%d" % (problem.height, problem.width,
                                   problem.channels, problem.kernel_size),
            category="plan-cache",
        ) as args:
            cached = key in self.cache
            plan = self.cache.get_or_build(
                key, lambda: self.build_plan_retrying(problem))
            args["hit"] = cached
            args["backend"] = plan.backend
        return plan

    def _candidates(self, problem: ConvProblem,
                    fallback: Optional[TimingBreakdown], bounded: list):
        """Yield a ``(name, kernel, config, breakdown)`` for every
        backend that can still win, in routing order.

        The walk: each backend passes the registry's admission step (its
        counters) under the lowest price so far, naive's ``fallback``
        first, and the walk branches on the outcome.  A ``bounded``
        backend, proved to take longer, is appended to ``bounded``; an
        ``error`` is counted as a ``configure`` rejection; a ``filtered``
        one is skipped.  An admitted backend is built from the
        configuration its ``admit`` found and priced by the breakdown
        that search handed back, or else by its ``predict``; naive's
        price is ``fallback``.  No per-backend branches live here.
        """
        limit = math.inf if fallback is None else fallback.total
        for name in self.backends:
            outcome, entry = self.kernels.admit_one(name, problem, self.arch,
                                                    limit)
            if outcome == "bounded":
                bounded.append(name)
            elif outcome == "error":
                self._rejections.inc(backend=name, stage="configure")
            elif outcome == "admitted":
                candidate = self._priced(problem, fallback, *entry)
                if candidate is not None:
                    limit = min(limit, candidate[3].total)
                    yield candidate

    def _priced(self, problem, fallback, backend, config, breakdown):
        """``(name, kernel, config, breakdown)`` for one admitted
        backend, or None with the failing stage counted."""
        if backend.name == self.kernels.fallback:
            kernel, breakdown = self._naive, fallback
        else:
            try:
                kernel = backend.build(problem, self.arch, config)
            except ReproError:
                self._rejections.inc(backend=backend.name, stage="build")
                return None
            if breakdown is None:
                try:
                    breakdown = kernel.predict(problem)
                except ReproError:
                    pass
        if breakdown is None:
            self._rejections.inc(backend=backend.name, stage="predict")
            return None
        return backend.name, kernel, config, breakdown

    def build_plan_retrying(self, problem: ConvProblem) -> KernelPlan:
        """:meth:`build_plan` with bounded transient-failure retry.

        A :class:`~repro.errors.TransientBackendError` (real or
        injected) is retried up to :data:`PLAN_RETRIES` times; anything
        else — and the final transient failure — surfaces unchanged.
        """
        attempt = 0
        while True:
            try:
                return self.build_plan(problem)
            except TransientBackendError:
                if attempt >= PLAN_RETRIES:
                    raise
                attempt += 1
                self._plan_retries.inc()

    def build_plan(self, problem: ConvProblem) -> KernelPlan:
        """Autotune + price every candidate that can still win; pick the
        cheapest predicted.

        The naive fallback is priced first.  The walk
        (:meth:`_candidates`) then admits each backend in routing order
        under the lowest price so far: one proved to take longer could
        not win, so it goes unpriced into :attr:`KernelPlan.bounded`.
        A backend at or under the limit is priced, and a tie goes to
        the first in routing order.
        """
        if self.chaos is not None:
            from repro.chaos.plan import FaultKind

            if self.chaos.take(FaultKind.BUILD_FAIL) is not None:
                raise TransientBackendError(
                    "injected transient plan-build failure for %r"
                    % (problem,))
        try:
            fallback = self._naive.predict(problem)
        except ReproError:
            fallback = None
        best = None
        candidates, bounded = {}, []
        for name, kernel, config, breakdown in self._candidates(
                problem, fallback, bounded):
            candidates[name] = breakdown.total
            if best is None or breakdown.total < best.breakdown.total:
                best = KernelPlan(
                    problem=problem, backend=name, kernel=kernel,
                    breakdown=breakdown, config=config,
                )
        if best is None:
            # Every backend failed to even plan — degrade to naive.
            best = KernelPlan(
                problem=problem, backend="naive", kernel=self._naive,
                breakdown=fallback if fallback is not None
                else self._naive.predict(problem),
                source="degraded",
            )
        best.candidates = candidates
        best.bounded = tuple(bounded)
        self._planned.inc(backend=best.backend)
        return best

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self, plan: KernelPlan, requests: Sequence[ConvRequest]
    ) -> Tuple[List[np.ndarray], float]:
        """Serve a same-shape batch under one plan.

        Returns (outputs, modeled batch seconds).  The batch is one
        batched :func:`conv2d_reference` call, whose outputs are
        bit-identical to per-request calls, priced as one modeled
        launch of the planned backend.
        """
        if self.tracer is not None:
            span = self.tracer.span(
                "execute[%s] n=%d" % (plan.backend, len(requests)),
                category="dispatch",
            )
        else:
            span = nullcontext({})
        with span as span_args:
            outputs = _serve_reference(plan.problem, requests)
            seconds = plan.batch_seconds(len(requests)) if requests else 0.0
            self._executions.inc(backend=plan.backend)
            span_args["modeled_seconds"] = seconds
        return outputs, seconds
