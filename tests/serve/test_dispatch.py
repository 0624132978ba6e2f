"""Tests for cost-model-driven dispatch, plan-time degradation and
bit-identical batched execution."""

import math

import numpy as np
import pytest

from repro.chaos import FaultInjector, FaultPlan
from repro.conv.reference import conv2d_reference
from repro.conv.tensors import ConvProblem
from repro.baselines.implicit_gemm import DEFAULT_TILE_PALETTE
from repro.core.bankwidth import matched_vector
from repro.core.depthwise import DepthwiseKernel
from repro.core.dse import (
    enumerate_special_configs, explore_general, explore_special,
)
from repro.core.general import palette
from repro.errors import ConfigurationError, ReproError, TransientBackendError
from repro.gpu.arch import ARCHITECTURES, KEPLER_K40M
from repro.kernels import (
    BOUNDED, BackendRegistry, NaiveBackend, register_builtin_backends,
)
from repro.obs.metrics import get_registry, reset_registry
from repro.serve import dispatch
from repro.serve.dispatch import DEFAULT_BACKENDS, Dispatcher
from repro.serve.plan_cache import PlanCache
from repro.serve.request import ConvRequest
from repro.serve.trace import SHAPE_FAMILIES

SPECIAL = ConvProblem.square(48, 3, channels=1, filters=4)
GENERAL = ConvProblem.square(32, 3, channels=8, filters=16)
DEPTHWISE = ConvProblem.square(24, 3, channels=6, filters=12, groups=6,
                               stride=2)


def make_request(problem, req_id=0):
    image, filters = problem.random_instance(seed=req_id)
    return ConvRequest(req_id=req_id, problem=problem, image=image,
                       filters=filters)


class TestPlanning:
    def test_plan_picks_cheapest_candidate(self):
        dispatcher = Dispatcher()
        plan = dispatcher.plan(GENERAL)
        assert plan.backend in DEFAULT_BACKENDS
        assert plan.breakdown.total == min(plan.candidates.values())
        assert plan.candidates[plan.backend] == plan.breakdown.total

    def test_special_candidate_only_for_single_channel(self):
        dispatcher = Dispatcher()
        considered = [set(plan.candidates) | set(plan.bounded) for plan in (
            dispatcher.plan(SPECIAL), dispatcher.plan(GENERAL))]
        assert "special" in considered[0]
        assert "special" not in considered[1]

    def test_paper_kernel_plans_carry_their_dse_config(self):
        dispatcher = Dispatcher(backends=("general",))
        plan = dispatcher.plan(GENERAL)
        assert plan.backend == "general"
        assert plan.config is not None

    def test_plans_are_cached_per_shape(self):
        cache = PlanCache()
        dispatcher = Dispatcher(cache=cache)
        first = dispatcher.plan(GENERAL)
        second = dispatcher.plan(GENERAL)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_default_cache_counts_into_the_dispatchers_registry(self):
        dispatcher = Dispatcher()
        dispatcher.plan(GENERAL)
        dispatcher.plan(GENERAL)
        assert dispatcher.cache.registry is dispatcher.registry
        assert dispatcher.registry.get("plan_cache_hits_total").total() == 1
        assert dispatcher.registry.get(
            "plan_cache_misses_total").total() == 1

    def test_naive_backend_always_enabled(self):
        dispatcher = Dispatcher(backends=("general",))
        assert "naive" in dispatcher.backends

    def test_subset_that_admits_nothing_plans_naive(self, fresh_obs):
        # Special filters multi-channel problems out; the naive backend
        # the dispatcher always adds is walked and priced like any other.
        dispatcher = Dispatcher(backends=("special",))
        plan = dispatcher.build_plan(GENERAL)
        assert (plan.backend, plan.source) == ("naive", "cost-model")
        assert plan.candidates == {
            "naive": dispatcher._naive.predict(GENERAL).total}
        assert plan.bounded == ()
        assert fresh_obs.get("kernel_backend_candidates_total").series() \
            == [({"backend": "special", "outcome": "filtered"}, 1.0),
                ({"backend": "naive", "outcome": "admitted"}, 1.0)]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError):
            Dispatcher(backends=("special", "tensor-core"))

    def test_routing_order_is_kept(self):
        subset = ("general", "special", "naive")
        assert Dispatcher(backends=subset).backends == subset

    def test_each_name_is_walked_once(self, fresh_obs):
        dispatcher = Dispatcher(
            backends=("general", "general", "im2col", "im2col"))
        assert dispatcher.backends == ("general", "im2col", "naive")
        plan = dispatcher.build_plan(GENERAL)
        assert plan.bounded == ("im2col",)
        counter = fresh_obs.get("kernel_backend_candidates_total")
        assert counter.value(backend="general", outcome="admitted") == 1
        assert counter.value(backend="im2col", outcome="bounded") == 1

    def test_degrades_to_naive_when_nothing_plans(self, monkeypatch):
        dispatcher = Dispatcher()
        # Every admitted backend fails to price.
        monkeypatch.setattr(dispatcher, "_priced", lambda *args: None)
        plan = dispatcher.build_plan(GENERAL)
        assert plan.backend == "naive"
        assert plan.source == "degraded"
        assert plan.breakdown == dispatcher._naive.predict(GENERAL)

    def test_batch_seconds_amortizes_launch_only(self):
        dispatcher = Dispatcher()
        plan = dispatcher.plan(GENERAL)
        t4 = plan.batch_seconds(4)
        assert t4 == pytest.approx(plan.launch_s + 4 * plan.busy_s)
        assert t4 < 4 * plan.breakdown.total


class TestExecution:
    @pytest.mark.parametrize("problem", [SPECIAL, GENERAL, DEPTHWISE],
                             ids=["special", "general", "depthwise"])
    def test_reference_batch_is_one_reference_call(self, monkeypatch,
                                                   problem):
        dispatcher = Dispatcher()
        plan = dispatcher.plan(problem)
        requests = [make_request(problem, i) for i in range(5)]
        singles = [conv2d_reference(r.image, r.filters, problem=problem)
                   for r in requests]

        shapes = []
        real = dispatch.conv2d_reference

        def counting(image, filters, *args, **kwargs):
            shapes.append(np.shape(image))
            return real(image, filters, *args, **kwargs)

        monkeypatch.setattr(dispatch, "conv2d_reference", counting)
        outputs, seconds = dispatcher.execute(plan, requests)
        assert shapes == [(5,) + problem.image_shape]
        assert seconds == pytest.approx(plan.batch_seconds(5))
        for output, single in zip(outputs, singles):
            assert np.array_equal(output.view(np.uint32),
                                  single.view(np.uint32))

    def test_reference_batch_rejects_mixed_shapes(self):
        dispatcher = Dispatcher()
        plan = dispatcher.plan(GENERAL)
        requests = [make_request(GENERAL, 0), make_request(SPECIAL, 1)]
        with pytest.raises(ReproError):
            dispatcher.execute(plan, requests)

    def test_empty_batch_serves_nothing(self):
        dispatcher = Dispatcher()
        plan = dispatcher.plan(GENERAL)
        assert dispatcher.execute(plan, []) == ([], 0.0)


#: The backends whose configuration comes from the design-space search.
TUNED = ("special", "general", "depthwise")


def _churn_style_shapes(count=32, seed=7):
    """Plain, strided, dilated and depthwise shapes in turn, H 16-64,
    K 3/5, C 1-16, F 4-16: the mix a cold serving engine plans."""
    rng = np.random.default_rng(seed)
    shapes = []
    for i in range(count):
        h = int(rng.integers(16, 65))
        c = int(rng.integers(1, 17))
        f = int(rng.integers(4, 17))
        kind, kwargs = i % 4, {}
        if kind == 1:
            kwargs["stride"] = 2
        elif kind == 2:
            kwargs["dilation"] = 2
        elif kind == 3:
            c = f = kwargs["groups"] = max(c, 2)
        shapes.append(ConvProblem.square(h, (3, 5)[(i // 4) % 2],
                                         channels=c, filters=f, **kwargs))
    return shapes


PALETTE_SHAPES = list(dict.fromkeys(
    p for family in ("classic", "generalized", "mixed")
    for p in SHAPE_FAMILIES[family]))
CHURN_STYLE_SHAPES = _churn_style_shapes()


def _candidate_series():
    metric = get_registry().get("kernel_backend_candidates_total")
    return sorted((tuple(sorted(labels.items())), value)
                  for labels, value in metric.series())


def _exhaustive_config(name, problem, arch):
    """A tuned backend's configuration from its full ranking's first
    entry: every candidate priced, none bounded out."""
    if name == "general":
        k = problem.as_valid().kernel_size
        ranked = explore_general(k, arch, problem,
                                 palette(k, matched_vector(arch).n))
    else:
        if name == "depthwise":
            problem = DepthwiseKernel.group_problem(problem)
        ranked = explore_special(arch, problem)
    if not ranked:
        raise ConfigurationError("no valid %s-case configuration" % name)
    return ranked[0].config


def _two_pass_plan(dispatcher, problem):
    """The plan build before admission returned configurations: a
    ``supports`` pass over the portfolio, then ``configure`` again for
    each admitted backend, ``build`` and ``predict``.  Returns
    ``((backend, config, breakdown), candidates)``."""
    kernels, arch = dispatcher.kernels, dispatcher.arch
    counter = get_registry().counter(
        "kernel_backend_candidates_total", "", ("backend", "outcome"))
    admitted = []
    for name in dispatcher.backends:
        backend = kernels.get(name)
        ok = backend.supports(problem, arch)
        counter.inc(backend=name, outcome="admitted" if ok else "filtered")
        if ok:
            admitted.append(backend)
    best, candidates = None, {}
    for backend in admitted:
        try:
            config = (_exhaustive_config(backend.name, problem, arch)
                      if backend.name in TUNED
                      else backend.configure(problem, arch)[0])
            kernel = backend.build(problem, arch, config)
            breakdown = kernel.predict(problem)
        except ReproError:
            continue
        candidates[backend.name] = breakdown.total
        if best is None or breakdown.total < best[2].total:
            best = (backend.name, config, breakdown)
    return best, candidates


@pytest.fixture
def fresh_obs():
    reset_registry()
    yield get_registry()
    reset_registry()


class TestOnePassAdmission:
    """Admission hands each backend's configuration to the dispatcher,
    so a plan build runs each tuned backend's search once."""

    @staticmethod
    def _palette_size(name, problem, arch):
        if name == "general":
            return len(palette(problem.kernel_size,
                               matched_vector(arch).n))
        return len(enumerate_special_configs())

    @pytest.mark.parametrize("problem", [SPECIAL, GENERAL, DEPTHWISE],
                             ids=["special", "general", "depthwise"])
    def test_each_admitted_tuned_backend_searches_once(
            self, monkeypatch, fresh_obs, problem):
        kernels = register_builtin_backends(BackendRegistry())
        calls = dict.fromkeys(TUNED, 0)
        for name in TUNED:
            backend = kernels.get(name)

            def counting(p, arch=KEPLER_K40M, limit=math.inf, _name=name,
                         _real=backend.configure):
                calls[_name] += 1
                return _real(p, arch, limit)

            monkeypatch.setattr(backend, "configure", counting)
        plan = Dispatcher(kernels=kernels).build_plan(problem)
        searched = [name for name in TUNED
                    if name in plan.candidates or name in plan.bounded]
        assert searched
        assert calls == {name: int(name in searched) for name in TUNED}

        def candidates(case):
            return sum(
                value for metric in ("dse_candidates_total",
                                     "dse_candidates_pruned_total")
                for labels, value in fresh_obs.get(metric).series()
                if labels["case"] == case)

        # Depthwise searches special-case blocks.
        assert candidates("special") + candidates("general") == sum(
            self._palette_size(name, problem, KEPLER_K40M)
            for name in searched)
        # The implicit GEMM's tile search, when it ran, covers its palette.
        tiled = ("implicit-gemm" in plan.candidates
                 or "implicit-gemm" in plan.bounded)
        assert candidates("implicit-gemm") == tiled * len(
            DEFAULT_TILE_PALETTE)

    @pytest.mark.parametrize("arch", list(ARCHITECTURES.values()),
                             ids=list(ARCHITECTURES))
    def test_plans_match_the_two_pass_loop(self, fresh_obs, arch):
        bounded_out = untuned_out = 0
        for problem in PALETTE_SHAPES + CHURN_STYLE_SHAPES:
            dispatcher = Dispatcher(arch=arch)
            reset_registry()
            (backend, config, breakdown), candidates = _two_pass_plan(
                dispatcher, problem)
            old_series = _candidate_series()
            reset_registry()
            plan = dispatcher.build_plan(problem)
            label = problem.describe()
            assert plan.source == "cost-model", label
            assert plan.backend == backend, label
            assert plan.config == config, label
            assert plan.breakdown == breakdown, label
            # Every priced backend carries its exhaustive price; every
            # other one was bounded out, priced above the lowest price
            # before it in the walk (naive's first, then routing order).
            assert plan.candidates == {
                name: candidates[name] for name in plan.candidates}, label
            assert plan.bounded == tuple(
                name for name in candidates
                if name not in plan.candidates), label
            for i, name in enumerate(dispatcher.backends):
                if name in plan.bounded:
                    assert candidates[name] > min(
                        [plan.candidates["naive"]]
                        + [plan.candidates[earlier]
                           for earlier in dispatcher.backends[:i]
                           if earlier in plan.candidates]), (label, name)
            bounded_out += len(plan.bounded)
            untuned_out += len(set(plan.bounded) - set(TUNED))
            # Admission counts every bounded backend, tuned or not, as
            # bounded, not admitted.
            assert _candidate_series() == sorted(
                (tuple(sorted(dict(labels, outcome="bounded").items()))
                 if dict(labels)["backend"] in plan.bounded else labels,
                 value)
                for labels, value in old_series), label
        assert bounded_out > untuned_out > 0


class TestNoRepricing:
    """A search hands its winner's breakdown to the plan, so a plan
    build prices no paper-kernel configuration outside the searches."""

    @pytest.mark.parametrize("arch", list(ARCHITECTURES.values()),
                             ids=list(ARCHITECTURES))
    def test_no_winner_is_priced_twice(self, monkeypatch, arch):
        from repro.core import dse
        from repro.core.depthwise import DepthwiseKernel
        from repro.core.general import GeneralCaseKernel
        from repro.core.special import SpecialCaseKernel

        inside = {"search": 0, "grouped": 0}
        outside, grouped = [], []

        def within(key, real):
            def wrapper(*args, **kwargs):
                inside[key] += 1
                try:
                    return real(*args, **kwargs)
                finally:
                    inside[key] -= 1
            return wrapper

        def counted(cls):
            real = cls.cost

            def cost(self, problem):
                if not any(inside.values()):
                    outside.append((cls.__name__, problem.describe()))
                return real(self, problem)
            monkeypatch.setattr(cls, "cost", cost)

        counted(SpecialCaseKernel)
        counted(GeneralCaseKernel)
        monkeypatch.setattr(dse, "_rank", within("search", dse._rank))
        real_grouped = within("grouped", DepthwiseKernel.cost)

        def grouped_cost(self, problem):
            grouped.append(problem)
            return real_grouped(self, problem)
        monkeypatch.setattr(DepthwiseKernel, "cost", grouped_cost)

        dispatcher = Dispatcher(arch=arch)
        plans = [dispatcher.build_plan(p) for p in CHURN_STYLE_SHAPES]
        assert outside == []
        # The grouped depthwise launch is priced once per plan that
        # admits it: its search ranks one group (ROADMAP item 5).
        assert grouped == [plan.problem for plan in plans
                           if "depthwise" in plan.candidates]
        assert any(plan.backend in TUNED for plan in plans)


class TestGeneralOnEveryFilterSize:
    """Even K at vector width 2 rejects the palette configurations whose
    register rows start off a vector unit as configuration errors, so the
    search prices the rest instead of failing the backend."""

    @pytest.mark.parametrize(
        "arch", [a for name, a in ARCHITECTURES.items() if name != "fermi"],
        ids=[name for name in ARCHITECTURES if name != "fermi"])
    def test_general_is_priced_or_bounded_for_k_1_to_7(self, arch):
        dispatcher = Dispatcher(arch=arch)
        for k in range(1, 8):
            plan = dispatcher.build_plan(
                ConvProblem.square(40, k, channels=8, filters=16))
            assert ("general" in plan.candidates
                    or "general" in plan.bounded), k
        rejections = dispatcher.registry.get(
            "dispatch_backend_rejections_total")
        assert rejections.value(backend="general", stage="configure") == 0


class TestOneOutcomePerBackend:
    """The walk reads one admission outcome per backend: no ``configure``
    raises on serving traffic, and the ``bounded`` outcomes are exactly
    the plan's ``bounded`` backends."""

    @pytest.mark.parametrize("arch", list(ARCHITECTURES.values()),
                             ids=list(ARCHITECTURES))
    def test_churn_style_builds(self, monkeypatch, fresh_obs, arch):
        kernels = register_builtin_backends(BackendRegistry())
        raised = []
        for backend in kernels:
            def configure(problem, arch=KEPLER_K40M, limit=math.inf,
                          _real=backend.configure, _name=backend.name):
                try:
                    return _real(problem, arch, limit)
                except Exception as exc:
                    raised.append((_name, problem, exc))
                    raise
            monkeypatch.setattr(backend, "configure", configure)
        dispatcher = Dispatcher(arch=arch, kernels=kernels)
        for problem in CHURN_STYLE_SHAPES:
            before = self._bounded(fresh_obs)
            plan = dispatcher.build_plan(problem)
            after = self._bounded(fresh_obs)
            assert tuple(name for name in dispatcher.backends
                         if after[name] > before[name]) == plan.bounded, \
                problem.describe()
            assert sum(after.values()) - sum(before.values()) == len(
                plan.bounded)
        assert raised == []

    @staticmethod
    def _bounded(registry):
        """Bounded outcomes counted so far, by backend."""
        counts = dict.fromkeys(DEFAULT_BACKENDS, 0.0)
        metric = registry.get("kernel_backend_candidates_total")
        for labels, value in metric.series() if metric is not None else ():
            if labels["outcome"] == "bounded":
                counts[labels["backend"]] += value
        return counts


class _NaiveAdmits(NaiveBackend):
    """The fallback, with an ``admit`` that raises or bounds."""

    def __init__(self, answer):
        self.answer = answer

    def admit(self, problem, arch=KEPLER_K40M, limit=math.inf):
        if self.answer == "raise":
            raise ReproError("naive admit exploded")
        return False, BOUNDED, None


class TestNaiveLeftOut:
    """A naive backend that its own ``admit`` leaves out is not priced
    by the walk; with nothing else to plan, the plan degrades to it."""

    @pytest.mark.parametrize("answer", ["raise", "bound"])
    def test_plan_degrades_to_naive(self, fresh_obs, answer):
        kernels = register_builtin_backends(BackendRegistry())
        kernels.register(_NaiveAdmits(answer), replace=True)
        dispatcher = Dispatcher(kernels=kernels, backends=("naive",))
        plan = dispatcher.build_plan(GENERAL)
        assert plan.source == "degraded"
        assert plan.backend == "naive" and plan.kernel is dispatcher._naive
        assert plan.breakdown == dispatcher._naive.predict(GENERAL)
        assert plan.candidates == {}
        outcome = "error" if answer == "raise" else "bounded"
        assert fresh_obs.get("kernel_backend_candidates_total").series() \
            == [({"backend": "naive", "outcome": outcome}, 1.0)]
        assert plan.bounded == (("naive",) if answer == "bound" else ())


class _RaisingBackend(NaiveBackend):
    """Admissible everywhere; raises a ReproError at one plan stage
    once it is configured."""

    name = "raising"

    def __init__(self, stage):
        self.stage = stage

    def configure(self, problem, arch=KEPLER_K40M, limit=math.inf):
        if self.stage == "configure":
            raise ReproError("configure exploded")
        return "tuned", None

    def build(self, problem, arch=KEPLER_K40M, config=None, **kwargs):
        if config == "tuned" and self.stage == "build":
            raise ReproError("build exploded")
        kernel = super().build(problem, arch, **kwargs)
        if config == "tuned" and self.stage == "predict":
            def predict(problem):
                raise ReproError("predict exploded")

            kernel.predict = predict
        return kernel


class TestRejectionAccounting:
    """A backend dropped from a plan build is counted by stage in
    ``dispatch_backend_rejections_total``, and the plan still succeeds
    on the rest of the portfolio."""

    @pytest.mark.parametrize("stage", ["configure", "build", "predict"])
    def test_raising_backend_is_counted_and_skipped(self, stage):
        kernels = register_builtin_backends(BackendRegistry())
        kernels.register(_RaisingBackend(stage))
        dispatcher = Dispatcher(kernels=kernels,
                                backends=("raising", "general"))
        plan = dispatcher.plan(GENERAL)
        assert plan.source == "cost-model"
        assert set(plan.candidates) == {"general", "naive"}
        rejections = dispatcher.registry.get(
            "dispatch_backend_rejections_total")
        assert rejections.series() == [
            ({"backend": "raising", "stage": stage}, 1.0)]

    def test_healthy_portfolio_rejects_nothing(self):
        dispatcher = Dispatcher()
        for problem in (SPECIAL, GENERAL, DEPTHWISE):
            dispatcher.plan(problem)
        rejections = dispatcher.registry.get(
            "dispatch_backend_rejections_total")
        assert rejections.total() == 0


class TestPlanRetries:
    """A transient plan-build failure is retried ``PLAN_RETRIES`` times
    (counted in ``dispatch_plan_retries_total``), then surfaces."""

    @staticmethod
    def failing(times):
        return Dispatcher(chaos=FaultInjector(
            FaultPlan.parse("build-fail:times=%d" % times), 1))

    @staticmethod
    def retries(dispatcher):
        return dispatcher.registry.get("dispatch_plan_retries_total").total()

    def test_recovers_within_the_budget(self):
        dispatcher = self.failing(dispatch.PLAN_RETRIES)
        plan = dispatcher.build_plan_retrying(SPECIAL)
        assert plan.backend in DEFAULT_BACKENDS
        assert self.retries(dispatcher) == dispatch.PLAN_RETRIES == 2

    def test_exhausted_budget_surfaces_the_error(self):
        dispatcher = self.failing(dispatch.PLAN_RETRIES + 1)
        with pytest.raises(TransientBackendError):
            dispatcher.build_plan_retrying(SPECIAL)
        assert self.retries(dispatcher) == dispatch.PLAN_RETRIES

    def test_budget_is_read_at_call_time(self, monkeypatch):
        dispatcher = self.failing(1)
        monkeypatch.setattr(dispatch, "PLAN_RETRIES", 0)
        with pytest.raises(TransientBackendError):
            dispatcher.build_plan_retrying(SPECIAL)
        assert self.retries(dispatcher) == 0
