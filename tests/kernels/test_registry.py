"""Tests for the kernel-backend registry (repro.kernels)."""

import math

import pytest

from repro.conv.tensors import ConvProblem
from repro.core.depthwise import DepthwiseKernel
from repro.errors import BackendError, ConfigurationError, ReproError
from repro.gpu.arch import KEPLER_K40M, PASCAL_P100
from repro.kernels import (
    BOUNDED,
    BackendRegistry,
    ConvBackend,
    NaiveBackend,
    default_registry,
    register_builtin_backends,
)

BUILTIN_NAMES = ("special", "general", "im2col", "implicit-gemm", "naive",
                 "fft", "winograd", "depthwise")


@pytest.fixture
def registry():
    return register_builtin_backends(BackendRegistry())


class TestDefaultRegistry:
    def test_builtin_names_in_registration_order(self):
        assert default_registry().names() == BUILTIN_NAMES

    def test_singleton(self):
        assert default_registry() is default_registry()

    def test_iteration_and_len(self, registry):
        assert len(registry) == len(BUILTIN_NAMES)
        assert tuple(b.name for b in registry) == BUILTIN_NAMES

    def test_contains(self, registry):
        assert "fft" in registry
        assert "tensor-core" not in registry


class TestRegistration:
    def test_duplicate_name_rejected(self, registry):
        with pytest.raises(BackendError):
            registry.register(NaiveBackend())

    def test_replace_overrides(self, registry):
        replacement = NaiveBackend()
        registry.register(replacement, replace=True)
        assert registry.get("naive") is replacement

    def test_nameless_backend_rejected(self, registry):
        class Nameless(ConvBackend):
            def build(self, problem, arch=KEPLER_K40M, config=None, **kw):
                raise AssertionError("never built")

        with pytest.raises(BackendError):
            registry.register(Nameless())


class TestLookup:
    def test_unknown_backend_error_lists_registered_names(self, registry):
        with pytest.raises(BackendError) as err:
            registry.get("tensor-core")
        message = str(err.value)
        assert "tensor-core" in message
        for name in BUILTIN_NAMES:
            assert name in message

    def test_backend_error_is_a_repro_error(self, registry):
        with pytest.raises(ReproError):
            registry.get("nope")


def admitted_names(registry, problem, arch=KEPLER_K40M):
    """The backends whose ``admit`` accepts ``problem``, in registration
    order."""
    return [b.name for b in registry if b.admit(problem, arch)[0]]


class TestAdmission:
    def test_multi_channel_excludes_special(self, registry):
        p = ConvProblem.square(32, 3, channels=8, filters=8)
        assert not registry.get("special").supports(p, KEPLER_K40M)
        assert registry.get("general").supports(p, KEPLER_K40M)
        assert registry.get("naive").supports(p, KEPLER_K40M)

    def test_single_channel_admits_special(self, registry):
        p = ConvProblem.square(64, 3, channels=1, filters=4)
        assert admitted_names(registry, p)[0] == "special"

    def test_winograd_requires_3x3(self, registry):
        p = ConvProblem.square(32, 5, channels=4, filters=8)
        assert registry.get("winograd").admit(p, KEPLER_K40M) == (
            False, None, None)

    def test_admission_on_pascal(self, registry):
        # admit() runs against the non-Kepler preset too.
        p = ConvProblem.square(64, 3, channels=1, filters=4)
        names = admitted_names(registry, p, PASCAL_P100)
        assert "special" in names and "naive" in names

    def test_admit_carries_the_configure_answer(self, registry):
        p = ConvProblem.square(64, 3, channels=1, filters=4)
        for name in ("special", "general"):
            backend = registry.get(name)
            ok, config, _ = backend.admit(p, KEPLER_K40M)
            assert ok and config is not None
            assert config == backend.configure(p, KEPLER_K40M)[0]
        for name in ("im2col", "naive"):
            assert registry.get(name).admit(p, KEPLER_K40M) == (
                True, None, None)

    def test_admit_matches_supports(self, registry):
        p = ConvProblem.square(32, 3, channels=8, filters=8)
        for backend in registry:
            ok, config, breakdown = backend.admit(p, KEPLER_K40M)
            assert ok == backend.supports(p, KEPLER_K40M)
            if not ok:
                assert config is None and breakdown is None

    def test_admit_one_answers_the_outcome(self, registry):
        from repro.obs.metrics import reset_registry

        reset_registry()
        p = ConvProblem.square(32, 3, channels=8, filters=8)
        outcome, entry = registry.admit_one("general", p, KEPLER_K40M)
        backend, config, breakdown = entry
        assert outcome == "admitted" and backend is registry.get("general")
        assert (config, breakdown) == backend.configure(p, KEPLER_K40M)
        assert registry.admit_one("special", p, KEPLER_K40M) == (
            "filtered", None)
        reset_registry()

    def test_admission_error_is_counted_and_skipped(self, registry):
        from repro.obs.metrics import get_registry, reset_registry
        from repro.serve.dispatch import Dispatcher

        class RaisesInConfigure(NaiveBackend):
            name = "raises-in-configure"

            def configure(self, problem, arch=KEPLER_K40M, limit=math.inf):
                raise ReproError("configure exploded")

        registry.register(RaisesInConfigure())
        reset_registry()
        p = ConvProblem.square(32, 3, channels=8, filters=8)
        assert registry.admit_one("raises-in-configure", p,
                                  KEPLER_K40M) == ("error", None)
        dispatcher = Dispatcher(
            kernels=registry, backends=("raises-in-configure", "general"))
        plan = dispatcher.build_plan(p)
        assert plan.source == "cost-model"
        assert set(plan.candidates) | set(plan.bounded) == {
            "general", "naive"}
        counter = get_registry().get("kernel_backend_candidates_total")
        assert counter.value(backend="raises-in-configure",
                             outcome="error") == 2
        assert dispatcher.registry.get(
            "dispatch_backend_rejections_total").series() == [
                ({"backend": "raises-in-configure", "stage": "configure"},
                 1.0)]
        reset_registry()


class TestBoundedAdmission:
    """A limit bounds every backend but naive: a tuned backend whose best
    configuration, the implicit GEMM whose best tile, or an untuned
    backend whose compute-only floor takes longer is left out as
    ``bounded``.  A search hands back the breakdown that priced its
    winner."""

    SHAPE = ConvProblem.square(32, 3, channels=8, filters=16)

    def test_tuned_backend_above_the_limit_is_bounded(self, registry):
        general = registry.get("general")
        config, breakdown = general.configure(self.SHAPE, KEPLER_K40M)
        assert breakdown == general.build(
            self.SHAPE, KEPLER_K40M, config).predict(self.SHAPE)
        seconds = breakdown.total
        assert general.admit(self.SHAPE, KEPLER_K40M, seconds) == (
            True, config, breakdown)
        below = math.nextafter(seconds, 0.0)
        assert general.configure(self.SHAPE, KEPLER_K40M, below) == (
            BOUNDED, None)
        assert general.admit(self.SHAPE, KEPLER_K40M, below) == (
            False, BOUNDED, None)

    def test_implicit_gemm_above_the_limit_is_bounded(self, registry):
        backend = registry.get("implicit-gemm")
        kernel = backend.build(self.SHAPE, KEPLER_K40M)
        seconds = kernel.predict(self.SHAPE).total
        # A finite limit runs the bounded tile search, which hands back
        # the winning tile's breakdown; the plan's config stays None.
        assert backend.admit(self.SHAPE, KEPLER_K40M, seconds) == (
            True, None, kernel.predict(self.SHAPE))
        assert backend.admit(self.SHAPE, KEPLER_K40M,
                             math.nextafter(seconds, 0.0)) == (
                                 False, BOUNDED, None)

    def test_admit_one_counts_bounded(self, registry):
        from repro.obs.metrics import get_registry, reset_registry

        reset_registry()
        for name in ("general", "im2col"):
            assert registry.admit_one(name, self.SHAPE, KEPLER_K40M,
                                      1e-9) == ("bounded", None)
        counter = get_registry().get("kernel_backend_candidates_total")
        for name in ("general", "im2col"):
            assert counter.value(backend=name, outcome="bounded") == 1
            assert counter.value(backend=name, outcome="error") == 0
        assert counter.value(backend="naive", outcome="fallback") == 0
        reset_registry()

    def test_limits_below_every_price_bound_without_configuring(
            self, registry, monkeypatch):
        for backend in registry:
            monkeypatch.setattr(backend, "configure", None)
        for limit in (0.0, -1.0):
            assert registry.get("general").admit(
                self.SHAPE, KEPLER_K40M, limit) == (False, BOUNDED, None)
            assert registry.get("naive").admit(
                self.SHAPE, KEPLER_K40M, limit) == (False, BOUNDED, None)
        with pytest.raises(ConfigurationError, match="NaN"):
            registry.get("general").admit(self.SHAPE, KEPLER_K40M,
                                          math.nan)

    def test_depthwise_and_naive_ignore_the_limit(self, registry):
        depthwise = ConvProblem.square(24, 3, channels=6, filters=12,
                                       groups=6)
        backend = registry.get("depthwise")
        config, breakdown = backend.configure(depthwise, KEPLER_K40M)
        # The breakdown is the grouped launch's, which the plan serves.
        assert breakdown == DepthwiseKernel(
            KEPLER_K40M, config=config).predict(depthwise)
        assert backend.admit(depthwise, KEPLER_K40M, 1e-9) == backend.admit(
            depthwise, KEPLER_K40M) == (True, config, breakdown)
        naive = registry.get("naive")
        assert naive.admit(self.SHAPE, KEPLER_K40M, 1e-9) == \
            naive.admit(self.SHAPE, KEPLER_K40M) == (True, None, None)

    def test_untuned_backends_are_bounded_by_their_floor(self, registry):
        for name in ("im2col", "implicit-gemm", "fft", "winograd"):
            backend = registry.get(name)
            kernel = backend.build(self.SHAPE, KEPLER_K40M)
            seconds = kernel.predict(self.SHAPE).total
            # Admitted at its own price, with no limit, and with none
            # but the implicit GEMM's tile search priced.
            assert backend.admit(self.SHAPE, KEPLER_K40M) == (
                True, None, None)
            assert backend.admit(self.SHAPE, KEPLER_K40M, seconds)[:2] == (
                True, None)
            assert backend.admit(self.SHAPE, KEPLER_K40M, 1e-9) == (
                False, BOUNDED, None)


class TestObservability:
    def test_lookups_are_counted(self, registry):
        from repro.obs.metrics import get_registry, reset_registry

        reset_registry()
        registry.get("naive")
        with pytest.raises(BackendError):
            registry.get("nope")
        counter = get_registry().counter(
            "kernel_backend_lookups_total", "", ("backend", "outcome"))
        assert counter.value(backend="naive", outcome="hit") >= 1
        assert counter.value(backend="nope", outcome="unknown") >= 1
        reset_registry()

    def test_admissions_are_counted(self, registry):
        from repro.obs.metrics import get_registry, reset_registry

        reset_registry()
        p = ConvProblem.square(32, 3, channels=8, filters=8)
        for name in registry.names():
            registry.admit_one(name, p, KEPLER_K40M)
        counter = get_registry().counter(
            "kernel_backend_candidates_total", "", ("backend", "outcome"))
        assert counter.value(backend="special", outcome="filtered") >= 1
        assert counter.value(backend="general", outcome="admitted") >= 1
        reset_registry()


class TestDispatcherIntegration:
    def test_unknown_backend_message_lists_registered(self):
        from repro.serve.dispatch import Dispatcher

        with pytest.raises(ReproError) as err:
            Dispatcher(backends=("special", "tensor-core"))
        message = str(err.value)
        assert "tensor-core" in message
        assert "registered backends" in message
        assert "im2col" in message

    def test_custom_backend_is_dispatchable(self):
        from repro.serve.dispatch import Dispatcher

        registry = register_builtin_backends(BackendRegistry())

        class EchoNaive(NaiveBackend):
            name = "echo-naive"

        registry.register(EchoNaive())
        dispatcher = Dispatcher(backends=("echo-naive",), kernels=registry)
        plan = dispatcher.plan(ConvProblem.square(16, 3, channels=2,
                                                  filters=2))
        assert plan.backend in ("echo-naive", "naive")
