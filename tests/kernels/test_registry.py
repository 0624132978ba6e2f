"""Tests for the kernel-backend registry (repro.kernels)."""

import math

import pytest

from repro.conv.tensors import ConvProblem
from repro.errors import BackendError, ReproError, SearchBounded
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


class TestAvailable:
    def test_multi_channel_excludes_special(self, registry):
        p = ConvProblem.square(32, 3, channels=8, filters=8)
        names = [b.name for b, _ in registry.available(p, KEPLER_K40M)]
        assert "special" not in names
        assert "general" in names and "naive" in names

    def test_single_channel_admits_special(self, registry):
        p = ConvProblem.square(64, 3, channels=1, filters=4)
        names = [b.name for b, _ in registry.available(p, KEPLER_K40M)]
        assert names[0] == "special"

    def test_winograd_requires_3x3(self, registry):
        p = ConvProblem.square(32, 5, channels=4, filters=8)
        names = [b.name for b, _ in registry.available(p, KEPLER_K40M)]
        assert "winograd" not in names

    def test_fallback_always_appended(self, registry):
        # A subset that filters to nothing still yields the fallback.
        p = ConvProblem.square(32, 3, channels=8, filters=8)
        pairs = registry.available(p, KEPLER_K40M, names=("special",))
        assert [(b.name, config) for b, config in pairs] == [("naive", None)]

    def test_ensure_fallback_off(self, registry):
        p = ConvProblem.square(32, 3, channels=8, filters=8)
        pairs = registry.available(p, KEPLER_K40M, names=("special",),
                                   ensure_fallback=False)
        assert pairs == []

    def test_names_subset_preserves_order(self, registry):
        p = ConvProblem.square(64, 3, channels=1, filters=4)
        subset = ("general", "special", "naive")
        names = [b.name for b, _ in registry.available(p, KEPLER_K40M,
                                                       names=subset)]
        assert names == list(subset)

    def test_available_on_pascal(self, registry):
        # supports() runs against the non-Kepler preset too.
        p = ConvProblem.square(64, 3, channels=1, filters=4)
        names = [b.name for b, _ in registry.available(p, PASCAL_P100)]
        assert "special" in names and "naive" in names

    def test_pairs_carry_the_configure_answer(self, registry):
        p = ConvProblem.square(64, 3, channels=1, filters=4)
        configs = {b.name: config
                   for b, config in registry.available(p, KEPLER_K40M)}
        for name in ("special", "general"):
            assert configs[name] is not None
            assert configs[name] == registry.get(name).configure(
                p, KEPLER_K40M)[0]
        assert configs["im2col"] is None and configs["naive"] is None

    def test_admit_matches_supports(self, registry):
        p = ConvProblem.square(32, 3, channels=8, filters=8)
        for backend in registry:
            ok, config, breakdown = backend.admit(p, KEPLER_K40M)
            assert ok == backend.supports(p, KEPLER_K40M)
            if not ok:
                assert config is None and breakdown is None

    def test_admission_error_is_reported_and_skipped(self, registry):
        from repro.obs.metrics import get_registry, reset_registry

        class RaisesInConfigure(NaiveBackend):
            name = "raises-in-configure"

            def configure(self, problem, arch=KEPLER_K40M, limit=math.inf):
                raise ReproError("configure exploded")

        registry.register(RaisesInConfigure())
        reset_registry()
        errors = []
        p = ConvProblem.square(32, 3, channels=8, filters=8)
        pairs = registry.available(
            p, KEPLER_K40M, names=("raises-in-configure", "general"),
            on_error=lambda name, err: errors.append((name, str(err))))
        assert [b.name for b, _ in pairs] == ["general", "naive"]
        assert errors == [("raises-in-configure", "configure exploded")]
        counter = get_registry().counter(
            "kernel_backend_candidates_total", "", ("backend", "outcome"))
        assert counter.value(backend="raises-in-configure",
                             outcome="error") == 1
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
        with pytest.raises(SearchBounded):
            general.admit(self.SHAPE, KEPLER_K40M, below)

    def test_implicit_gemm_above_the_limit_is_bounded(self, registry):
        backend = registry.get("implicit-gemm")
        kernel = backend.build(self.SHAPE, KEPLER_K40M)
        seconds = kernel.predict(self.SHAPE).total
        # A finite limit runs the bounded tile search, which hands back
        # the winning tile's breakdown; the plan's config stays None.
        assert backend.admit(self.SHAPE, KEPLER_K40M, seconds) == (
            True, None, kernel.predict(self.SHAPE))
        with pytest.raises(SearchBounded):
            backend.admit(self.SHAPE, KEPLER_K40M,
                          math.nextafter(seconds, 0.0))

    def test_available_counts_and_reports_bounded(self, registry):
        from repro.obs.metrics import get_registry, reset_registry

        reset_registry()
        left_out = []
        pairs = registry.available(
            self.SHAPE, KEPLER_K40M, names=("general", "im2col"),
            on_error=lambda name, err: left_out.append((name, type(err))),
            limit=1e-9)
        assert [b.name for b, _ in pairs] == ["naive"]
        assert left_out == [("general", SearchBounded),
                            ("im2col", SearchBounded)]
        counter = get_registry().get("kernel_backend_candidates_total")
        for name in ("general", "im2col"):
            assert counter.value(backend=name, outcome="bounded") == 1
            assert counter.value(backend=name, outcome="error") == 0
        assert counter.value(backend="naive", outcome="fallback") == 1
        reset_registry()

    def test_depthwise_and_naive_ignore_the_limit(self, registry):
        depthwise = ConvProblem.square(24, 3, channels=6, filters=12,
                                       groups=6)
        assert registry.get("depthwise").admit(
            depthwise, KEPLER_K40M, 1e-9) == registry.get("depthwise").admit(
                depthwise, KEPLER_K40M) == (
                    True, registry.get("depthwise").configure(
                        depthwise, KEPLER_K40M)[0], None)
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
            with pytest.raises(SearchBounded):
                backend.admit(self.SHAPE, KEPLER_K40M, 1e-9)


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
        registry.available(p, KEPLER_K40M)
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
