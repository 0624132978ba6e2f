"""Tests for the span tracer (wall + virtual clocks)."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    Tracer,
    VIRTUAL_TRACK,
    WALL_TRACK,
    get_tracer,
    instrument,
    reset_tracer,
    set_tracer,
)
from repro.obs import tracing


class TestWallSpans:
    def test_span_records_duration_and_args(self):
        tracer = Tracer()
        with tracer.span("work", category="test") as args:
            args["k"] = "v"
        assert len(tracer) == 1
        span = tracer.spans[0]
        assert span.name == "work"
        assert span.category == "test"
        assert span.track == WALL_TRACK
        assert span.duration_s >= 0.0
        assert span.args == {"k": "v"}

    def test_nesting_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        # Inner closes first but nests inside the outer's window.
        assert by_name["inner"].start_s >= by_name["outer"].start_s

    def test_span_recorded_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert len(tracer) == 1


class TestVirtualSpans:
    def test_add_span_explicit_times(self):
        tracer = Tracer()
        tracer.add_span("kernel", "kernel", start_s=1.5, duration_s=0.25,
                        args={"backend": "special"})
        span = tracer.spans[0]
        assert span.track == VIRTUAL_TRACK
        assert span.start_s == 1.5
        assert span.end_s == 1.75

    def test_instant_marker(self):
        tracer = Tracer()
        tracer.instant("hit", category="plan-cache", track=VIRTUAL_TRACK,
                       ts_s=2.0)
        assert tracer.spans[0].duration_s == 0.0
        assert tracer.spans[0].start_s == 2.0

    def test_rejects_negative_duration(self):
        with pytest.raises(ObservabilityError):
            Tracer().add_span("x", "c", start_s=0.0, duration_s=-1.0)

    def test_rejects_unknown_track(self):
        with pytest.raises(ObservabilityError):
            Tracer().add_span("x", "c", 0.0, 1.0, track="sidereal")


class TestBufferBounds:
    def test_drops_beyond_cap(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_SPANS", 3)
        tracer = Tracer()
        for i in range(5):
            tracer.add_span("s%d" % i, "c", float(i), 0.5)
        assert len(tracer) == 3
        assert tracer.dropped == 2

    def test_clear_resets(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_SPANS", 1)
        tracer = Tracer()
        tracer.add_span("a", "c", 0.0, 1.0)
        tracer.add_span("b", "c", 0.0, 1.0)
        tracer.clear()
        assert len(tracer) == 0 and tracer.dropped == 0


class TestQueries:
    def test_categories_and_by_category(self):
        tracer = Tracer()
        tracer.add_span("a", "batch", 0.0, 1.0)
        tracer.add_span("b", "kernel", 0.0, 1.0)
        tracer.add_span("c", "kernel", 1.0, 1.0)
        assert tracer.categories() == {"batch", "kernel"}
        assert len(tracer.by_category("kernel")) == 2


class TestGlobalTracer:
    def test_swap_and_reset(self):
        original = get_tracer()
        try:
            mine = Tracer()
            assert set_tracer(mine) is original
            assert get_tracer() is mine
            fresh = reset_tracer()
            assert get_tracer() is fresh is not mine
        finally:
            set_tracer(original)


class TestInstrument:
    def test_context_manager_records_span_and_metrics(self):
        from repro.obs import Registry

        tracer = Tracer()
        registry = Registry()
        with instrument("phase.one", category="experiment",
                        registry=registry, tracer=tracer) as inst:
            inst.annotate(rows=3)
        assert tracer.spans[0].category == "experiment"
        assert tracer.spans[0].args["rows"] == 3
        assert registry.counter(
            "phase_one_calls_total", labelnames=("status",)
        ).value(status="ok") == 1
        assert registry.histogram("phase_one_seconds").count() == 1

    def test_decorator_counts_errors(self):
        from repro.obs import Registry

        tracer = Tracer()
        registry = Registry()

        @instrument("job", registry=registry, tracer=tracer)
        def fails():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            fails()
        assert registry.counter(
            "job_calls_total", labelnames=("status",)
        ).value(status="error") == 1
        assert tracer.spans[0].args["error"] == "RuntimeError"

    def test_decorator_passes_through_return(self):
        from repro.obs import Registry

        @instrument("f", registry=Registry(), tracer=Tracer())
        def f(x):
            return x * 2

        assert f(21) == 42


class TestInstrumentErrorPath:
    """An exception must count exactly once, close the span, re-raise."""

    def _surfaces(self):
        from repro.obs import Registry

        return Registry(), Tracer()

    def test_context_manager_counts_error_exactly_once(self):
        registry, tracer = self._surfaces()
        with pytest.raises(KeyError):
            with instrument("step", registry=registry, tracer=tracer):
                raise KeyError("missing")
        counter = registry.counter("step_calls_total",
                                   labelnames=("status",))
        assert counter.value(status="error") == 1
        assert counter.value(status="ok") == 0
        assert counter.total() == 1

    def test_context_manager_closes_span_and_reraises(self):
        registry, tracer = self._surfaces()
        original = ValueError("boom")
        with pytest.raises(ValueError) as caught:
            with instrument("step", registry=registry, tracer=tracer):
                raise original
        assert caught.value is original       # not wrapped or swallowed
        assert len(tracer.spans) == 1         # span closed despite the raise
        span = tracer.spans[0]
        assert span.args["error"] == "ValueError"
        assert span.duration_s >= 0.0
        # The duration still lands in the histogram.
        assert registry.histogram("step_seconds").count() == 1

    def test_decorator_counts_error_exactly_once_and_reraises(self):
        registry, tracer = self._surfaces()

        @instrument("job", registry=registry, tracer=tracer)
        def fails():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            fails()
        counter = registry.counter("job_calls_total", labelnames=("status",))
        assert counter.value(status="error") == 1
        assert counter.total() == 1
        assert len(tracer.spans) == 1

    def test_mixed_outcomes_split_by_status(self):
        registry, tracer = self._surfaces()

        @instrument("job", registry=registry, tracer=tracer)
        def maybe(fail):
            if fail:
                raise RuntimeError("nope")
            return "ok"

        assert maybe(False) == "ok"
        with pytest.raises(RuntimeError):
            maybe(True)
        assert maybe(False) == "ok"
        counter = registry.counter("job_calls_total", labelnames=("status",))
        assert counter.value(status="ok") == 2
        assert counter.value(status="error") == 1
        assert registry.histogram("job_seconds").count() == 3
        assert len(tracer.spans) == 3

    def test_nested_error_closes_both_spans(self):
        registry, tracer = self._surfaces()
        with pytest.raises(RuntimeError):
            with instrument("outer", registry=registry, tracer=tracer):
                with instrument("inner", registry=registry, tracer=tracer):
                    raise RuntimeError("deep")
        by_name = {s.name: s for s in tracer.spans}
        assert set(by_name) == {"outer", "inner"}
        assert by_name["inner"].depth == 1
        assert by_name["outer"].args["error"] == "RuntimeError"
        assert by_name["inner"].args["error"] == "RuntimeError"
