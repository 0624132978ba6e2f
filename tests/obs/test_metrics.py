"""Tests for the metrics registry (counters, gauges, histograms)."""

import math

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    get_registry,
    reset_registry,
    set_registry,
)
from repro.obs import metrics


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("requests_total", labelnames=("backend",))
        c.inc(backend="naive")
        c.inc(2.5, backend="naive")
        c.inc(backend="special")
        assert c.value(backend="naive") == pytest.approx(3.5)
        assert c.value(backend="special") == 1.0
        assert c.total() == pytest.approx(4.5)

    def test_unlabeled(self):
        c = Counter("ticks_total")
        assert c.value() == 0.0
        c.inc()
        assert c.value() == 1.0

    def test_rejects_decrease(self):
        c = Counter("x_total")
        with pytest.raises(ObservabilityError):
            c.inc(-1.0)

    def test_rejects_wrong_labels(self):
        c = Counter("x_total", labelnames=("a",))
        with pytest.raises(ObservabilityError):
            c.inc(b="nope")
        with pytest.raises(ObservabilityError):
            c.inc()

    def test_rejects_bad_name(self):
        with pytest.raises(ObservabilityError):
            Counter("bad name")
        with pytest.raises(ObservabilityError):
            Counter("x", labelnames=("bad-label",))


class TestKeyedWrites:
    """``inc_key`` / ``set_key`` / ``observe_key`` write the series the
    keyword path writes, keyed by the ``str`` label values."""

    WRITES = [
        (Counter, lambda m, key: m.inc_key(key, 2.0),
         lambda m, **labels: m.inc(2.0, **labels)),
        (Gauge, lambda m, key: m.set_key(key, 2.0),
         lambda m, **labels: m.set(2.0, **labels)),
        (Histogram, lambda m, key: m.observe_key(key, 2.0),
         lambda m, **labels: m.observe(2.0, **labels)),
    ]

    @pytest.mark.parametrize("cls, keyed, labeled", WRITES,
                             ids=["counter", "gauge", "histogram"])
    @pytest.mark.parametrize("labelnames, key, labels", [
        ((), (), {}),
        (("replica",), ("1",), {"replica": 1}),
        (("a", "b"), ("x", "y"), {"b": "y", "a": "x"}),
    ], ids=["unlabeled", "one-label", "two-labels"])
    def test_keyed_write_is_the_labeled_write(self, cls, keyed, labeled,
                                              labelnames, key, labels):
        by_key = cls("m", labelnames=labelnames)
        by_labels = cls("m", labelnames=labelnames)
        keyed(by_key, key)
        labeled(by_labels, **labels)
        assert by_key.collect() == by_labels.collect()
        assert list(by_key._series) == [key]

    @pytest.mark.parametrize("cls, keyed, labeled", WRITES,
                             ids=["counter", "gauge", "histogram"])
    def test_keyed_write_rejects_wrong_arity(self, cls, keyed, labeled):
        metric = cls("m", labelnames=("replica",))
        for key in ((), ("1", "2")):
            with pytest.raises(ObservabilityError):
                keyed(metric, key)
        assert metric._series == {}

    def test_unlabeled_metric_rejects_labels(self):
        with pytest.raises(ObservabilityError):
            Gauge("g").set(1.0, replica=0)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("queue_depth")
        g.set(5)
        g.inc(2)
        g.dec()
        assert g.value() == 6.0

    def test_gauges_can_go_negative(self):
        g = Gauge("delta")
        g.dec(3)
        assert g.value() == -3.0


class TestHistogram:
    def test_count_sum_mean_max(self):
        h = Histogram("latency_seconds")
        for v in (0.1, 0.2, 0.3):
            h.observe(v)
        assert h.count() == 3
        assert h.sum() == pytest.approx(0.6)
        assert h.mean() == pytest.approx(0.2)
        assert h.max() == pytest.approx(0.3)

    def test_percentiles_exact_on_small_series(self):
        h = Histogram("x")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        assert h.percentile(95) == pytest.approx(95.05)

    def test_percentile_empty_is_zero(self):
        assert Histogram("x").percentile(99) == 0.0

    def test_percentile_bounds_checked(self):
        with pytest.raises(ObservabilityError):
            Histogram("x").percentile(101)

    def test_value_counts(self):
        h = Histogram("batch_size", buckets=(1, 2, 4, 8))
        for v in (1, 1, 2, 4, 4, 4):
            h.observe(v)
        assert h.value_counts() == {1.0: 2, 2.0: 1, 4.0: 3}

    def test_cumulative_buckets_monotone_ending_inf(self):
        h = Histogram("x", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        buckets = h.cumulative_buckets()
        bounds = [b for b, _ in buckets]
        counts = [c for _, c in buckets]
        assert bounds == [1.0, 10.0, 100.0, math.inf]
        assert counts == [1, 2, 3, 4]
        assert counts == sorted(counts)

    def test_deterministic_decimation_bounds_memory(self, monkeypatch):
        monkeypatch.setattr(metrics, "MAX_SAMPLES", 64)
        h = Histogram("x")
        for v in range(10_000):
            h.observe(float(v))
        assert h.count() == 10_000
        series = h._series[()]
        assert len(series.samples) <= 64
        # Quantiles remain close under decimation of a uniform stream.
        assert h.percentile(50) == pytest.approx(5000, rel=0.15)

    def test_labeled_series_are_independent(self):
        h = Histogram("x", labelnames=("k",))
        h.observe(1.0, k="a")
        h.observe(9.0, k="b")
        assert h.count(k="a") == 1
        assert h.mean(k="b") == 9.0

    def test_rejects_non_increasing_buckets(self):
        with pytest.raises(ObservabilityError):
            Histogram("x", buckets=(1.0, 1.0, 2.0))


class TestHistogramTruncation:
    """Reservoir-truncated quantiles must say they are estimates."""

    @pytest.fixture(autouse=True)
    def small_reservoir(self, monkeypatch):
        monkeypatch.setattr(metrics, "MAX_SAMPLES", 64)

    def test_exact_until_reservoir_fills(self):
        h = Histogram("x")
        for v in range(64):
            h.observe(float(v))
        assert h.observed_count() == h.sample_count() == 64
        assert h.is_estimated() is False
        series = h.collect()["series"][0]["value"]
        assert series["estimated"] is False
        assert series["observed_count"] == series["sample_count"] == 64
        assert "quantiles" not in series

    def test_observed_vs_sample_count_diverge_after_truncation(self):
        h = Histogram("x")
        for v in range(1000):
            h.observe(float(v))
        assert h.observed_count() == 1000
        assert h.sample_count() < 1000
        assert h.is_estimated() is True
        # count stays the true observation count, never the reservoir's.
        assert h.count() == 1000

    def test_collect_marks_estimated_quantiles(self):
        h = Histogram("x")
        for v in range(1000):
            h.observe(float(v))
        series = h.collect()["series"][0]["value"]
        assert series["estimated"] is True
        assert series["observed_count"] == 1000
        assert series["sample_count"] == h.sample_count()
        q = series["quantiles"]
        assert q["p50"] == pytest.approx(500, rel=0.2)
        assert q["p50"] <= q["p95"] <= q["p99"]

    def test_estimated_is_per_labeled_series(self):
        h = Histogram("x", labelnames=("k",))
        for v in range(1000):
            h.observe(float(v), k="big")
        h.observe(1.0, k="small")
        assert h.is_estimated(k="big") is True
        assert h.is_estimated(k="small") is False
        by_labels = {
            s["labels"]["k"]: s["value"] for s in h.collect()["series"]}
        assert by_labels["big"]["estimated"] is True
        assert by_labels["small"]["estimated"] is False

    def test_untouched_series_not_estimated(self):
        h = Histogram("x")
        assert h.is_estimated() is False
        assert h.observed_count() == h.sample_count() == 0

    def test_serve_and_fleet_snapshots_expose_the_flag(self):
        from repro.fleet.slo import FleetStats
        from repro.serve.stats import ServeStats

        serve = ServeStats(clock_hz=1e9)
        serve.record_latency(1e-3)
        assert serve.snapshot()["latency_estimated"] is False
        fleet = FleetStats()
        assert fleet.snapshot(n_replicas=1)["latency_estimated"] is False


class TestRegistry:
    def test_get_or_create_returns_same_metric(self):
        reg = Registry()
        a = reg.counter("hits_total", labelnames=("k",))
        b = reg.counter("hits_total", labelnames=("k",))
        assert a is b

    def test_type_conflict_rejected(self):
        reg = Registry()
        reg.counter("x")
        with pytest.raises(ObservabilityError):
            reg.gauge("x")

    def test_labelnames_conflict_rejected(self):
        reg = Registry()
        reg.counter("x", labelnames=("a",))
        with pytest.raises(ObservabilityError):
            reg.counter("x", labelnames=("b",))

    def test_collect_is_json_serializable(self):
        import json

        reg = Registry()
        reg.counter("c_total", "help text", labelnames=("k",)).inc(k="v")
        reg.gauge("g").set(2.0)
        reg.histogram("h").observe(0.5)
        doc = json.loads(json.dumps(reg.collect()))
        assert [m["name"] for m in doc] == ["c_total", "g", "h"]
        assert doc[0]["type"] == "counter"
        assert doc[2]["series"][0]["value"]["count"] == 1

    def test_contains_iter_len(self):
        reg = Registry()
        reg.counter("a")
        reg.gauge("b")
        assert "a" in reg and "c" not in reg
        assert len(reg) == 2
        assert reg.names() == ["a", "b"]


def populated_registry():
    registry = Registry()
    requests = registry.counter("snap_requests_total", "requests",
                                labelnames=("backend",))
    requests.inc(3, backend="special")
    requests.inc(2.5, backend="general")
    registry.gauge("snap_queue_depth", "depth").set(7)
    lat = registry.histogram("snap_latency_seconds", "latency")
    for v in (0.001, 0.002, 0.004, 0.008):
        lat.observe(v)
    return registry


class TestRegistryMerge:
    def test_merge_into_empty_reproduces_counters(self):
        merged = Registry()
        merged.merge(populated_registry())
        counter = merged.get("snap_requests_total")
        assert counter.value(backend="special") == 3.0
        assert counter.value(backend="general") == 2.5
        assert merged.get("snap_queue_depth").value() == 7.0
        assert merged.collect() == populated_registry().collect()

    def test_counters_merge_by_summation(self):
        target = populated_registry()
        target.merge(populated_registry())
        assert target.get("snap_requests_total").total() == 11.0

    def test_gauges_take_the_last_write(self):
        target = populated_registry()
        other = Registry()
        other.gauge("snap_queue_depth", "depth").set(2)
        target.merge(other)
        assert target.get("snap_queue_depth").value() == 2.0

    def test_histogram_aggregates_merge_exactly(self):
        target = populated_registry()
        target.merge(populated_registry())
        hist = target.get("snap_latency_seconds")
        assert hist.count() == 8
        assert hist.sum() == pytest.approx(2 * 0.015)
        series = hist.collect()["series"][0]["value"]
        assert series["min"] == 0.001
        assert series["max"] == 0.008

    def test_histogram_samples_append_and_redecimate(self, monkeypatch):
        monkeypatch.setattr(metrics, "MAX_SAMPLES", 4)
        target, other = Registry(), Registry()
        for registry, start in ((target, 0), (other, 100)):
            hist = registry.histogram("snap_sizes")
            for v in range(start, start + 3):
                hist.observe(v)
        target.merge(other)
        hist = target.get("snap_sizes")
        assert hist.count() == 6
        assert hist.is_estimated()
        # 6 retained samples exceed the bound of 4: keep every other one.
        assert hist.value_counts() == {0.0: 2, 2.0: 2, 101.0: 2}

    def test_empty_series_merge_is_noop(self):
        registry = Registry()
        registry.counter("snap_zero_total", "z", labelnames=("k",)).inc(
            0, k="a")
        registry.histogram("snap_empty_seconds", "e")
        merged = Registry()
        merged.merge(registry)
        assert merged.get("snap_zero_total").series() == []
        assert merged.get("snap_empty_seconds").count() == 0

    def test_type_conflict_rejected(self):
        target = Registry()
        target.gauge("snap_requests_total")
        with pytest.raises(ObservabilityError):
            target.merge(populated_registry())


class TestGlobalRegistry:
    def test_swap_and_restore(self):
        original = get_registry()
        mine = Registry()
        previous = set_registry(mine)
        try:
            assert get_registry() is mine
            assert previous is original
        finally:
            set_registry(original)

    def test_reset_replaces(self):
        original = get_registry()
        try:
            fresh = reset_registry()
            assert get_registry() is fresh
            assert fresh is not original
        finally:
            set_registry(original)

    def test_set_registry_validates(self):
        with pytest.raises(ObservabilityError):
            set_registry("not a registry")
