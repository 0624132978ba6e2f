"""Tests for the registry-backed ServeStats surface."""

import pytest

from repro.obs import Registry
from repro.serve.stats import ServeStats, format_stats

CLOCK_HZ = 745e6


def _stats() -> ServeStats:
    return ServeStats(clock_hz=CLOCK_HZ)


class TestRecordBatch:
    def test_aggregates_match_legacy_contract(self):
        s = _stats()
        s.record_batch("special", 4, 1e-4, "full")
        s.record_batch("general", 2, 2e-4, "deadline")
        assert s.served == 6
        assert s.batches == 2
        assert s.busy_s == pytest.approx(3e-4)
        snap = s.snapshot()
        assert snap["fallbacks"] == 0
        assert snap["requests_per_backend"] == {"special": 4, "general": 2}
        assert snap["batches_per_backend"] == {"special": 1, "general": 1}
        assert snap["flush_reasons"] == {"full": 1, "deadline": 1}
        assert snap["batch_size_hist"] == {"2": 1, "4": 1}
        assert snap["mean_batch_size"] == 3.0

    def test_throughput(self):
        s = _stats()
        s.record_batch("naive", 10, 1e-3, "drain")
        assert s.throughput_rps == pytest.approx(10_000)

    def test_empty_snapshot_is_all_zeros(self):
        snap = _stats().snapshot()
        assert snap["served"] == 0
        assert snap["mean_batch_size"] == 0.0
        assert snap["throughput_rps"] == 0.0
        assert snap["latency_p99_s"] == 0.0
        assert snap["modeled_cycles_hist"] == {}


class TestLatencyPercentiles:
    def test_percentiles_in_snapshot(self):
        s = _stats()
        for i in range(1, 101):
            s.record_latency(i * 1e-3)
        snap = s.snapshot()
        assert snap["latency_p50_s"] == pytest.approx(50.5e-3)
        assert snap["latency_p95_s"] == pytest.approx(95.05e-3)
        assert snap["latency_p99_s"] == pytest.approx(99.01e-3)
        assert (snap["mean_latency_s"] <= snap["latency_p95_s"]
                <= snap["latency_p99_s"] <= snap["max_latency_s"])

    def test_mean_and_max_preserved(self):
        s = _stats()
        for v in (1e-3, 2e-3, 6e-3):
            s.record_latency(v)
        snap = s.snapshot()
        assert snap["mean_latency_s"] == pytest.approx(3e-3)
        assert snap["max_latency_s"] == pytest.approx(6e-3)


class TestCyclesHistogramGuard:
    def test_positive_cycles_bucket_log10(self):
        s = _stats()
        s.record_batch("naive", 1, 1e-3, "full")   # 745e3 cycles -> 1e5
        assert s.snapshot()["modeled_cycles_hist"] == {"1e5": 1}

    def test_zero_seconds_goes_to_nonpositive_bucket(self):
        s = _stats()
        s.record_batch("naive", 1, 0.0, "full")
        assert s.snapshot()["modeled_cycles_hist"] == {"<=0": 1}

    def test_mixed_buckets_sorted(self):
        s = _stats()
        s.record_batch("naive", 1, 0.0, "full")
        s.record_batch("naive", 1, 1e-3, "full")
        s.record_batch("naive", 1, 2e-3, "full")
        hist = s.snapshot()["modeled_cycles_hist"]
        assert hist == {"<=0": 1, "1e5": 1, "1e6": 1}


class TestRegistryBacking:
    def test_series_visible_in_shared_registry(self):
        reg = Registry()
        s = ServeStats(clock_hz=CLOCK_HZ, registry=reg)
        s.record_batch("special", 4, 1e-4, "full")
        counter = reg.get("serve_requests_total")
        assert counter.value(backend="special") == 4
        assert reg.get("serve_latency_seconds") is not None

    def test_private_registries_do_not_mix(self):
        a = _stats()
        b = _stats()
        a.record_batch("naive", 5, 1e-4, "full")
        assert b.served == 0


class TestFormatStats:
    def test_renders_percentile_line(self):
        s = _stats()
        s.record_batch("special", 2, 1e-4, "full")
        s.record_latency(1e-3)
        s.record_latency(2e-3)
        text = format_stats(s.snapshot())
        assert "latency p50/p95/p99" in text
        assert "served 2 requests" in text

    def test_legacy_snapshot_without_percentiles_still_renders(self):
        s = _stats()
        s.record_batch("special", 2, 1e-4, "full")
        snap = s.snapshot()
        for key in ("latency_p50_s", "latency_p95_s", "latency_p99_s"):
            del snap[key]
        assert "latency p50" not in format_stats(snap)
