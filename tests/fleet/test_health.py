"""Tests for circuit breakers, health tracking, and degradation."""

import pytest

from repro.errors import ReproError
from repro.fleet import DEGRADATION_LEVELS, CircuitBreaker, HealthTracker
from repro.fleet import health as fleet_health
from repro.obs.metrics import Registry


class TestCircuitBreaker:
    @pytest.fixture(autouse=True)
    def one_second_cooldown(self, monkeypatch):
        monkeypatch.setattr(fleet_health, "BREAKER_COOLDOWN_S", 1.0)

    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        assert breaker.record_failure(0.0) is None
        assert breaker.record_failure(0.0) is None
        assert breaker.record_failure(0.0) == "open"
        assert not breaker.allow(0.5)

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure(0.0)
        breaker.record_success(0.0)
        assert breaker.record_failure(0.0) is None
        assert breaker.state(0.0) == "closed"

    def test_half_open_after_cooldown_then_probe_closes(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure(0.0)
        assert breaker.state(0.5) == "open"
        assert breaker.state(1.0) == "half-open"
        assert breaker.allow(1.0)
        assert breaker.record_success(1.0) == "closed"

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure(0.0)
        assert breaker.state(1.0) == "half-open"
        assert breaker.record_failure(1.0) == "open"
        assert breaker.state(1.5) == "open"
        assert breaker.state(2.0) == "half-open"

    def test_validation(self):
        with pytest.raises(ReproError):
            CircuitBreaker(failure_threshold=0)


class TestHealthTracker:
    def tracker(self, registry=None, **kwargs):
        return HealthTracker(4, registry=registry, **kwargs)

    def test_failures_and_failovers_counted_by_reason(self):
        registry = Registry()
        health = self.tracker(registry)
        health.record_failure(1, "crash", 0.0)
        health.record_failure(1, "wedge", 0.0)
        health.record_failover("crash")
        assert health.failures == 2
        assert health.failovers == 1
        stats = health.stats(0.0)
        assert stats["failures_by_reason"] == {"1/crash": 1, "1/wedge": 1}
        assert stats["failovers_by_reason"] == {"crash": 1}
        assert registry.get("fleet_failovers_total").total() == 1

    def test_breaker_state_gauge_and_transitions(self):
        registry = Registry()
        health = self.tracker(registry, failure_threshold=2)
        health.record_failure(0, "crash", 0.0)
        health.record_failure(0, "crash", 0.0)
        assert registry.get("fleet_breaker_state").value(replica="0") == 2
        assert registry.get(
            "fleet_breaker_transitions_total").value(replica="0", to="open") == 1

    def test_degradation_levels(self):
        health = self.tracker(failure_threshold=1)
        assert health.degradation(0.0) == "healthy"
        health.record_failover("crash")
        assert health.degradation(0.0) == "degraded"
        health.record_failure(0, "crash", 0.0)
        health.record_failure(1, "crash", 0.0)
        # 2 of 4 breakers open: half the fleet is down -> critical.
        assert health.degradation(0.0) == "critical"
        assert health.degradation(0.0) in DEGRADATION_LEVELS

    def test_begin_replay_clears_failover_degradation(self):
        health = self.tracker()
        health.record_failover("wedge")
        assert health.degradation(0.0) == "degraded"
        health.begin_replay()
        assert health.degradation(0.0) == "healthy"

    def test_open_breaker_recovers_through_virtual_time(self):
        health = self.tracker(failure_threshold=1)
        health.record_failure(2, "crash", 0.0)
        assert not health.allow(2, 0.01)
        assert health.allow(2, 0.06)          # half-open probe allowed
        health.record_success(2, 0.06)
        assert health.states(0.06)[2] == "closed"

    def test_stats_are_json_shaped(self):
        import json

        health = self.tracker()
        health.record_failure(0, "crash", 0.0)
        health.record_hedge()
        health.record_obs_drop()
        snap = health.stats(0.0)
        json.dumps(snap)
        assert snap["hedges"] == 1
        assert snap["obs_dropped"] == 1
        assert snap["breakers"]["0"] == "closed"
