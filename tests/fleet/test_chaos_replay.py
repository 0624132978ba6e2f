"""Integration tests: fleet replays under injected faults.

The contract under test is the tentpole guarantee: with a chaos plan
installed, every admitted-and-not-abandoned request is answered exactly
once, bit-identically to a fault-free fleet, and two same-seed runs
produce identical outcomes.
"""

import numpy as np
import pytest

from repro.chaos import FaultInjector, FaultPlan
from repro.errors import ReproError
from repro.fleet import FleetConfig, FleetEngine
from repro.fleet import engine as fleet_engine
from repro.fleet import health as fleet_health
from repro.obs import Tracer
from repro.serve import synthetic_trace


def trace(n=80, seed=5, **kwargs):
    return synthetic_trace(n, seed=seed, **kwargs)


def fleet(replicas=4, chaos=None, **kwargs):
    kwargs.setdefault("queue_depth", 256)
    return FleetEngine(FleetConfig(replicas=replicas, **kwargs),
                       chaos=chaos)


def digests(result):
    return {r.req_id: (r.backend, r.output.tobytes())
            for r in result.responses if r is not None}


class TestBitIdenticalUnderFaults:
    @pytest.mark.parametrize("spec", [
        "crash:replica=1",
        "crash:replica=1,after=5",
        "wedge:replica=3",
        "slow:replica=0,factor=8",
        "obs-drop:replica=1",
        "build-fail:times=2",
    ])
    def test_single_fault_outputs_match_baseline(self, spec):
        reqs = trace(60)
        baseline = digests(fleet().serve_trace(trace(60)))
        chaotic = fleet(chaos="seed=1;" + spec).serve_trace(reqs)
        got = digests(chaotic)
        assert got, "chaotic fleet served nothing"
        for req_id, payload in got.items():
            assert payload == baseline[req_id]

    def test_nothing_lost_nothing_duplicated(self):
        engine = fleet(chaos="seed=1;crash:replica=1;wedge:replica=3")
        result = engine.serve_trace(trace(100))
        answered = [r.req_id for r in result.responses if r is not None]
        assert len(answered) == len(set(answered))
        shed_ids = {r.req_id for r in result.shed}
        assert len(answered) + len(shed_ids) == 100
        assert result.failovers >= 2

    def test_same_seed_runs_are_identical(self):
        def run():
            engine = fleet(
                chaos="seed=7;crash:replica=1,times=2;slow:factor=6")
            result = engine.serve_trace(trace(70, seed=9))
            return (digests(result), result.failovers,
                    [(r.req_id, r.reason) for r in result.shed])

        assert run() == run()


class TestFailover:
    def test_crash_counts_a_failover_and_recovers(self):
        engine = fleet(chaos="crash:replica=1")
        result = engine.serve_trace(trace(60))
        assert result.failovers == 1
        stats = engine.health.stats(engine.clock_s)
        assert stats["failovers_by_reason"] == {"crash": 1}
        assert stats["failures_by_reason"] == {"1/crash": 1}
        # The fault is spent: a second replay is fault-free.
        assert fleet().serve_trace(trace(60)).failovers == 0
        assert engine.serve_trace(trace(60, seed=8)).failovers == 0

    def test_exhausted_failover_abandons_to_failed_shed(self):
        # One replica, crash fires on every attempt: the shard runs out
        # of failover rounds and every admitted request is accounted as
        # a "failed" shed -- never silently lost.
        engine = fleet(replicas=1, chaos="crash:replica=0,times=99")
        reqs = trace(24)
        result = engine.serve_trace(reqs)
        assert result.served == 0
        assert len(result.abandoned) > 0
        assert result.served + result.shed_count == len(reqs)
        assert all(r.reason == "failed" for r in result.abandoned)

    def test_breaker_open_reroutes_before_dispatch(self, monkeypatch):
        monkeypatch.setattr(fleet_engine, "FAILOVER_RETRIES", 1)
        monkeypatch.setattr(fleet_health, "BREAKER_COOLDOWN_S", 1e9)
        engine = fleet(chaos="crash:replica=1,times=3", breaker_threshold=1)
        engine.serve_trace(trace(40))           # trips replica 1's breaker
        result = engine.serve_trace(trace(40))  # shard re-homed pre-dispatch
        assert result.served == 40
        stats = engine.health.stats(engine.clock_s)
        assert stats["failovers_by_reason"].get("breaker-open", 0) >= 1
        assert stats["breakers"]["1"] == "open"

    def test_raising_shard_fails_over_as_error(self, monkeypatch):
        real = fleet_engine._serve_replica_shard
        raised = []

        def raise_once_on_replica_1(replica, *args):
            if replica == 1 and not raised:
                raised.append(replica)
                raise RuntimeError("replica 1 shard blew up")
            return real(replica, *args)

        clean = fleet()
        baseline = digests(clean.serve_trace(trace(60)))
        assert "last_errors" not in clean.stats()["health"]
        monkeypatch.setattr(fleet_engine, "_serve_replica_shard",
                            raise_once_on_replica_1)
        engine = fleet()
        result = engine.serve_trace(trace(60))
        assert raised == [1]
        assert result.failovers == 1
        # The exception's text survives next to the counted reason.
        assert engine.stats()["health"]["last_errors"] == {
            "1": "RuntimeError: replica 1 shard blew up"}
        assert ("replica 1 last error: RuntimeError: replica 1 shard blew up"
                in engine.format_stats())
        failures = engine.registry.get("fleet_replica_failures_total")
        assert failures.total() == 1.0
        assert failures.value(replica=1, reason="error") == 1.0
        assert engine.registry.get("fleet_failovers_total").value(
            reason="error") == 1.0
        # Nothing lost, nothing duplicated, every answer bit-identical.
        answered = [r.req_id for r in result.responses if r is not None]
        assert len(answered) == len(set(answered)) == 60
        assert result.shed_count == 0
        assert digests(result) == baseline

    def test_obs_drop_served_and_counted(self):
        engine = fleet(chaos="obs-drop:replica=1")
        result = engine.serve_trace(trace(60))
        assert result.served == 60
        assert engine.health.obs_dropped == 1

    def test_hedge_bounds_slow_replica_makespan(self):
        slow = fleet(chaos="seed=2;slow:replica=1,factor=50")
        hedged = fleet(chaos="seed=2;slow:replica=1,factor=50", hedge=True)
        slow_result = slow.serve_trace(trace(60))
        hedged_result = hedged.serve_trace(trace(60))
        assert hedged_result.hedges == 1
        assert hedged.clock_s < slow.clock_s
        assert digests(hedged_result) == digests(slow_result)


class TestReplicaTracing:
    """A replica attempt traces only when the fleet can fold its spans:
    inside a traced fleet, and never on a hedge, whose telemetry is
    never merged."""

    SPEC = "seed=2;crash:replica=1;slow:replica=0,factor=50"

    def _replay(self, monkeypatch, tracer):
        real = fleet_engine.ServeEngine
        tracers = []

        def recording(*args, **kwargs):
            tracers.append(kwargs.get("tracer"))
            return real(*args, **kwargs)

        monkeypatch.setattr(fleet_engine, "ServeEngine", recording)
        engine = FleetEngine(
            FleetConfig(replicas=4, queue_depth=256, hedge=True),
            chaos=self.SPEC, tracer=tracer)
        result = engine.serve_trace(trace(60))
        assert (result.served, result.failovers, result.hedges) == (60, 1, 1)
        return tracers

    def test_untraced_fleet_builds_untraced_replicas(self, monkeypatch):
        tracers = self._replay(monkeypatch, tracer=None)
        # Every primary, the crashed one, its failover, and the hedge.
        assert len(tracers) == 5
        assert tracers == [None] * 5

    def test_traced_fleet_traces_every_attempt_but_the_hedge(
            self, monkeypatch):
        tracers = self._replay(monkeypatch, tracer=Tracer())
        assert len(tracers) == 5
        assert sum(t is None for t in tracers) == 1
        assert all(isinstance(t, Tracer) for t in tracers if t is not None)


class TestClockAndConfig:
    def test_advance_clock_moves_epoch_and_rejects_negative(self):
        engine = fleet()
        assert engine.advance_clock(0.25) == pytest.approx(0.25)
        assert engine.clock_s == pytest.approx(0.25)
        with pytest.raises(ReproError, match="advance"):
            engine.advance_clock(-1.0)

    def test_chaos_accepts_plan_and_injector(self):
        plan = FaultPlan.parse("seed=3;crash")
        assert fleet(chaos=plan).chaos.plan == plan
        inj = FaultInjector(plan, 4)
        assert fleet(chaos=inj).chaos is inj
        with pytest.raises(ReproError, match="chaos"):
            fleet(chaos=123)

    def test_environment_injects_nothing(self, monkeypatch):
        # Faults come in through ``chaos=`` only: a stray variable that
        # once read as a spec leaves a chaosless fleet alone.
        monkeypatch.setenv("REPRO_CHAOS", "seed=4;crash:replica=1")
        engine = fleet()
        assert engine.chaos is None
        assert engine.serve_trace(trace(60)).failovers == 0

    def test_chaosless_engine_has_no_injector(self):
        assert fleet().chaos is None

    def test_resilience_config_validated(self):
        with pytest.raises(ReproError):
            FleetConfig(breaker_threshold=0)


class TestStatsSurface:
    def test_stats_report_health_and_degradation(self):
        engine = fleet(chaos="crash:replica=1")
        engine.serve_trace(trace(60))
        snap = engine.stats()
        assert snap["degradation"] == "degraded"
        assert snap["health"]["failovers"] == 1
        healthy = fleet()
        healthy.serve_trace(trace(60))
        assert healthy.stats()["degradation"] == "healthy"
