"""Tests for the fleet engine: determinism, shedding, SLOs, telemetry."""

import math

import numpy as np
import pytest

from repro.conv.reference import conv2d_reference
from repro.errors import ReproError
from repro.fleet import (
    MAX_QUEUE_DEPTH,
    MAX_REPLICAS,
    FleetConfig,
    FleetEngine,
    SharedPlanCache,
    check_queue_depth,
    check_replicas,
)
from repro.obs.metrics import Registry
from repro.obs.tracing import WALL_TRACK, Tracer
from repro.serve import ServeEngine, synthetic_trace


def trace(n=120, seed=5, **kwargs):
    return synthetic_trace(n, seed=seed, **kwargs)


def fleet(replicas=4, tracer=None, shared_cache=None, **kwargs):
    return FleetEngine(FleetConfig(replicas=replicas, **kwargs),
                       tracer=tracer, shared_cache=shared_cache)


class TestValidation:
    def test_replica_bounds_named_in_error(self):
        for bad in (0, -1, MAX_REPLICAS + 1, "4"):
            with pytest.raises(ReproError, match="1..%d" % MAX_REPLICAS):
                check_replicas(bad)
        assert check_replicas(MAX_REPLICAS) == MAX_REPLICAS

    def test_queue_depth_bounds_named_in_error(self):
        for bad in (0, MAX_QUEUE_DEPTH + 1):
            with pytest.raises(ReproError, match="1..%d" % MAX_QUEUE_DEPTH):
                check_queue_depth(bad)
        assert check_queue_depth(1) == 1

    def test_config_validates_on_construction(self):
        with pytest.raises(ReproError):
            FleetConfig(replicas=0)
        with pytest.raises(ReproError):
            FleetConfig(queue_depth=0)

    def test_duplicate_request_ids_rejected(self):
        reqs = trace(4)
        reqs[1].req_id = reqs[0].req_id
        with pytest.raises(ReproError, match="unique"):
            fleet().serve_trace(reqs)


class TestOneProcess:
    """A cold engine and a cold fleet answer like the reference."""

    def check(self, requests, responses):
        assert len(responses) == len(requests)
        for request, response in zip(requests, responses):
            assert response.req_id == request.req_id
            want = conv2d_reference(request.image, request.filters,
                                    problem=request.problem)
            assert np.array_equal(response.output, want)

    def test_cold_engine_matches_reference(self):
        reqs = trace(24)
        self.check(reqs, ServeEngine().serve_trace(reqs))

    def test_cold_fleet_matches_reference(self):
        reqs = trace(24)
        self.check(reqs, fleet(replicas=4).serve_trace(reqs).responses)


class TestDeterminism:
    def test_fleet_matches_serial_single_engine_bitwise(self):
        reqs = trace(150)
        result = fleet(replicas=4).serve_trace(reqs)
        serial = ServeEngine().serve_trace(trace(150))
        assert result.served == len(reqs)
        for got, want in zip(result.responses, serial):
            assert got.req_id == want.req_id
            assert got.backend == want.backend
            assert np.array_equal(got.output, want.output)

    def test_replay_is_reproducible(self):
        a = fleet(replicas=4).serve_trace(trace(60))
        b = fleet(replicas=4).serve_trace(trace(60))
        assert a.assignments == b.assignments
        for x, y in zip(a.responses, b.responses):
            assert np.array_equal(x.output, y.output)


class TestRoutingAndShedding:
    def test_same_shape_lands_on_one_replica(self):
        reqs = trace(60)
        result = fleet(replicas=4).serve_trace(reqs)
        homes = {}
        for request, replica in zip(reqs, result.assignments):
            homes.setdefault(request.problem, set()).add(replica)
        assert all(len(replicas) == 1 for replicas in homes.values())

    def test_tiny_queue_sheds_and_aligns_responses(self):
        # rate 0: every request arrives at t=0, so a bound of 1 admits
        # one request per distinct home replica and sheds the rest.
        reqs = trace(40, rate_hz=None)
        result = fleet(replicas=2, queue_depth=1).serve_trace(reqs)
        assert result.shed_count > 0
        assert result.served + result.shed_count == len(reqs)
        shed_ids = {record.req_id for record in result.shed}
        for request, response in zip(reqs, result.responses):
            if request.req_id in shed_ids:
                assert response is None
            else:
                assert response is not None
        assert all(record.reason == "overload" for record in result.shed)

    def test_expired_deadlines_are_shed_not_served(self):
        reqs = trace(10, deadline_budget_s=0.0)
        result = fleet(replicas=2).serve_trace(reqs)
        assert result.served == 0
        assert result.shed_count == len(reqs)
        assert all(record.reason == "expired" for record in result.shed)


class TestSLOAccounting:
    def test_deadline_misses_counted(self):
        # A deadline budget shorter than the batching deadline cannot be
        # met by flushed-at-deadline batches: misses must be non-zero.
        engine = fleet(replicas=2)
        result = engine.serve_trace(trace(60, deadline_budget_s=2e-4))
        snap = engine.stats()
        assert result.served > 0
        assert snap["deadline_misses"] > 0
        assert snap["deadline_miss_rate"] > 0
        per_replica = sum(block["deadline_misses"]
                          for block in snap["replicas"].values())
        assert per_replica == snap["deadline_misses"]

    def test_stats_snapshot_shape(self):
        engine = fleet(replicas=2)
        engine.serve_trace(trace(40))
        snap = engine.stats()
        for key in ("served", "latency_p50_s", "latency_p95_s",
                    "latency_p99_s", "deadline_misses", "sustained_rps",
                    "modeled_makespan_s", "admission", "router",
                    "shared_plan_cache", "replicas"):
            assert key in snap
        assert snap["served"] == 40
        assert snap["router"]["affinity_hit_rate"] == 1.0
        assert snap["admission"]["shed"] == 0
        served_blocks = [block for block in snap["replicas"].values()
                         if block["served"]]
        assert served_blocks and all("engine" in block
                                     for block in served_blocks)

    def test_makespan_bounds_throughput(self):
        engine = fleet(replicas=2)
        engine.serve_trace(trace(40))
        snap = engine.stats()
        assert snap["modeled_makespan_s"] > 0
        assert snap["sustained_rps"] == pytest.approx(
            snap["served"] / snap["modeled_makespan_s"])

    def test_format_stats_renders(self):
        engine = fleet(replicas=2)
        engine.serve_trace(trace(30))
        text = engine.format_stats()
        assert "sustained throughput" in text
        assert "router affinity" in text
        assert "replica 0" in text


class TestSharedCacheTier:
    def test_second_fleet_hits_shared_tier(self):
        shared = SharedPlanCache()
        fleet(replicas=2, shared_cache=shared).serve_trace(trace(30))
        assert shared.misses > 0 and shared.hits == 0
        warm = fleet(replicas=2, shared_cache=shared)
        warm.serve_trace(trace(30))
        assert shared.hits > 0
        assert warm.stats()["shared_plan_cache"]["hits"] > 0

    def test_invalidate_plans_drops_both_tiers(self):
        engine = fleet(replicas=2)
        engine.serve_trace(trace(30))
        dropped = engine.invalidate_plans("preset-change")
        assert dropped > 0
        assert len(engine.shared_cache) == 0
        assert len(engine._planner.cache) == 0

    def test_version_token_partitions_fleets(self):
        from repro.gpu.arch import MAXWELL_GM204

        shared = SharedPlanCache()
        fleet(replicas=2, shared_cache=shared).serve_trace(trace(20))
        other = FleetEngine(FleetConfig(replicas=2, arch=MAXWELL_GM204),
                            shared_cache=shared)
        other.serve_trace(trace(20))
        # The Maxwell fleet shares the tier object but never hits the
        # Kepler fleet's entries.
        assert other.shared_cache is shared
        tokens = {token for token, _ in shared._entries}
        assert len(tokens) == 2

    def test_repeated_backend_names_are_planned_once(self):
        from repro.fleet import cache_version_token

        engine = fleet(replicas=2, backends=("general", "general"))
        assert engine._planner.backends == ("general", "naive")
        assert engine._cache_token == cache_version_token(
            engine.config.arch, ("general", "naive"))


class TestTelemetry:
    def test_per_replica_virtual_tracks_in_export(self, tmp_path):
        tracer = Tracer()
        engine = fleet(replicas=4, tracer=tracer)
        engine.serve_trace(trace(60))
        path = tmp_path / "fleet.json"
        doc = engine.export_trace(str(path))
        assert path.exists()
        cats = {event.get("cat") for event in doc["traceEvents"]
                if event.get("ph") == "X"}
        replica_cats = {c for c in cats if c and c.startswith("replica")}
        assert any(c.endswith("/kernel") for c in replica_cats)
        assert any(c.endswith("/batch") for c in replica_cats)

    def test_spans_carry_replica_arg(self):
        tracer = Tracer()
        engine = fleet(replicas=2, tracer=tracer)
        result = engine.serve_trace(trace(30))
        replicas_seen = {span.args.get("replica") for span in tracer.spans
                         if span.category.startswith("replica")}
        assert replicas_seen == set(
            r for r in result.assignments if r is not None)

    def test_export_without_tracer_raises(self):
        with pytest.raises(ReproError, match="tracer"):
            fleet(replicas=2).export_trace("/tmp/never.json")

    def test_fleet_registry_aggregates_replica_counters(self):
        engine = fleet(replicas=2)
        engine.serve_trace(trace(40))
        served = engine.registry.get("serve_requests_total")
        assert served is not None and served.total() == 40

    def test_replica_wall_spans_land_where_they_ran(self):
        tracer = Tracer()
        engine = fleet(replicas=4, tracer=tracer)
        before = tracer.now_s()
        result = engine.serve_trace(trace(60))
        after = tracer.now_s()
        wall = [span for span in tracer.spans
                if span.track == WALL_TRACK and "replica" in span.args]
        assert wall
        assert all(before <= span.start_s and span.end_s <= after
                   for span in wall)
        # No fault: one attempt per replica, run one after another, so
        # the attempts' wall intervals never overlap.
        intervals = {}
        for span in wall:
            lo, hi = intervals.get(span.args["replica"],
                                   (math.inf, -math.inf))
            intervals[span.args["replica"]] = (min(lo, span.start_s),
                                               max(hi, span.end_s))
        assert set(intervals) == set(result.assignments) - {None}
        assert len(intervals) > 1
        ordered = sorted(intervals.values())
        assert all(a_hi <= b_lo
                   for (_, a_hi), (b_lo, _) in zip(ordered, ordered[1:]))

    @pytest.mark.parametrize("chaos, requests_total, dropped", [
        (None, 60, 0),
        # The crashed attempt's served prefix never reaches the fleet;
        # only the failover attempt's telemetry does.
        ("crash:replica=1,after=5", 60, 0),
        # Replica 1's attempt serves 9 requests; its telemetry is
        # dropped before the fold, and the drop is counted.
        ("obs-drop:replica=1", 51, 1),
    ])
    def test_fleet_registry_under_faults(self, chaos, requests_total,
                                         dropped):
        engine = FleetEngine(FleetConfig(replicas=4, queue_depth=512),
                             chaos=chaos)
        result = engine.serve_trace(trace(60))
        assert result.served == 60
        registry = engine.registry
        assert registry.get("serve_requests_total").total() == requests_total
        assert registry.get("fleet_obs_dropped_total").total() == dropped
