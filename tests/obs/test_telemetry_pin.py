"""Pin the complete registry of a serving replay and a chaos fleet replay.

The digests cover every metric, every series in creation order, every
value, and each histogram series' retained samples.  They were taken
before the serving and fleet layers switched to keyed writes, so a
keyed write that changes a label value (an ``int`` where a ``str``
belongs), a series' creation order, or a value a reader sees moves a
digest here.
"""

import hashlib
import json

import pytest

from repro.chaos.injector import FaultInjector
from repro.chaos.plan import FaultPlan
from repro.fleet import FleetConfig, FleetEngine, SharedPlanCache
from repro.obs.metrics import Histogram, Registry
from repro.serve.engine import ServeEngine
from repro.serve.trace import synthetic_trace

#: ``benchmarks/e2e``'s fleet fault plan, with a crash inside the shard.
CHAOS_SPEC = ("seed=7;crash:replica=1,after=20;slow:replica=0,factor=4;"
              "cache-corrupt:nth=2;build-fail:times=2")

SERVE_DIGEST = (
    "a3df04bb2735cf17e82e27a1813dbec48fea144c8619fe2a0d7f306c7bd5ee84")
FLEET_DIGEST = (
    "64bba1a26f950c8f2c888263ff416f7e8a1cd57041bbd06a1964813a62adbdf3")


def registry_digest(registry: Registry) -> str:
    """sha256 of ``collect()`` plus every histogram series' samples."""
    body = {
        "collect": registry.collect(),
        "samples": [
            [metric.name, list(key), data.samples]
            for metric in registry if isinstance(metric, Histogram)
            for key, data in metric._series.items()
        ],
    }
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()


def non_str_keys(registry: Registry) -> list:
    return [(metric.name, key) for metric in registry
            for key in metric._series
            if not all(type(value) is str for value in key)]


@pytest.fixture(scope="module")
def serve_registry():
    engine = ServeEngine()
    engine.serve_trace(synthetic_trace(300, seed=5, shape_family="mixed"))
    return engine.registry


@pytest.fixture(scope="module")
def fleet_run():
    """A warm-up generation fills a fresh shared tier (one entry rots,
    two builds fail and retry); the serving generation then replays a
    trace with priorities and deadlines under a crash and a straggler,
    with a queue bound tight enough to spill and shed."""
    trace = synthetic_trace(
        240, seed=7, shape_family="mixed",
        priority_mix={"critical": 1, "standard": 6, "batch": 3},
        deadline_budget_s=2e-3)
    registry = Registry()
    config = FleetConfig(replicas=4, queue_depth=10)
    chaos = FaultInjector(FaultPlan.parse(CHAOS_SPEC), 4)
    shared = SharedPlanCache(registry=registry)
    warm = FleetEngine(config, registry=registry, shared_cache=shared,
                       chaos=chaos)
    for problem in dict.fromkeys(r.problem for r in trace):
        warm.plan_for(problem)
    fleet = FleetEngine(config, registry=registry, shared_cache=shared,
                        chaos=chaos)
    return fleet, fleet.serve_trace(trace), registry


def test_serve_registry_digest(serve_registry):
    assert registry_digest(serve_registry) == SERVE_DIGEST


def test_fleet_registry_digest(fleet_run):
    fleet, result, registry = fleet_run
    # The replay exercises what the pin should see.
    snap = fleet.stats()
    assert result.failovers == 1 and result.shed_count > 0
    assert snap["router"]["spills"] > 0
    assert fleet.shared_cache.stats()["corruptions"] == 1
    assert registry_digest(registry) == FLEET_DIGEST


def test_every_series_key_is_str(serve_registry, fleet_run):
    assert non_str_keys(serve_registry) == []
    assert non_str_keys(fleet_run[2]) == []
