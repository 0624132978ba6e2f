"""Serving-engine benchmarks: throughput versus batching deadline, and
the host-side cost of planning and serving.

The deadline sweep is the subsystem's core trade-off: a longer deadline
lets the batcher coalesce more same-shape requests per launch, which
amortizes launch overhead (higher requests per modeled second) at the
price of queueing latency.  The sweep is written to
``benchmarks/output/serve-deadline.{txt,csv,json}`` alongside the paper
tables.
"""

import pytest

from repro.bench.runner import Experiment
from repro.fleet import (
    AdmissionController,
    FleetConfig,
    FleetEngine,
    FleetRouter,
    SharedPlanCache,
)
from repro.fleet.slo import FleetStats
from repro.gpu.arch import KEPLER_K40M
from repro.serve import ServeEngine, synthetic_trace
from repro.serve.batcher import DynamicBatcher
from repro.serve.dispatch import Dispatcher, _serve_reference
from repro.serve.request import ConvRequest, plan_key
from repro.serve.trace import SHAPE_FAMILIES

N_REQUESTS = 150
DEADLINES = (0.0, 2e-4, 1e-3, 5e-3)


def _serve(deadline_s, max_batch=32):
    engine = ServeEngine(deadline_s=deadline_s, max_batch=max_batch)
    engine.serve_trace(synthetic_trace(N_REQUESTS, seed=11))
    return engine.stats()


@pytest.fixture(scope="module")
def deadline_sweep():
    return {d: _serve(d) for d in DEADLINES}


def test_throughput_vs_deadline(deadline_sweep, save_experiment):
    exp = Experiment(
        exp_id="serve-deadline",
        title="Serving throughput vs batching deadline (150-request trace)",
        unit="req/modeled-s",
        columns=["throughput", "mean batch", "mean latency us"],
        paper_expectation="longer deadlines batch more and serve faster, "
        "at higher latency",
    )
    for deadline, snap in deadline_sweep.items():
        exp.add("deadline=%gs" % deadline, {
            "throughput": snap["throughput_rps"],
            "mean batch": snap["mean_batch_size"],
            "mean latency us": snap["mean_latency_s"] * 1e6,
        })
    save_experiment(exp, precision=1)

    # Monotone qualitative shape: more deadline -> no smaller batches,
    # and the longest deadline strictly beats the unbatched extreme.
    batches = [deadline_sweep[d]["mean_batch_size"] for d in DEADLINES]
    assert batches == sorted(batches)
    assert (deadline_sweep[DEADLINES[-1]]["throughput_rps"]
            > deadline_sweep[0.0]["throughput_rps"])


def test_serve_trace_wall_clock(benchmark):
    """Host-side serving rate (plan cache warm after the first round)."""
    trace = synthetic_trace(60, seed=3)
    engine = ServeEngine(deadline_s=1e-3, max_batch=16)
    benchmark(engine.serve_trace, trace)


def test_plan_cache_hit_wall_clock(benchmark):
    """A warm plan lookup must be orders of magnitude under a replan."""
    from repro.serve.trace import DEFAULT_SERVING_SHAPES

    engine = ServeEngine()
    problem = DEFAULT_SERVING_SHAPES[0]
    engine.dispatcher.plan(problem)          # warm the cache
    benchmark(engine.dispatcher.plan, problem)


# ----------------------------------------------------------------------
# Per-request bookkeeping of the serving and fleet layers.  Each round
# replays LAYER_REQUESTS arrivals of a mixed-shape trace through a fresh
# component, so the timings are per-layer costs a fleet pays per request.
# ----------------------------------------------------------------------

LAYER_REQUESTS = 200


@pytest.fixture(scope="module")
def layer_trace():
    return synthetic_trace(LAYER_REQUESTS, seed=7, shape_family="mixed",
                           priority_mix={"critical": 1, "standard": 6,
                                         "batch": 3},
                           deadline_budget_s=2e-3)


def test_admission_admit_wall_clock(benchmark, layer_trace):
    """Route + admit: affinity hash, window depths, counters."""

    def admit_all():
        admission = AdmissionController(FleetRouter(4), queue_depth=64,
                                        window_s=1e-3)
        for request in layer_trace:
            admission.admit(request)
        return admission

    assert benchmark(admit_all).admitted == LAYER_REQUESTS


def test_fleet_record_response_wall_clock(benchmark, layer_trace):
    """The SLO surface's per-response counters and latency histograms."""
    responses = ServeEngine().serve_trace(layer_trace)
    pairs = [(request.req_id % 4, request, response)
             for request, response in zip(layer_trace, responses)]

    def record_all():
        stats = FleetStats()
        for replica, request, response in pairs:
            stats.record_response(replica, request, response)
        return stats

    assert benchmark(record_all).served == LAYER_REQUESTS


def test_batcher_add_wall_clock(benchmark, layer_trace):
    """Shape-keyed buffering with the queue gauges."""
    keyed = [(plan_key(r.problem, KEPLER_K40M), r) for r in layer_trace]

    def add_all():
        batcher = DynamicBatcher(deadline_s=1e-3, max_batch=32)
        for key, request in keyed:
            batcher.add(key, request, request.arrival_s)
        return batcher

    benchmark(add_all)


def test_fleet_serve_trace_wall_clock(benchmark, layer_trace):
    """A 4-replica replay end to end over a warm shared plan tier: a new
    fleet per round, as in a fleet generation change."""
    shared = SharedPlanCache()
    config = FleetConfig(replicas=4)
    FleetEngine(config, shared_cache=shared).serve_trace(layer_trace)

    def replay():
        return FleetEngine(config, shared_cache=shared).serve_trace(
            layer_trace)

    assert benchmark(replay).served == LAYER_REQUESTS


# ----------------------------------------------------------------------
# One dispatch: the batched reference call a batch is served by, and a
# plan build of a depthwise shape.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("size", [1, 9])
def test_serve_reference_wall_clock(benchmark, size):
    """One batch of the mixed palette's first shape: the batch's
    assembly and its one reference call."""
    problem = SHAPE_FAMILIES["mixed"][0]
    requests = []
    for i in range(size):
        image, filters = problem.random_instance(seed=i)
        requests.append(ConvRequest(req_id=i, problem=problem, image=image,
                                    filters=filters))
    assert len(benchmark(_serve_reference, problem, requests)) == size


def test_depthwise_plan_build_wall_clock(benchmark):
    """A plan build of the mixed palette's first depthwise shape on
    Kepler: naive's price, the walk, and the depthwise search."""
    problem = next(p for p in SHAPE_FAMILIES["mixed"] if p.groups > 1)
    dispatcher = Dispatcher()
    plan = benchmark(dispatcher.build_plan, problem)
    assert "depthwise" in plan.candidates
