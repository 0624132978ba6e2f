"""The canonical perf-suite workloads feeding ``BENCH_trajectory.json``.

Four workloads, one per load-bearing subsystem, each at three scales
(``smoke`` for tests, ``ci`` for the gate job, ``full`` for checked-in
reference points):

* ``table1_dse`` — the design-space exploration sweep (the repo's
  long-standing host-side cost yardstick; ROADMAP item 1's ≥10x target
  is measured exactly here);
* ``serve_engine`` — a synthetic trace through one ``ServeEngine``
  (batching, plan cache, dispatch);
* ``fleet_serve`` — the same through a 4-replica ``FleetEngine``
  (routing, admission, SLO accounting);
* ``simulator`` — Algorithm 1 through the vectorized trace generator
  (:mod:`repro.gpu.fastsim`), historically the SIMT interpreter run
  block-by-block; the cost is byte-identical across that switch, so
  the modeled metrics form one continuous series.  The
  ``REPRO_SIM_HANDICAP`` injector still applies, and ``REPRO_AUDIT=1``
  re-runs the interpreted oracle as a cross-check.

Each workload returns a flat metric dict.  ``wall_s`` is the host
clock; everything else is modeled/deterministic (the gate relies on
that split — see :mod:`repro.obs.perf.trajectory`).
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.errors import ObservabilityError
from repro.obs.instrument import instrument
from repro.obs.perf.trajectory import calibrate, make_meta, validate_point

__all__ = ["SCALES", "WORKLOADS", "run_workload", "run_suite"]

SCALES = ("smoke", "ci", "full")

#: Requests in the serving workloads per scale.
_SERVE_REQUESTS = {"smoke": 200, "ci": 2000, "full": 10_000}

#: Simulator image heights/widths per scale (output tiles the default
#: 64x4 special-case block exactly, keeping the interpreter audit-clean).
_SIM_IMAGE = {"smoke": (34, 66), "ci": (66, 130), "full": (130, 258)}


def _check_scale(scale: str) -> str:
    if scale not in SCALES:
        raise ObservabilityError(
            "unknown suite scale %r; expected one of %s" % (scale, SCALES))
    return scale


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def _workload_table1(scale: str) -> Dict[str, float]:
    from repro.core.dse import (
        enumerate_general_configs, explore_general, reproduce_table1,
    )
    from repro.core.bankwidth import matched_vector
    from repro.gpu.arch import KEPLER_K40M

    start = time.perf_counter()
    if scale == "full":
        rows = reproduce_table1()
        wall_s = time.perf_counter() - start
        return {
            "wall_s": wall_s,
            "rows": len(rows),
            "ours_gflops_total": float(sum(r.ours_gflops for r in rows)),
        }
    # Reduced axes: the same ranking machinery over a pruned Table 1
    # space for one filter size — representative, quick, deterministic.
    n = matched_vector(KEPLER_K40M).n
    widths = (16, 32) if scale == "ci" else (16,)
    configs = enumerate_general_configs(
        3, n, KEPLER_K40M, widths=widths, heights=(2, 4),
        ftbs=(16, 32), wts=(4, 8), fts=(2, 4), cshs=(1, 2))
    ranked = explore_general(3, configs=configs)
    wall_s = time.perf_counter() - start
    if not ranked:
        raise ObservabilityError("table1_dse ranked no candidates")
    return {
        "wall_s": wall_s,
        "candidates": len(ranked),
        "best_gflops": float(ranked[0].gflops),
    }


def _workload_serve(scale: str) -> Dict[str, float]:
    from repro.obs.tracing import get_tracer
    from repro.serve import ServeEngine, synthetic_trace

    n = _SERVE_REQUESTS[scale]
    trace = synthetic_trace(n, seed=7)
    start = time.perf_counter()
    engine = ServeEngine(tracer=get_tracer())
    engine.serve_trace(trace)
    wall_s = time.perf_counter() - start
    snap = engine.stats()
    return {
        "wall_s": wall_s,
        "requests": n,
        "throughput_rps": snap["throughput_rps"],
        "latency_p99_s": snap["latency_p99_s"],
        "mean_batch_size": snap["mean_batch_size"],
        "plan_cache_hit_rate": snap["plan_cache"]["hit_rate"],
    }


def _workload_fleet(scale: str) -> Dict[str, float]:
    from repro.fleet import FleetConfig, FleetEngine
    from repro.obs.tracing import get_tracer
    from repro.serve import synthetic_trace

    n = _SERVE_REQUESTS[scale]
    trace = synthetic_trace(n, seed=7)
    start = time.perf_counter()
    fleet = FleetEngine(FleetConfig(replicas=4), tracer=get_tracer())
    result = fleet.serve_trace(trace)
    wall_s = time.perf_counter() - start
    snap = fleet.stats()
    return {
        "wall_s": wall_s,
        "requests": n,
        "replicas": 4,
        "modeled_rps": snap["sustained_rps"],
        "latency_p99_s": snap["latency_p99_s"],
        "affinity_hit_rate": snap["router"]["affinity_hit_rate"],
        "shed": result.shed_count,
    }


def _workload_simulator(scale: str) -> Dict[str, float]:
    from repro.gpu.arch import KEPLER_K40M
    from repro.gpu.fastsim import FastSpecialKernel
    from repro.gpu.timing import TimingModel
    from repro.obs.metrics import Registry

    h, w = _SIM_IMAGE[scale]
    rng = np.random.default_rng(3)
    image = rng.standard_normal((h, w)).astype(np.float32)
    filters = rng.standard_normal((4, 3, 3)).astype(np.float32)
    # The vectorized trace generator produces a KernelCost byte-identical
    # to the interpreted executor's, so every modeled metric below is
    # unchanged from the interpreter era; REPRO_AUDIT=1 makes this
    # workload re-run the oracle and verify exactly that on every call.
    kernel = FastSpecialKernel()
    start = time.perf_counter()
    out, cost = kernel.run_traced(image, filters)
    wall_s = time.perf_counter() - start
    if out.shape != (4, h - 2, w - 2):
        raise ObservabilityError("simulator workload produced a bad shape")
    # Private registry: the evaluation is for this metric dict, not the
    # process-wide telemetry surface.
    breakdown = TimingModel(KEPLER_K40M, registry=Registry()).evaluate(cost)
    led = cost.ledger
    return {
        "wall_s": wall_s,
        "blocks": cost.launch.grid.count,
        "modeled_total_s": float(breakdown.total),
        "gmem_transactions": float(led.gmem_read_transactions
                                   + led.gmem_write_transactions),
        "smem_cycles": float(led.smem_cycles),
        "flops": float(led.flops),
    }


WORKLOADS = {
    "table1_dse": _workload_table1,
    "serve_engine": _workload_serve,
    "fleet_serve": _workload_fleet,
    "simulator": _workload_simulator,
}


def run_workload(name: str, scale: str = "ci") -> Dict[str, float]:
    """Run one canonical workload; returns its metric dict."""
    _check_scale(scale)
    if name not in WORKLOADS:
        raise ObservabilityError(
            "unknown workload %r; expected one of %s"
            % (name, sorted(WORKLOADS)))
    with instrument("perf.%s" % name, category="perf") as span:
        metrics = WORKLOADS[name](scale)
        span.annotate(scale=scale, **{
            k: v for k, v in metrics.items() if k == "wall_s"})
    return metrics


def run_suite(
    scale: str = "ci",
    note: Optional[str] = None,
    workloads: Optional[Sequence[str]] = None,
    progress: Optional[callable] = None,
) -> dict:
    """Run the canonical workloads and package one trajectory point.

    The point carries the environment fingerprint and the fixed-work
    calibration yardstick (measured first, before any workload warms or
    contends the machine).  ``progress`` (e.g. ``print``) receives one
    line per workload.
    """
    _check_scale(scale)
    names: Iterable[str] = workloads if workloads else sorted(WORKLOADS)
    calibration_s = calibrate()
    results: Dict[str, Dict[str, float]] = {}
    for name in names:
        if progress:
            progress("perf suite [%s]: %s ..." % (scale, name))
        results[name] = run_workload(name, scale=scale)
        if progress:
            progress("perf suite [%s]: %s done in %.3fs"
                     % (scale, name, results[name]["wall_s"]))
    point = {
        "meta": make_meta(source="perf_suite", scale=scale,
                          calibration_s=calibration_s, note=note),
        "workloads": {
            name: {k: round(float(v), 9) for k, v in metrics.items()}
            for name, metrics in results.items()
        },
    }
    return validate_point(point)
