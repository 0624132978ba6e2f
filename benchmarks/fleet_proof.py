"""Fleet proof-point harness: emits ``BENCH_serve.json``.

Not a pytest module — run it directly::

    PYTHONPATH=src python benchmarks/fleet_proof.py                 # full
    PYTHONPATH=src python benchmarks/fleet_proof.py --requests 5000 # quick

Three legs, one JSON document:

* ``table1`` — wall-clock of the paper's table-1 DSE sweep, the repo's
  long-standing host-side cost yardstick (tracked so serving work never
  quietly regresses the core reproduction);
* ``proof`` — the fleet acceptance proof point: a synthetic trace is
  served by one serial engine and by an N-replica fleet, and every
  fleet response must be **bit-identical** to its serial twin (backend
  and output bytes); reports modeled throughput and p50/p95/p99 for
  both sides, plus the router/shared-cache/shed counters from the obs
  registry;
* ``overload`` — the same fleet under an arrival rate far above
  capacity, demonstrating bounded p99 via admission control: excess
  load is shed (non-zero shed rate) instead of stretching the tail.

The modeled (virtual-clock) numbers are deterministic; only the
``*_wall_s`` fields vary between machines.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np

from repro import __version__
from repro.fleet import FleetConfig, FleetEngine
from repro.serve import ServeEngine, synthetic_trace


def git_sha():
    """Short HEAD sha of this checkout, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)))
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def leg_meta():
    """Provenance stamp for one leg: version, git sha, python, time."""
    import platform

    return {
        "version": __version__,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "recorded_unix": round(time.time(), 3),
    }


def response_digest(responses):
    """One order-sensitive digest over (req_id, backend, output bytes)."""
    h = hashlib.blake2b(digest_size=16)
    for response in responses:
        if response is None:
            h.update(b"shed")
            continue
        h.update(str(response.req_id).encode())
        h.update(response.backend.encode())
        h.update(np.ascontiguousarray(response.output).tobytes())
    return h.hexdigest()


def latency_percentiles(responses):
    lat = [r.latency_s for r in responses if r is not None]
    if not lat:
        return {"p50_s": 0.0, "p95_s": 0.0, "p99_s": 0.0}
    return {
        "p50_s": float(np.percentile(lat, 50)),
        "p95_s": float(np.percentile(lat, 95)),
        "p99_s": float(np.percentile(lat, 99)),
    }


def leg_table1():
    from repro.core.dse import reproduce_table1

    start = time.perf_counter()
    rows = reproduce_table1()
    wall_s = time.perf_counter() - start
    return {"wall_s": round(wall_s, 3), "rows": len(rows)}


def leg_proof(n_requests, replicas, rate_hz, seed):
    # Serial reference: one engine, the whole trace, request order.
    trace = synthetic_trace(n_requests, seed=seed, rate_hz=rate_hz)
    start = time.perf_counter()
    single = ServeEngine()
    serial_responses = single.serve_trace(trace)
    single_wall_s = time.perf_counter() - start
    serial_digest = response_digest(serial_responses)
    serial_pct = latency_percentiles(serial_responses)
    single_stats = single.stats()

    # Fleet: same trace, N replicas, affinity routing.
    trace = synthetic_trace(n_requests, seed=seed, rate_hz=rate_hz)
    start = time.perf_counter()
    fleet = FleetEngine(FleetConfig(replicas=replicas))
    result = fleet.serve_trace(trace)
    fleet_wall_s = time.perf_counter() - start
    fleet_digest = response_digest(result.responses)
    fleet_pct = latency_percentiles(result.responses)
    snap = fleet.stats()

    mismatches = 0
    for got, want in zip(result.responses, serial_responses):
        if (got is None or got.backend != want.backend
                or not np.array_equal(got.output, want.output)):
            mismatches += 1
    return {
        "requests": n_requests,
        "replicas": replicas,
        "rate_hz": rate_hz,
        "bit_identical": mismatches == 0 and serial_digest == fleet_digest,
        "mismatches": mismatches,
        "response_digest": serial_digest,
        "shed": result.shed_count,
        "single": {
            "wall_s": round(single_wall_s, 3),
            "modeled_rps": single_stats["throughput_rps"],
            "latency": serial_pct,
        },
        "fleet": {
            "wall_s": round(fleet_wall_s, 3),
            "modeled_rps": snap["sustained_rps"],
            "latency": fleet_pct,
            "affinity_hit_rate": snap["router"]["affinity_hit_rate"],
            "shared_cache": snap["shared_plan_cache"],
            "deadline_misses": snap["deadline_misses"],
        },
    }


def leg_overload(n_requests, replicas, rate_hz, seed):
    trace = synthetic_trace(n_requests, seed=seed, rate_hz=rate_hz,
                            deadline_budget_s=5e-3,
                            priority_mix={"critical": 0.05, "standard": 0.75,
                                          "batch": 0.2})
    fleet = FleetEngine(FleetConfig(replicas=replicas))
    result = fleet.serve_trace(trace)
    snap = fleet.stats()
    return {
        "requests": n_requests,
        "replicas": replicas,
        "rate_hz": rate_hz,
        "served": result.served,
        "shed": result.shed_count,
        "shed_rate": snap["admission"]["shed_rate"],
        "shed_by_reason": snap["admission"]["shed_by_reason"],
        "latency_p99_s": snap["latency_p99_s"],
        "deadline_misses": snap["deadline_misses"],
        "deadline_miss_rate": snap["deadline_miss_rate"],
        "affinity_hit_rate": snap["router"]["affinity_hit_rate"],
        "sustained_rps": snap["sustained_rps"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Fleet serving proof point; writes BENCH_serve.json")
    parser.add_argument("--requests", type=int, default=100_000,
                        help="trace length for the proof leg")
    parser.add_argument("--overload-requests", type=int, default=10_000)
    parser.add_argument("--replicas", type=int, default=4)
    parser.add_argument("--rate", type=float, default=50_000.0,
                        help="proof-leg arrival rate (below capacity: "
                        "nothing is shed, so bit-identity must hold)")
    parser.add_argument("--overload-rate", type=float, default=500_000.0)
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--skip-table1", action="store_true")
    parser.add_argument("--output", default="BENCH_serve.json")
    args = parser.parse_args(argv)

    doc = {
        "version": __version__,
        "legs": {},
    }
    if not args.skip_table1:
        print("leg 1/3: table1 DSE wall-clock ...", flush=True)
        doc["legs"]["table1"] = leg_table1()
    print("leg 2/3: %d-request proof point, %d replicas ..."
          % (args.requests, args.replicas), flush=True)
    doc["legs"]["proof"] = leg_proof(
        args.requests, args.replicas, args.rate, args.seed)
    print("leg 3/3: overload at %g req/s ..." % args.overload_rate,
          flush=True)
    doc["legs"]["overload"] = leg_overload(
        args.overload_requests, args.replicas, args.overload_rate,
        args.seed)
    for leg in doc["legs"].values():
        leg["meta"] = leg_meta()

    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    proof = doc["legs"]["proof"]
    print("bit_identical=%s mismatches=%d shed=%d -> %s"
          % (proof["bit_identical"], proof["mismatches"], proof["shed"],
             args.output))
    return 0 if proof["bit_identical"] and not proof["shed"] else 1


if __name__ == "__main__":
    sys.exit(main())
