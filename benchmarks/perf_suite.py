"""Perf-suite harness: records a point in ``BENCH_trajectory.json``.

Not a pytest module — run it directly::

    PYTHONPATH=src python benchmarks/perf_suite.py                # full
    PYTHONPATH=src python benchmarks/perf_suite.py --ci-scale     # CI gate
    PYTHONPATH=src python benchmarks/perf_suite.py --ci-scale \\
        --no-append --point-out point.json --flamegraph perf.folded

Thin wrapper over :mod:`repro.obs.perf.suite`: runs the four canonical
workloads (table1 DSE, serve engine, fleet, SIMT simulator), measures
the fixed-work calibration yardstick, and appends the resulting point
to the trajectory database.  The CI ``perf-gate`` job runs this with
``--ci-scale --no-append --point-out`` and feeds the point to
``repro perf gate``; see docs/OBSERVABILITY.md.
"""

import argparse
import json
import os
import sys


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run the canonical perf suite; appends a point to "
        "BENCH_trajectory.json")
    parser.add_argument("--scale", choices=("smoke", "ci", "full"),
                        default="full",
                        help="workload sizing (default: full)")
    parser.add_argument("--ci-scale", action="store_true",
                        help="shorthand for --scale ci (the gate job's "
                        "sizing)")
    parser.add_argument("--output", default="BENCH_trajectory.json",
                        help="trajectory database to append to")
    parser.add_argument("--no-append", action="store_true",
                        help="measure only; leave the trajectory file "
                        "untouched")
    parser.add_argument("--point-out", metavar="PATH",
                        help="also write the recorded point alone to PATH")
    parser.add_argument("--flamegraph", metavar="PATH",
                        help="write the run's collapsed-stack flamegraph")
    parser.add_argument("--note", metavar="TEXT",
                        help="free-form note stored in the point's meta")
    parser.add_argument("--audit", action="store_true",
                        help="set REPRO_AUDIT=1 for the run: the simulator "
                        "workload re-runs the interpreted SIMT oracle and "
                        "fails on any divergence (slower; use for audited "
                        "legs, not recorded baselines)")
    args = parser.parse_args(argv)
    scale = "ci" if args.ci_scale else args.scale
    if args.audit:
        os.environ["REPRO_AUDIT"] = "1"

    from repro import obs
    from repro.obs.perf import append_point, collapsed_stacks
    from repro.obs.perf import suite as perf_suite

    obs.reset_registry()
    tracer = obs.reset_tracer()
    point = perf_suite.run_suite(
        scale=scale, note=args.note,
        progress=lambda msg: print(msg, flush=True))

    if args.flamegraph:
        with open(args.flamegraph, "w") as fh:
            fh.write(collapsed_stacks(tracer))
        print("flamegraph written to %s" % args.flamegraph)
    if args.point_out:
        with open(args.point_out, "w") as fh:
            json.dump(point, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("point written to %s" % args.point_out)
    if not args.no_append:
        doc = append_point(args.output, point)
        print("appended point %d to %s"
              % (len(doc["points"]) - 1, args.output))

    for workload, metrics in sorted(point["workloads"].items()):
        print("  %-14s wall %8.3fs" % (workload, metrics.get("wall_s", 0.0)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
