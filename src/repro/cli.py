"""Command-line interface: regenerate any of the paper's experiments.

::

    python -m repro list                     # available experiment ids
    python -m repro run fig2                 # regenerate one experiment
    python -m repro run fig8a --arch maxwell # on another architecture
    python -m repro run all --skip-slow      # everything quick
    python -m repro summary                  # headline paper-vs-measured lines
    python -m repro summary --json           # same, machine-readable
    python -m repro serve --synthetic 200    # dynamic-batching serving engine
    python -m repro serve --requests trace.json --deadline 2e-3
    python -m repro serve --synthetic 50 --backends fft,winograd,naive
    python -m repro serve --synthetic 1000 --replicas 4 --compare-serial
    python -m repro backends                 # registered kernel backends
    python -m repro backends --arch pascal --json
    python -m repro serve --synthetic 50 --emit-trace out.json   # Perfetto trace
    python -m repro obs --format prometheus  # telemetry registry dump
    python -m repro audit                    # fastsim vs interpreted oracle
    python -m repro audit --arch fermi --case general --trials 8

Tables are printed to stdout (the same renderer the benchmark suite
uses to fill ``benchmarks/output/``).  Host performance is measured from
outside the package by ``benchmarks/e2e`` (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from typing import List, Optional

from repro.bench.figures import ALL_EXPERIMENTS
from repro.bench.report import format_experiment, format_summary_line
from repro.errors import ReproError
from repro.gpu.arch import ARCHITECTURES

__all__ = ["main", "build_parser"]

#: Experiments that take noticeably longer than a second to regenerate.
SLOW_EXPERIMENTS = ("table1",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the DAC'17 convolution paper's experiments "
        "on the simulated GPU substrate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids")

    run = sub.add_parser("run", help="regenerate one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id from 'list', or 'all'")
    run.add_argument("--arch", choices=sorted(ARCHITECTURES), default="kepler",
                     help="architecture preset (where the experiment takes one)")
    run.add_argument("--precision", type=int, default=1,
                     help="decimal places in the table")
    run.add_argument("--skip-slow", action="store_true",
                     help="with 'all': skip the long-running experiments")
    run.add_argument("--emit-trace", metavar="PATH",
                     help="write a Chrome trace-event JSON of the run "
                     "(load in Perfetto / chrome://tracing)")

    summary = sub.add_parser(
        "summary", help="print the headline paper-vs-measured lines")
    summary.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON records")

    serve = sub.add_parser(
        "serve", help="serve a convolution trace through the serving engine")
    src = serve.add_mutually_exclusive_group(required=True)
    src.add_argument("--requests", metavar="PATH",
                     help="JSON trace file (see repro.serve.save_trace)")
    src.add_argument("--synthetic", type=int, metavar="N",
                     help="generate a synthetic N-request mixed-shape trace")
    serve.add_argument("--seed", type=int, default=0,
                       help="seed for the synthetic trace")
    serve.add_argument("--rate", type=float, default=50_000.0,
                       help="synthetic arrival rate, requests per modeled "
                       "second (0 = all arrive at t=0)")
    serve.add_argument("--deadline", type=float, default=1e-3,
                       help="batching latency deadline, modeled seconds")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="maximum requests coalesced into one launch")
    serve.add_argument("--arch", choices=sorted(ARCHITECTURES),
                       default="kepler")
    serve.add_argument("--backends", metavar="NAMES",
                       help="comma-separated backend subset, any names "
                       "from 'repro backends' (default: every registered "
                       "backend; naive is always kept as the fallback)")
    serve.add_argument("--replicas", type=int, default=1, metavar="N",
                       help="serve through a fleet of N engine replicas with "
                       "shape-affinity routing (default: 1 = a single "
                       "engine; see docs/FLEET.md)")
    serve.add_argument("--queue-depth", type=int, default=64, metavar="D",
                       help="fleet admission bound: max modeled queue "
                       "occupancy per replica before spilling/shedding")
    serve.add_argument("--deadline-budget", type=float, default=None,
                       metavar="S",
                       help="give every synthetic request an absolute "
                       "completion deadline of arrival + S modeled seconds "
                       "(fleet SLO accounting reports the misses)")
    serve.add_argument("--priority-mix", metavar="SPEC", default=None,
                       help="synthetic priority-class mix, e.g. "
                       "'critical=0.1,standard=0.8,batch=0.1' "
                       "(default: all standard)")
    serve.add_argument("--chaos", metavar="SPEC", default=None,
                       help="inject deterministic faults while serving "
                       "(spec grammar: [seed=N;]kind[:key=val,...]; kinds: "
                       "crash, wedge, slow, cache-corrupt, version-skew, "
                       "build-fail, obs-drop; see docs/RESILIENCE.md); "
                       "routes through the fleet path even at "
                       "--replicas 1")
    serve.add_argument("--save-trace", metavar="PATH",
                       help="also write the served trace to this JSON file")
    serve.add_argument("--verify", action="store_true",
                       help="check every response against conv2d_reference, "
                       "bit for bit")
    serve.add_argument("--compare-unbatched", action="store_true",
                       help="single engine only: also serve the trace with "
                       "batching disabled and report both throughputs")
    serve.add_argument("--compare-serial", action="store_true",
                       help="with --replicas: also serve the trace through "
                       "one serial engine and check the fleet's responses "
                       "are bit-identical")
    serve.add_argument("--json", action="store_true",
                       help="emit the stats snapshot as JSON")
    serve.add_argument("--emit-trace", metavar="PATH",
                       help="write a Chrome trace-event JSON of the serving "
                       "run (load in Perfetto / chrome://tracing)")

    chaos = sub.add_parser(
        "chaos", help="run the canned fault matrix and report recovery "
        "outcomes (the chaos-gate; see docs/RESILIENCE.md)")
    chaos.add_argument("--matrix", choices=("ci", "full"), default="ci",
                       help="scenario set: 'ci' covers every fault kind "
                       "on short traces; 'full' adds the 10k-request "
                       "combined acceptance replay (default: ci)")
    chaos.add_argument("--seed", type=int, default=1234,
                       help="fault-plan and trace seed; two runs with "
                       "the same seed must produce identical reports "
                       "(default: 1234)")
    chaos.add_argument("--report", metavar="PATH",
                       help="write the full JSON report to this file "
                       "(the CI artifact)")
    chaos.add_argument("--json", action="store_true",
                       help="emit the report as JSON on stdout")

    obs = sub.add_parser(
        "obs", help="run a pinned workload and dump the telemetry registry")
    obs.add_argument("--format", choices=("json", "prometheus"),
                     default="json", dest="fmt",
                     help="registry dump format (default: json)")
    obs.add_argument("--synthetic", type=int, default=40, metavar="N",
                     help="requests in the serving leg of the pinned "
                     "workload (0 = kernels only)")
    obs.add_argument("--seed", type=int, default=0,
                     help="seed for the serving leg's synthetic trace")
    obs.add_argument("--arch", choices=sorted(ARCHITECTURES),
                     default="kepler")
    obs.add_argument("--output", metavar="PATH",
                     help="write the dump to a file instead of stdout")
    obs.add_argument("--emit-trace", metavar="PATH",
                     help="also write the workload's Chrome trace-event JSON")

    backends = sub.add_parser(
        "backends",
        help="list registered kernel backends and per-arch applicability")
    backends.add_argument("--arch", choices=sorted(ARCHITECTURES),
                          default=None,
                          help="restrict the applicability columns to one "
                          "architecture (default: all presets)")
    backends.add_argument("--json", action="store_true",
                          help="emit machine-readable JSON records")
    backends.add_argument("--matrix", action="store_true",
                          help="print the backend x generalized-axis "
                          "capability matrix (stride/dilation/groups/layout) "
                          "instead of the per-arch applicability table")

    claims = sub.add_parser("claims",
                            help="verify every quantitative claim of the paper")
    claims.add_argument("ids", nargs="*",
                        help="claim ids to check (default: all)")

    audit = sub.add_parser(
        "audit", help="cross-check the fast trace generators "
        "(repro.gpu.fastsim) against the interpreted SIMT oracle: every "
        "trial must produce a byte-identical KernelCost and output")
    audit.add_argument("--case",
                       choices=("special", "general", "depthwise",
                                "both", "all"),
                       default="both",
                       help="which kernel pair(s) to audit: 'both' is the "
                       "classic special+general pair, 'all' adds the "
                       "depthwise grid-Z batch (default: both)")
    audit.add_argument("--arch", choices=sorted(ARCHITECTURES),
                       default="kepler")
    audit.add_argument("--trials", type=int, default=4, metavar="N",
                       help="randomized aligned shapes per case and bank "
                       "policy (default: 4)")
    audit.add_argument("--seed", type=int, default=0,
                       help="seed for the shape generator")
    audit.add_argument("--json", action="store_true",
                       help="emit per-trial records as JSON")
    return parser


def _build(exp_id: str, arch_name: str):
    builder = ALL_EXPERIMENTS[exp_id]
    arch = ARCHITECTURES[arch_name]
    try:
        params = inspect.signature(builder).parameters
    except (TypeError, ValueError):
        params = {}
    kwargs = {}
    if "arch" in params:
        kwargs["arch"] = arch
    return builder(**kwargs)


def _cmd_list(args) -> int:
    for exp_id in ALL_EXPERIMENTS:
        slow = "  (slow)" if exp_id in SLOW_EXPERIMENTS else ""
        print("%s%s" % (exp_id, slow))
    return 0


def _cmd_run(args) -> int:
    from repro import obs

    if args.experiment == "all":
        ids = [e for e in ALL_EXPERIMENTS
               if not (args.skip_slow and e in SLOW_EXPERIMENTS)]
    elif args.experiment in ALL_EXPERIMENTS:
        ids = [args.experiment]
    else:
        print("unknown experiment %r; try: python -m repro list"
              % args.experiment, file=sys.stderr)
        return 2
    skipped = 0
    for exp_id in ids:
        # An experiment whose kernels cannot run on the preset (a launch
        # over its register limit, no valid configuration) is skipped
        # with one line; the rest still run.
        try:
            with obs.instrument("experiment." + exp_id,
                                category="experiment"):
                exp = _build(exp_id, args.arch)
        except ReproError as exc:
            print("skipped %s on %s: %s: %s"
                  % (exp_id, args.arch, type(exc).__name__, exc),
                  file=sys.stderr)
            skipped += 1
            continue
        print(format_experiment(exp, precision=args.precision))
        print()
    if args.emit_trace:
        obs.write_chrome_trace(args.emit_trace, obs.get_tracer(),
                               registry=obs.get_registry())
        print("trace written to %s" % args.emit_trace, file=sys.stderr)
    return 2 if skipped else 0


def _summary_entries():
    """(experiment, numerator, denominator, paper value) headline tuples."""
    from repro.bench.figures import fig2_gemm, fig7_special, fig8_general

    entries = [(fig2_gemm(), "MAGMA", "cuBLAS", "2.4x")]
    for k in (1, 3, 5):
        paper = {1: "6.16x", 3: "6.43x", 5: "2.90x"}[k]
        entries.append((fig7_special(k), "ours", "cuDNN", paper))
    for k in (3, 5, 7):
        paper = {3: "+30.5%", 5: "+45.3%", 7: "+30.8%"}[k]
        entries.append((fig8_general(k), "ours", "cuDNN", paper))
    return entries


def _cmd_summary(args) -> int:
    from repro.bench.report import summary_record

    entries = _summary_entries()
    if args.json:
        print(json.dumps(
            [summary_record(exp, num, den, paper)
             for exp, num, den, paper in entries], indent=2))
        return 0
    for exp, num, den, paper in entries:
        print(format_summary_line(exp, num, den, paper_value=paper))
    return 0


def _parse_priority_mix(spec: str) -> dict:
    """Parse 'critical=0.1,standard=0.8' into a weight dict."""
    mix = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, weight = part.partition("=")
        if not _:
            raise ReproError(
                "bad --priority-mix entry %r; expected class=weight" % part)
        try:
            mix[name.strip()] = float(weight)
        except ValueError:
            raise ReproError(
                "bad --priority-mix weight %r for class %r"
                % (weight, name.strip()))
    if not mix:
        raise ReproError("--priority-mix is empty")
    return mix


def _backend_names(spec: Optional[str]):
    """``--backends`` as a tuple of names, or None for every backend."""
    if spec is None:
        return None
    return tuple(name.strip() for name in spec.split(",") if name.strip())


def _serve_flag_error(args) -> Optional[str]:
    """One line naming the first serve flag that cannot be honoured."""
    if not args.rate >= 0:
        return ("--rate must be a non-negative arrival rate, got %g"
                % args.rate)
    if args.backends is not None and not _backend_names(args.backends):
        return "--backends %r names no backend" % args.backends
    if args.compare_unbatched and (
            args.replicas != 1 or args.compare_serial or args.chaos):
        return ("--compare-unbatched needs the single-engine path; it "
                "cannot be combined with --replicas N>1, --compare-serial "
                "or --chaos")
    return None


def _verify(trace, responses) -> bool:
    """Check every served response against ``conv2d_reference`` bit for
    bit; the first mismatch is named on stderr."""
    import numpy as np

    from repro.conv.reference import conv2d_reference

    for request, response in zip(trace, responses):
        if response is None:
            continue
        reference = conv2d_reference(request.image, request.filters,
                                     problem=request.problem)
        if not np.array_equal(response.output, reference):
            print("request %d (%s backend) does not match the reference"
                  % (request.req_id, response.backend), file=sys.stderr)
            return False
    return True


def _cmd_serve(args) -> int:
    from repro import obs
    from repro.serve import (
        ServeEngine, format_stats, load_trace, save_trace, synthetic_trace,
    )

    error = _serve_flag_error(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    if args.requests:
        try:
            trace = load_trace(args.requests)
        except (OSError, json.JSONDecodeError, ReproError) as exc:
            print("cannot load %s: %s" % (args.requests, exc),
                  file=sys.stderr)
            return 2
    else:
        if args.synthetic < 1:
            print("--synthetic needs a positive request count",
                  file=sys.stderr)
            return 2
        try:
            mix = (_parse_priority_mix(args.priority_mix)
                   if args.priority_mix else None)
            trace = synthetic_trace(
                args.synthetic, seed=args.seed,
                rate_hz=args.rate if args.rate > 0 else None,
                priority_mix=mix,
                deadline_budget_s=args.deadline_budget,
            )
        except ReproError as exc:
            print("bad serving configuration: %s" % exc, file=sys.stderr)
            return 2
    if args.save_trace:
        save_trace(args.save_trace, trace)

    if args.replicas != 1 or args.compare_serial or args.chaos:
        # --chaos always takes the fleet path: fault injection and the
        # recovery machinery (breakers, failover) live there, even for
        # a fleet of one.
        return _serve_fleet(args, trace)

    arch = ARCHITECTURES[args.arch]
    try:
        from repro.fleet import check_queue_depth, check_replicas

        check_replicas(args.replicas)
        check_queue_depth(args.queue_depth)
        # The CLI engine reports through the process-wide telemetry
        # surface so `--emit-trace` (and a same-process `repro obs`)
        # sees the run; each invocation starts from a fresh surface so
        # repeated in-process `main()` calls do not accumulate.
        engine = ServeEngine(
            arch=arch, deadline_s=args.deadline, max_batch=args.max_batch,
            backends=_backend_names(args.backends),
            registry=obs.reset_registry(), tracer=obs.reset_tracer(),
        )
    except ReproError as exc:
        print("bad serving configuration: %s" % exc, file=sys.stderr)
        return 2
    responses = engine.serve_trace(trace)
    if args.verify and not _verify(trace, responses):
        return 1

    if args.emit_trace:
        engine.export_trace(args.emit_trace)

    snap = engine.stats()
    if args.compare_unbatched:
        # Private registry: the comparison run must not pollute the
        # process-wide series the batched engine reported through.
        unbatched = ServeEngine(arch=arch, deadline_s=0.0, max_batch=1)
        unbatched.serve_trace(trace)
        snap["unbatched_throughput_rps"] = unbatched.stats()["throughput_rps"]
        snap["batching_speedup"] = (
            snap["throughput_rps"] / snap["unbatched_throughput_rps"]
            if snap["unbatched_throughput_rps"] else 0.0
        )

    if args.json:
        print(json.dumps(snap, indent=2))
    else:
        print(format_stats(snap))
        if args.verify:
            print("verified               : all %d responses match the "
                  "reference" % len(responses))
        if args.compare_unbatched:
            print("unbatched throughput  : %.0f req/modeled-s "
                  "(batching speedup %.2fx)"
                  % (snap["unbatched_throughput_rps"],
                     snap["batching_speedup"]))
    return 0


def _serve_fleet(args, trace) -> int:
    """The `repro serve --replicas N` path: a routed multi-engine fleet."""
    import numpy as np

    from repro import obs
    from repro.fleet import (
        FleetConfig, FleetEngine, check_queue_depth, check_replicas,
    )
    from repro.serve import ServeEngine

    arch = ARCHITECTURES[args.arch]
    try:
        check_replicas(args.replicas)
        check_queue_depth(args.queue_depth)
        config = FleetConfig(
            arch=arch, replicas=args.replicas, deadline_s=args.deadline,
            max_batch=args.max_batch, backends=_backend_names(args.backends),
            queue_depth=args.queue_depth,
        )
        fleet = FleetEngine(config, registry=obs.reset_registry(),
                            tracer=obs.reset_tracer(), chaos=args.chaos)
    except ReproError as exc:
        print("bad serving configuration: %s" % exc, file=sys.stderr)
        return 2
    result = fleet.serve_trace(trace)
    if args.verify and not _verify(trace, result.responses):
        return 1

    mismatches = None
    serial_rps = None
    if args.compare_serial:
        # Private engine: the serial leg must not pollute the fleet's
        # telemetry surface.
        serial = ServeEngine(
            arch=arch, deadline_s=args.deadline, max_batch=args.max_batch,
            backends=fleet._planner.backends)
        serial_responses = {r.req_id: r for r in serial.serve_trace(trace)}
        mismatches = 0
        for response in result.responses:
            if response is None:
                continue
            twin = serial_responses[response.req_id]
            if (response.backend != twin.backend
                    or not np.array_equal(response.output, twin.output)):
                mismatches += 1
        serial_rps = serial.stats()["throughput_rps"]

    if args.emit_trace:
        fleet.export_trace(args.emit_trace)

    snap = fleet.stats()
    if args.compare_serial:
        snap["serial_throughput_rps"] = serial_rps
        snap["serial_mismatches"] = mismatches
        snap["fleet_speedup"] = (
            snap["sustained_rps"] / serial_rps if serial_rps else 0.0)
    if fleet.chaos is not None:
        snap["chaos"] = {
            "plan": fleet.chaos.plan.describe(),
            "fired": fleet.chaos.fired(),
            "unfired": fleet.chaos.unfired(),
        }
    if args.json:
        print(json.dumps(snap, indent=2))
        return 0 if not mismatches else 1
    print(fleet.format_stats())
    if fleet.chaos is not None:
        fired = sum(entry["fired"] for entry in snap["chaos"]["fired"])
        unfired = snap["chaos"]["unfired"]
        print("chaos                 : %s (%d firings%s)"
              % (snap["chaos"]["plan"], fired,
                 ("; unfired: " + ", ".join(unfired)) if unfired else ""))
    if args.verify:
        print("verified               : all %d served responses match the "
              "reference" % result.served)
    if args.compare_serial:
        print("serial engine         : %.0f req/modeled-s; "
              "%d response mismatches vs fleet" % (serial_rps, mismatches))
    return 0 if not mismatches else 1


def _cmd_chaos(args) -> int:
    """Run the canned fault matrix; exit 1 on any recovery failure.

    This is the CI chaos-gate: every fault kind is injected against a
    seeded fleet replay (each scenario twice, independently) and the
    report states — per scenario — whether anything was lost,
    duplicated, served with non-baseline bytes, left a breaker stuck
    open, or diverged between the two same-seed runs.
    """
    from repro.chaos.matrix import format_chaos_report, run_matrix
    from repro.errors import ChaosError

    try:
        report = run_matrix(
            args.matrix, seed=args.seed, log=None if args.json else print)
    except ChaosError as exc:
        print("chaos: %s" % exc, file=sys.stderr)
        return 2
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_chaos_report(report))
    return 0 if report["passed"] else 1


def _cmd_obs(args) -> int:
    """Run a pinned workload and dump the telemetry registry.

    The workload is deterministic: one published prediction for each of
    the paper's kernels (so the ``gpu_*`` series are exactly those two
    kernels' ledgers and breakdowns), then an optional synthetic serving
    leg, which fills the plan-cache and serving series but, like all
    pricing, publishes no ``gpu_*`` series.
    """
    from repro import obs
    from repro.conv.tensors import ConvProblem
    from repro.gpu.timing import TimingModel
    from repro.kernels import default_registry
    from repro.serve import ServeEngine, synthetic_trace

    if args.synthetic < 0:
        print("--synthetic needs a non-negative request count "
              "(0 = kernels only)", file=sys.stderr)
        return 2
    arch = ARCHITECTURES[args.arch]
    registry = obs.reset_registry()
    tracer = obs.reset_tracer()

    # Pinned kernel leg: default-config predictions on fixed shapes,
    # built through the backend registry (so its lookup counters land in
    # the dump too), each published once.
    kernels = default_registry()
    model = TimingModel(arch, registry=registry)
    with obs.instrument("obs.pinned-kernels", category="experiment"):
        for name, problem in (
                ("special", ConvProblem.square(512, 3, channels=1, filters=8)),
                ("general",
                 ConvProblem.square(64, 3, channels=16, filters=32))):
            cost = kernels.get(name).build(problem, arch).cost(problem)
            model.publish(cost, model.evaluate(cost))

    if args.synthetic > 0:
        engine = ServeEngine(arch=arch, registry=registry, tracer=tracer)
        engine.serve_trace(synthetic_trace(args.synthetic, seed=args.seed))

    if args.fmt == "prometheus":
        dump = obs.to_prometheus(registry)
    else:
        dump = json.dumps(obs.registry_to_json(registry), indent=1)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(dump)
            if not dump.endswith("\n"):
                fh.write("\n")
    else:
        print(dump)
    if args.emit_trace:
        obs.write_chrome_trace(args.emit_trace, tracer, registry=registry)
        print("trace written to %s" % args.emit_trace, file=sys.stderr)
    return 0


#: Probe shapes for the `backends` applicability table: one per regime
#: that separates the built-in capability predicates.
_BACKEND_PROBES = (
    ("C=1 3x3", (64, 3, 1, 4)),
    ("C>1 3x3", (32, 3, 8, 8)),
    ("C>1 5x5", (32, 5, 8, 8)),
)


def _backends_matrix(registry, args) -> int:
    """The backend x generalized-axis capability matrix (from AXES)."""
    records = []
    for backend in registry:
        axes = backend.AXES
        records.append({
            "name": backend.name,
            "stride": bool(axes.get("stride", False)),
            "dilation": bool(axes.get("dilation", False)),
            "groups": axes.get("groups", "single"),
            "layouts": list(axes.get("layouts", ("nchw",))),
        })
    if args.json:
        print(json.dumps(records, indent=2))
        return 0
    width = max(len(r["name"]) for r in records) + 2
    header = ("backend".ljust(width) + "stride".ljust(8)
              + "dilation".ljust(10) + "groups".ljust(11) + "layouts")
    print(header)
    print("-" * len(header))
    for r in records:
        print(r["name"].ljust(width)
              + ("yes" if r["stride"] else "-").ljust(8)
              + ("yes" if r["dilation"] else "-").ljust(10)
              + r["groups"].ljust(11)
              + ",".join(r["layouts"]))
    print()
    print("groups: single = ungrouped only; depthwise = groups == channels; "
          "any = every divisor")
    return 0


def _cmd_backends(args) -> int:
    from repro.conv.tensors import ConvProblem
    from repro.kernels import default_registry

    registry = default_registry()
    if args.matrix:
        return _backends_matrix(registry, args)
    arch_names = [args.arch] if args.arch else sorted(ARCHITECTURES)
    probes = [
        (label, ConvProblem.square(n, k, channels=c, filters=f))
        for label, (n, k, c, f) in _BACKEND_PROBES
    ]
    records = []
    for backend in registry:
        supports = {}
        for arch_name in arch_names:
            arch = ARCHITECTURES[arch_name]
            supports[arch_name] = {
                label: backend.supports(problem, arch)
                for label, problem in probes
            }
        records.append({
            "name": backend.name,
            "fallback": backend.name == registry.fallback,
            "supports": supports,
        })
    if args.json:
        print(json.dumps(records, indent=2))
        return 0

    def cell(flags: dict) -> str:
        if all(flags.values()):
            return "all"
        hits = [label for label, ok in flags.items() if ok]
        return ",".join(hits) if hits else "-"

    width = max(len(r["name"]) for r in records) + 2
    arch_width = max(
        [len(a) for a in arch_names]
        + [len(cell(r["supports"][a])) for r in records for a in arch_names]
    ) + 2
    header = "backend".ljust(width + 11)
    header += "".join(a.ljust(arch_width) for a in arch_names)
    print(header)
    print("-" * len(header.rstrip()))
    for r in records:
        tag = "(fallback)" if r["fallback"] else ""
        line = r["name"].ljust(width) + tag.ljust(11)
        line += "".join(
            cell(r["supports"][a]).ljust(arch_width) for a in arch_names)
        print(line.rstrip())
    print()
    print("applicability probes: %s"
          % "; ".join("%s = N%d K%d C%d F%d" % ((label,) + dims)
                      for label, dims in _BACKEND_PROBES))
    return 0


def _cmd_claims(args) -> int:
    from repro.bench.claims import format_claim_results, verify_claims

    ids = args.ids or None
    pairs = verify_claims(ids)
    if not pairs:
        print("no matching claims; see repro.bench.claims.PAPER_CLAIMS",
              file=sys.stderr)
        return 2
    print(format_claim_results(pairs))
    return 0 if all(r.supported for _, r in pairs) else 1


#: The general-case tile audited by ``repro audit``: small enough to fit
#: every supported architecture's register/smem limits (the repo default,
#: tuned for Kepler, is infeasible on Fermi).
_AUDIT_GENERAL_CONFIG = dict(w=16, h=4, ftb=8, wt=8, ft=2, csh=1)


def _cmd_audit(args) -> int:
    import numpy as np

    from repro.core.config import GeneralCaseConfig
    from repro.errors import AuditMismatchError
    from repro.gpu.fastsim import FastGeneralKernel, FastSpecialKernel
    from repro.gpu.memory import BankConflictPolicy

    if args.trials < 1:
        print("--trials needs a positive trial count", file=sys.stderr)
        return 2
    arch = ARCHITECTURES[args.arch]
    if args.case == "both":
        cases = ("special", "general")
    elif args.case == "all":
        cases = ("special", "general", "depthwise")
    else:
        cases = (args.case,)
    policies = (BankConflictPolicy.WORD_MERGE, BankConflictPolicy.PAPER)
    rng = np.random.default_rng(args.seed)
    records = []
    failures = 0
    for case in cases:
        for policy in policies:
            for trial in range(args.trials):
                k = int(rng.choice((3, 5)))
                if case == "special":
                    kern = FastSpecialKernel(arch, bank_policy=policy)
                    cfg = kern.config
                    oh = cfg.block_h * int(rng.integers(1, 4))
                    ow = cfg.block_w * int(rng.integers(1, 3))
                    image = rng.standard_normal(
                        (oh + k - 1, ow + k - 1)).astype(np.float32)
                    filters = rng.standard_normal(
                        (int(rng.integers(1, 5)), k, k)).astype(np.float32)
                elif case == "depthwise":
                    from repro.core.depthwise import DepthwiseKernel

                    kern = DepthwiseKernel(arch, bank_policy=policy)
                    cfg = kern.config
                    oh = cfg.block_h * int(rng.integers(1, 3))
                    ow = cfg.block_w
                    channels = int(rng.integers(2, 5))
                    mult = int(rng.integers(1, 3))
                    image = rng.standard_normal(
                        (channels, oh + k - 1, ow + k - 1)).astype(np.float32)
                    filters = rng.standard_normal(
                        (channels * mult, 1, k, k)).astype(np.float32)
                else:
                    cfg = GeneralCaseConfig(**_AUDIT_GENERAL_CONFIG)
                    kern = FastGeneralKernel(arch, config=cfg,
                                             bank_policy=policy)
                    oh = cfg.h * int(rng.integers(1, 4))
                    ow = cfg.w * int(rng.integers(1, 3))
                    channels = int(rng.integers(1, 4)) * cfg.csh
                    f_count = int(rng.integers(1, 3)) * cfg.ftb
                    image = rng.standard_normal(
                        (channels, oh + k - 1, ow + k - 1)).astype(np.float32)
                    filters = rng.standard_normal(
                        (f_count, channels, k, k)).astype(np.float32)
                record = {
                    "case": case,
                    "policy": policy.value,
                    "trial": trial,
                    "kernel": kern.name,
                    "image": list(image.shape),
                    "filters": list(filters.shape),
                }
                try:
                    _, cost = kern.run_traced(image, filters, audit=True)
                except AuditMismatchError as exc:
                    failures += 1
                    record["ok"] = False
                    record["error"] = str(exc)
                    print("AUDIT FAIL %s/%s trial %d: %s"
                          % (case, policy.value, trial, exc), file=sys.stderr)
                else:
                    record["ok"] = True
                    record["cycles"] = float(cost.ledger.smem_cycles)
                    record["gmem_transactions"] = float(
                        cost.ledger.gmem_read_transactions
                        + cost.ledger.gmem_write_transactions)
                records.append(record)
    if args.json:
        print(json.dumps({
            "arch": args.arch,
            "seed": args.seed,
            "trials": records,
            "failures": failures,
        }, indent=2, sort_keys=True))
    else:
        for rec in records:
            status = "ok" if rec["ok"] else "MISMATCH"
            print("%-8s %-10s trial %d  image=%-16s filters=%-16s %s"
                  % (rec["case"], rec["policy"], rec["trial"],
                     "x".join(map(str, rec["image"])),
                     "x".join(map(str, rec["filters"])), status))
        print("audit: %d trial(s), %d mismatch(es) on %s"
              % (len(records), failures, ARCHITECTURES[args.arch].name))
    return 1 if failures else 0


_COMMANDS = {
    "list": _cmd_list, "run": _cmd_run, "summary": _cmd_summary,
    "serve": _cmd_serve, "chaos": _cmd_chaos, "obs": _cmd_obs,
    "backends": _cmd_backends, "claims": _cmd_claims, "audit": _cmd_audit,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # Fail before the work, not after it, on an output file that
    # cannot be created.
    for dest in ("emit_trace", "save_trace", "output", "report"):
        path = getattr(args, dest, None)
        parent = os.path.dirname(path) if path else ""
        if parent and not os.path.isdir(parent):
            print("cannot write %s: directory %s does not exist"
                  % (path, parent), file=sys.stderr)
            return 2
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
