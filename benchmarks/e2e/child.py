"""One run of one workload in a fresh interpreter; ``run.py`` starts it.

    python3 child.py --workload NAME --seed N --scale full|smoke
                     --role reference|measure|trace --out FILE
                     [--expected FILE] [--events FILE] [--round N]

Roles:

* ``reference`` -- generate the inputs and write the expected outputs
  (plus a digest of the inputs) to ``--out``; the other roles read them
  back from ``--expected``, a file of such entries keyed by workload;
* ``measure`` -- the timed run, tracing off: set-up time, run time,
  peak memory, the output check and the public-surface counts;
* ``trace`` -- the same with every layer wrapped (see ``layers.py``),
  adding the per-layer metrics and, with ``--events``, the spans as
  Chrome trace events.

The order inside a child is fixed: import the program, generate the
inputs (untimed), construct and warm it (timed as set-up, together with
the import), the timed run, then the untimed check.  numpy is imported
before the set-up clock starts, because the host-speed sampler
(``hostspeed.py``) needs it.  Every timed window is reported twice: as
wall time, and as CPU time normalized to the nominal host speed, which
the metrics use.  The result goes to
``--out`` as JSON; the exit code is 1 when the check found a wrong
output, 2 on a usage or input error.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from contextlib import nullcontext

import hostspeed

SPEED = hostspeed.HostSpeed()

with SPEED.window() as IMPORT:
    import workloads  # imports the program: part of set-up


def current_rss_bytes() -> float:
    """Resident set size now (Linux ``/proc``; peak so far elsewhere)."""
    try:
        with open("/proc/self/statm") as fh:
            return float(fh.read().split()[1]) * resource.getpagesize()
    except OSError:
        return peak_rss_bytes()


def peak_rss_bytes() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES),
                        default="full")
    parser.add_argument("--role", required=True,
                        choices=("reference", "measure", "trace"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--expected")
    parser.add_argument("--events")
    parser.add_argument("--round", type=int, default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.generate(args.seed, args.scale)
    input_digest = workload.input_digest(inputs)
    if args.role == "reference":
        _write(args.out, {"input_digest": input_digest,
                          "expected": workload.reference(inputs)})
        return 0

    if not args.expected:
        parser.error("--expected is required for role %s" % args.role)
    with open(args.expected) as fh:
        reference = json.load(fh)["workloads"][args.workload]
    if reference["input_digest"] != input_digest:
        print("child: the expected outputs were made for other inputs",
              file=sys.stderr)
        return 2

    recorder = None
    if args.role == "trace":
        import layers

        recorder = layers.Recorder()
        layers.install(recorder)
        recorder.active = True
    rss_inputs = current_rss_bytes()

    with SPEED.window() as setup, _phase(recorder, "setup"):
        state = workload.setup(inputs)
    before = workloads.process_counts()
    with SPEED.window() as run, _phase(recorder, "run"):
        result = workload.run(state, inputs)
    peak = peak_rss_bytes()
    if recorder is not None:
        recorder.active = False

    counts = workloads.process_deltas(before, workloads.process_counts())
    failures = workload.check(inputs, result, reference["expected"])
    counts.update(workload.counts(state, inputs, result))
    out = {
        "workload": args.workload,
        "role": args.role,
        "round": args.round,
        "items": workload.items(inputs),
        "unit": workload.unit,
        "setup_s": IMPORT.nominal_s + setup.nominal_s,
        "setup_wall_s": IMPORT.wall_s + setup.wall_s,
        "run_s": run.nominal_s,
        "run_wall_s": run.wall_s,
        "speed": run.speed,
        "peak_rss_mb": (peak - rss_inputs) / 1e6,
        "failed": len(failures),
        "failures": failures[:20],
        "counts": counts,
    }
    if recorder is not None:
        out["ledger"] = workload.ledger(state, inputs, result)
        out["layers"] = layers.layer_metrics(recorder)
        out["self_s"] = layers.self_times(recorder)
        if args.events:
            _write(args.events, layers.chrome_events(
                recorder, pid=sorted(workloads.WORKLOADS).index(args.workload),
                label=args.workload,
                extra_args={"workload": args.workload, "round": args.round}))
    _write(args.out, out)
    return 1 if failures else 0


def _phase(recorder, name: str):
    """A root span when tracing, nothing otherwise."""
    return recorder.phase(name) if recorder is not None else nullcontext()


def _write(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
