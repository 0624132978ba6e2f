"""Run the end-to-end benchmark: every run of a workload in a fresh child.

One workload for a time budget::

    python3 benchmarks/e2e/run.py --workload serve_steady --seed 7 \\
        --seconds 25 --trace 0

A whole set -- every workload, interleaved round-robin for ``--rounds``
rounds, then one traced round -- with the results and the trace saved::

    python3 benchmarks/e2e/run.py --seed 7 \\
        --out benchmarks/e2e/out/results.json \\
        --trace-file benchmarks/e2e/out/trace.json

The workloads and metrics are the ones ``BENCHMARK.json`` names.  Each
run of a workload is a fresh interpreter (``child.py``) with every
``REPRO_*`` variable removed and ``PYTHONPATH`` pointing at this
checkout's ``src``.  Before measuring, a reference child computes the
expected outputs once per set; every later child checks its outputs
against them.  Every metric is printed with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every output was
correct, 1 when one was not or a child failed, 2 when the checkout
holds no program to measure, and 143 when it is terminated (the running
child is stopped first).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"

#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 120.0

#: Measured rounds a time-bounded run makes at least.
MIN_ROUNDS = 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env() -> dict:
    """The environment of every child: no ``REPRO_*`` knob leaks in.

    The hash seed is fixed so the deterministic counts repeat exactly,
    and BLAS runs one thread so one child is the only load.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def git_state():
    """``(HEAD sha, dirty flag)`` of this checkout, or ``(None, None)``."""
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if sha.returncode != 0:
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def summarize(values) -> dict:
    """Median and quartiles (``statistics.quantiles``, n=4) of samples."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


class ChildError(RuntimeError):
    """A child crashed, timed out or wrote no result."""


class Session:
    """One invocation: its work files, its children, its progress log."""

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.scale = scale
        self.env = child_env()
        self.start = time.perf_counter()
        self.prefix = "%d-" % os.getpid()
        self.files = []

    def path(self, name: str) -> Path:
        path = WORK / (self.prefix + name)
        self.files.append(path)
        return path

    def log(self, message: str) -> None:
        print("[%7.1fs] %s" % (time.perf_counter() - self.start, message),
              file=sys.stderr, flush=True)

    def child(self, workload: str, role: str, round_no: int = 0,
              expected=None, events=None) -> dict:
        out = self.path("%s-%s-%d.json" % (workload, role, round_no))
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(self.seed),
               "--scale", self.scale, "--role", role,
               "--round", str(round_no), "--out", str(out)]
        if expected is not None:
            cmd += ["--expected", str(expected)]
        if events is not None:
            cmd += ["--events", str(events)]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise ChildError("%s %s child timed out after %.0f s"
                             % (workload, role, CHILD_TIMEOUT_S))
        if proc.returncode not in (0, 1) or not out.exists():
            raise ChildError("%s %s child exited %d:\n%s"
                             % (workload, role, proc.returncode,
                                proc.stderr[-3000:]))
        with open(out) as fh:
            result = json.load(fh)
        out.unlink()
        return result

    def cleanup(self) -> None:
        for path in self.files:
            if path.exists():
                path.unlink()
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


# ----------------------------------------------------------------------
# The protocol
# ----------------------------------------------------------------------

def prepare_expected(session: Session, names, keep_path):
    """Expected outputs for every workload, computed once per set.

    With ``keep_path`` the file is reused (and extended) across runs of
    the same seed and scale; a child whose inputs no longer match it
    refuses to run.
    """
    doc = {"seed": session.seed, "scale": session.scale, "workloads": {}}
    path = Path(keep_path) if keep_path else session.path("expected.json")
    if keep_path and path.exists():
        with open(path) as fh:
            doc = json.load(fh)
        if (doc.get("seed"), doc.get("scale")) != (session.seed,
                                                   session.scale):
            raise ChildError("%s holds seed %s at scale %s, not seed %d at "
                             "scale %s" % (path, doc.get("seed"),
                                           doc.get("scale"), session.seed,
                                           session.scale))
    for name in names:
        if name not in doc["workloads"]:
            session.log("%s: reference outputs" % name)
            doc["workloads"][name] = session.child(name, "reference")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def measure(session: Session, names, expected, seconds, rounds, trace,
            events: bool) -> dict:
    """Interleaved rounds of measured (and, when tracing, traced) children.

    With ``seconds`` the rounds continue while the next one is expected
    to end inside the budget (at least ``MIN_ROUNDS``, or one when
    tracing); each round then also runs a traced child per workload.
    Without it, ``rounds`` measured rounds run, then one traced round.
    """
    records = {name: [] for name in names}
    event_files = {}

    def one(name, role, round_no):
        want_events = events and role == "trace" and name not in event_files
        path = session.path("events-%s.json" % name) if want_events else None
        res = session.child(name, role, round_no, expected=expected,
                            events=path)
        if path is not None:
            event_files[name] = path
        records[name].append(res)
        session.log("%s %s round %d: %.1f %s/s, set-up %.3f s (measured "
                    "%.1f/s and %.3f s at host speed %.2f)%s"
                    % (name, role, round_no, res["items"] / res["run_s"],
                       res["unit"], res["setup_s"],
                       res["items"] / res["run_wall_s"], res["setup_wall_s"],
                       res["speed"],
                       "" if not res["failed"]
                       else ", %d FAILED" % res["failed"]))

    begin = time.perf_counter()
    round_no = 0
    while True:
        round_start = time.perf_counter()
        for name in names:
            one(name, "measure", round_no)
            if trace and seconds is not None:
                one(name, "trace", round_no)
        round_no += 1
        now = time.perf_counter()
        if seconds is None:
            if round_no >= rounds:
                break
        elif (round_no >= (1 if trace else MIN_ROUNDS)
              and now - begin + (now - round_start) > seconds):
            break
    if trace and seconds is None:
        for name in names:
            one(name, "trace", round_no)
    return {"records": records, "rounds": round_no, "events": event_files}


def aggregate(spec: dict, records: list) -> dict:
    """One workload's medians, quartiles, counts and failures."""
    measured = [r for r in records if r["role"] == "measure"]
    traced = [r for r in records if r["role"] == "trace"]
    samples = {
        "throughput_per_s": [r["items"] / r["run_s"] for r in measured],
        "setup_s": [r["setup_s"] for r in measured],
        "peak_rss_mb": [r["peak_rss_mb"] for r in measured],
    }
    end_to_end = {}
    for metric in spec["end_to_end"]:
        end_to_end[metric["name"]] = dict(unit=metric["unit"],
                                          **summarize(samples[metric["name"]]))
    failures = [f for r in records for f in r["failures"]]
    counts = records[0]["counts"]
    if any(r["counts"] != counts for r in records):
        failures.append("counts differ between runs of one seed: the "
                        "program is not deterministic")
    out = {
        "unit": records[0]["unit"],
        "end_to_end": end_to_end,
        # The same timings before normalization, and the host speed.
        "measured": {
            "throughput_per_s": summarize(r["items"] / r["run_wall_s"]
                                          for r in measured),
            "setup_s": summarize(r["setup_wall_s"] for r in measured),
            "host_speed": summarize(r["speed"] for r in measured),
        },
        "counts": counts,
        "attempted": sum(r["items"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "correct": not failures,
        "failures": failures[:50],
    }
    if traced:
        layers = {}
        for key in traced[0]["layers"]:
            layers[key] = statistics.median(r["layers"][key] for r in traced)
        values = dict(counts)
        values.update(traced[0]["ledger"])
        values.update(layers)
        values["trace_overhead"] = (
            statistics.median(r["run_s"] for r in traced)
            / statistics.median(r["run_s"] for r in measured))
        out["per_layer"] = {m["name"]: values.get(m["name"], 0.0)
                            for m in spec["per_layer"]}
        out["self_s"] = {
            key: statistics.median(r["self_s"].get(key, 0.0) for r in traced)
            for key in traced[0]["self_s"]}
        out["traced_wall_s"] = statistics.median(r["run_wall_s"]
                                                 for r in traced)
    return out


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def print_report(spec: dict, summary: dict) -> None:
    for name, res in summary["workloads"].items():
        for metric in spec["end_to_end"]:
            s = res["end_to_end"][metric["name"]]
            print("%-13s %-40s %14.6g %-8s [q1 %.6g, q3 %.6g, n=%d]"
                  % (name, metric["name"], s["median"], metric["unit"],
                     s["q1"], s["q3"], s["n"]))
        raw = res["measured"]
        print("%-13s measured at host speed %.3f: %.6g %s/s, set-up %.6g s"
              % (name, raw["host_speed"]["median"],
                 raw["throughput_per_s"]["median"], res["unit"],
                 raw["setup_s"]["median"]))
        for metric in spec["per_layer"] if "per_layer" in res else ():
            print("%-13s %-40s %14.6g %s"
                  % (name, metric["name"], res["per_layer"][metric["name"]],
                     metric["unit"]))
        for failure in res["failures"]:
            print("%-13s FAILED: %s" % (name, failure))


def result_line(spec: dict, summary: dict, trace: bool) -> dict:
    """The contract's last line: every end-to-end metric, or every
    per-layer one when tracing; names carry a ``workload/`` prefix when
    the run covered more than one workload."""
    metrics = {}
    runs = summary["workloads"]
    for name, res in runs.items():
        prefix = "" if len(runs) == 1 else name + "/"
        for metric in spec["per_layer" if trace else "end_to_end"]:
            value = (res["per_layer"][metric["name"]] if trace
                     else res["end_to_end"][metric["name"]]["median"])
            metrics[prefix + metric["name"]] = {"value": value,
                                                "unit": metric["unit"]}
    return {
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": metrics,
    }


def write_trace(path: str, event_files: dict, provenance: dict) -> None:
    events = []
    for name in sorted(event_files):
        with open(event_files[name]) as fh:
            events.extend(json.load(fh))
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": provenance}, fh)


def provenance(args, scale: str, rounds: int) -> dict:
    import numpy

    sha, dirty = git_state()
    return {
        "git_sha": sha,
        "dirty": dirty,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": args.seed,
        "scale": scale,
        "rounds": rounds,
        "seconds": args.seconds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro package.")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="measure for this long instead of --rounds")
    parser.add_argument("--rounds", type=int, default=7,
                        help="measured rounds when --seconds is not given")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add traced children and report the "
                             "per-layer metrics")
    parser.add_argument("--trace-file",
                        help="write the traced spans as Chrome trace JSON "
                             "(implies --trace 1)")
    parser.add_argument("--out", help="write the full results as JSON")
    parser.add_argument("--expected",
                        help="keep the reference outputs in this file and "
                             "reuse them on later runs of the same seed")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("run.py: no program to measure: %s is missing"
              % (ROOT / "src" / "repro"), file=sys.stderr)
        return 2
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        parser.error("unknown workloads %s; known: %s"
                     % (", ".join(unknown), ", ".join(known)))
    if args.rounds < 1 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--rounds and --seconds must be positive")
    trace = bool(args.trace) or args.trace_file is not None
    scale = "smoke" if args.smoke else "full"

    for path in (args.out, args.trace_file, args.expected):
        if path:
            Path(path).resolve().parent.mkdir(parents=True, exist_ok=True)
    WORK.mkdir(exist_ok=True)
    session = Session(args.seed, scale)
    # A terminated run raises here, so that the running child is killed
    # and waited for (subprocess.run does so on any exception) and the
    # work files are removed.
    signal.signal(signal.SIGTERM, _terminated)
    try:
        expected = prepare_expected(session, names, args.expected)
        run = measure(session, names, expected, args.seconds, args.rounds,
                      trace, events=args.trace_file is not None)
        summary = {
            "provenance": provenance(args, scale, run["rounds"]),
            "workloads": {name: aggregate(spec, run["records"][name])
                          for name in names},
        }
        if args.trace_file:
            write_trace(args.trace_file, run["events"], summary["provenance"])
    except ChildError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    finally:
        session.cleanup()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    print_report(spec, summary)
    line = result_line(spec, summary, trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _terminated(signum, frame):
    sys.exit(128 + signum)


if __name__ == "__main__":
    sys.exit(main())
