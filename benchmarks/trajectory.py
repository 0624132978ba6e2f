"""Keep ``BENCH_trajectory.json`` from ``benchmarks/e2e`` results.

    python3 benchmarks/trajectory.py append RESULTS --note TEXT
    python3 benchmarks/trajectory.py check RESULTS

``RESULTS`` is a file written by ``benchmarks/e2e/run.py --trace 1
--out RESULTS``.

``append`` adds one schema-v2 point to the trajectory.  Per workload
the point keeps the three end-to-end metrics (median, q1, q3, n and
samples), the median host speed, the exact metrics that
``compare.exact_metrics`` selects, and ``stages``: the traced self
times folded by :data:`STAGES`.  Its ``meta`` holds the results file's
provenance and the note.  Earlier points, v1 ones included, are left as
they are.

``check`` prints ``compare.py``'s table of the newest v2 point with the
same seed and scale (A) against the results (B).  It exits 1 when the
results are not ``correct``, when an exact metric differs (integral
values exactly, others by more than 1e-6 relative), or when a
workload's ``throughput_per_s`` verdict is ``regressed``.  The
``setup_s`` and ``peak_rss_mb`` verdicts are printed, not gated.  It
exits 2 when no point matches.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = ROOT / "BENCH_trajectory.json"

sys.path.insert(0, str(HERE / "e2e"))
import compare  # noqa: E402

SCHEMA = "repro.perf-trajectory/v2"
SCHEMA_VERSION = 2

#: Host wall stages and the traced layers whose self time they sum.  A
#: name ending in ``.`` matches every layer under it.  ``core.dse`` is
#: ``search`` on every workload; any layer not named here, such as the
#: ``run`` residual, ``serve.engine`` and ``gpu.fastsim.trace``, goes to
#: ``other``, so the stages sum to the traced wall.
STAGES = {
    "route_admit": ("fleet.admission",),
    "search": ("core.dse",),
    "plan": ("serve.dispatch.plan", "serve.dispatch.build", "kernels.",
             "core.", "gpu.timing."),
    "batch": ("serve.batcher",),
    "execute": ("serve.dispatch.execute", "conv.reference", "fleet.replica"),
    "reassemble": ("fleet.serve",),
    "telemetry_merge": ("fleet.merge", "serve.stats"),
}

#: Relative drift allowed on an exact metric that is not integral.
MODEL_TOLERANCE = 1e-6

GATED = "throughput_per_s"


class Refused(Exception):
    """The results file cannot be used; ``code`` is the exit code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_results(path: str) -> dict:
    with open(path) as fh:
        res = json.load(fh)
    wrong = sorted(name for name, w in res["workloads"].items()
                   if not w["correct"])
    if wrong:
        raise Refused("%s is not correct: %s" % (path, ", ".join(wrong)), 1)
    untraced = sorted(name for name, w in res["workloads"].items()
                      if "self_s" not in w)
    if untraced:
        raise Refused("%s has no traced round for %s; run with --trace 1"
                      % (path, ", ".join(untraced)), 2)
    return res


def stage_of(layer: str) -> str:
    for stage, layers in STAGES.items():
        for name in layers:
            if layer == name or (name.endswith(".") and layer.startswith(name)):
                return stage
    return "other"


def fold_stages(self_s: dict) -> dict:
    stages = dict.fromkeys(list(STAGES) + ["other"], 0.0)
    for layer, seconds in self_s.items():
        stages[stage_of(layer)] += seconds
    return stages


def build_point(spec: dict, res: dict, note: str) -> dict:
    workloads = {}
    for name, w in res["workloads"].items():
        workloads[name] = {
            "unit": w["unit"],
            "end_to_end": {
                m: {k: w["end_to_end"][m][k]
                    for k in ("median", "q1", "q3", "n", "samples")}
                for m in (metric["name"] for metric in spec["end_to_end"])},
            "host_speed": w["measured"]["host_speed"]["median"],
            "exact": compare.exact_metrics(spec, w),
            "stages": fold_stages(w["self_s"]),
        }
    meta = dict(res["provenance"], schema_version=SCHEMA_VERSION,
                source="benchmarks/e2e", note=note,
                recorded_unix=round(time.time(), 3))
    return {"meta": meta, "workloads": workloads}


def append(spec: dict, results: str, note: str, path: Path) -> dict:
    point = build_point(spec, load_results(results), note)
    with open(path) as fh:
        doc = json.load(fh)
    doc["points"].append(point)
    doc["schema"], doc["schema_version"] = SCHEMA, SCHEMA_VERSION
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    tmp.replace(path)
    return point


def baseline(points: list, seed, scale):
    """The newest v2 point of this seed and scale, or ``None``."""
    for point in reversed(points):
        meta = point["meta"]
        if (meta.get("schema_version") == SCHEMA_VERSION
                and meta.get("seed") == seed and meta.get("scale") == scale):
            return point
    return None


def exact_drift(a, b) -> bool:
    """Whether exact metric ``b`` differs from baseline ``a``: integral
    values exactly, other floats by more than :data:`MODEL_TOLERANCE`."""
    if (isinstance(a, float) and isinstance(b, float)
            and not (a.is_integer() and b.is_integer())):
        return not math.isclose(a, b, rel_tol=MODEL_TOLERANCE, abs_tol=0.0)
    return a != b


def check(spec: dict, results: str, path: Path) -> int:
    res = load_results(results)
    with open(path) as fh:
        points = json.load(fh)["points"]
    prov = res["provenance"]
    point = baseline(points, prov["seed"], prov["scale"])
    if point is None:
        raise Refused("%s has no v2 point with seed %s and scale %s"
                      % (path.name, prov["seed"], prov["scale"]), 2)
    base = {"provenance": point["meta"], "workloads": {
        name: {"end_to_end": w["end_to_end"], "counts": w["exact"]}
        for name, w in point["workloads"].items()}}
    print("baseline: %s point %r" % (path.name, point["meta"]["note"]))
    compare.compare(spec, base, res)

    failures = []
    gated = next(m for m in spec["end_to_end"] if m["name"] == GATED)
    for name, w in point["workloads"].items():
        if name not in res["workloads"]:
            print("%s: not in the results, not checked" % name)
            continue
        got = res["workloads"][name]
        _, word = compare.verdict(gated, w["end_to_end"][GATED],
                                  got["end_to_end"][GATED])
        if word == "regressed":
            failures.append("%s %s regressed beyond its bound %g"
                            % (name, GATED, gated["bound"]))
        exact = compare.exact_metrics(spec, got)
        for key in sorted(set(w["exact"]) | set(exact)):
            a, b = w["exact"].get(key), exact.get(key)
            if exact_drift(a, b):
                failures.append("%s exact %s: %r -> %r" % (name, key, a, b))
    print("setup_s and peak_rss_mb verdicts are reported, not gated")
    for failure in failures:
        print("FAIL %s" % failure)
    print("check: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main(argv=None, trajectory: Path = TRAJECTORY) -> int:
    parser = argparse.ArgumentParser(
        description="Append benchmarks/e2e results to BENCH_trajectory.json "
                    "or check results against it.")
    sub = parser.add_subparsers(dest="command", required=True)
    add = sub.add_parser("append", help="append a point built from RESULTS")
    add.add_argument("results")
    add.add_argument("--note", required=True)
    chk = sub.add_parser("check", help="check RESULTS against the newest "
                         "point of the same seed and scale")
    chk.add_argument("results")
    args = parser.parse_args(argv)

    spec = load_spec()
    try:
        if args.command == "append":
            point = append(spec, args.results, args.note, trajectory)
            for name, w in point["workloads"].items():
                print("%-13s %s %.6g  stages %s" % (
                    name, GATED, w["end_to_end"][GATED]["median"],
                    ", ".join("%s %.3f s" % kv for kv in w["stages"].items()
                              if kv[1])))
            return 0
        return check(spec, args.results, trajectory)
    except Refused as exc:
        print("trajectory.py: %s" % exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
