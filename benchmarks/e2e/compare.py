"""Compare two results files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

Prints one row per workload and end-to-end metric with each side's
median, q1 and q3, B's change against A (positive is better), and a
verdict against the metric's bound from ``BENCHMARK.json``:

* ``regressed`` -- B's median is worse than A's by more than the bound;
* ``improved`` -- B's median is better by more than A's own spread;
* ``unchanged`` -- neither;
* ``unresolved`` -- the run-to-run spread (q3 - q1 over the median, on
  either side) is wider than the bound, so the medians cannot tell,
  unless every B sample beats every A sample (``improved``).

Then it diffs, exactly, every count and every ``model.*`` metric: the
public-surface counts of both files and, when both have a traced round,
the per-layer metrics that are not wall-clock times.  The exit code is 1
when any row regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Per-layer units measured on the host clock; everything else repeats
#: exactly for one seed and one commit.
_CLOCK_UNITS = ("s", "ms", "x")


def spread(side: dict) -> float:
    return (side["q3"] - side["q1"]) / side["median"] if side["median"] else 0.0


def verdict(metric: dict, a: dict, b: dict):
    """``(change, verdict)`` of B against A; a positive change is better."""
    higher = metric["better"] == "higher"
    change = (b["median"] - a["median"]) / a["median"]
    if not higher:
        change = -change
    if max(spread(a), spread(b)) > metric["bound"]:
        if higher:
            beats = min(b["samples"]) > max(a["samples"])
        else:
            beats = max(b["samples"]) < min(a["samples"])
        return change, "improved" if beats else "unresolved"
    if change < -metric["bound"]:
        return change, "regressed"
    if change > spread(a):
        return change, "improved"
    return change, "unchanged"


def exact_metrics(spec: dict, res: dict) -> dict:
    values = dict(res["counts"])
    for metric in spec["per_layer"]:
        name = metric["name"]
        if "per_layer" in res and (name.startswith("model.")
                                   or metric["unit"] not in _CLOCK_UNITS):
            values[name] = res["per_layer"][name]
    return values


def compare(spec: dict, a: dict, b: dict) -> int:
    pa, pb = a["provenance"], b["provenance"]
    print("A: %s%s seed %s scale %s   B: %s%s seed %s scale %s"
          % (pa["git_sha"], "+dirty" if pa["dirty"] else "", pa["seed"],
             pa["scale"], pb["git_sha"], "+dirty" if pb["dirty"] else "",
             pb["seed"], pb["scale"]))
    if (pa["seed"], pa["scale"]) != (pb["seed"], pb["scale"]):
        print("warning: different seeds or scales; counts will differ")
    regressed = 0
    print("%-13s %-17s %-34s %-34s %8s  %s"
          % ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
             "change", "verdict"))
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        ra, rb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            sa = ra["end_to_end"][metric["name"]]
            sb = rb["end_to_end"][metric["name"]]
            change, word = verdict(metric, sa, sb)
            regressed += word == "regressed"
            print("%-13s %-17s %-34s %-34s %+7.1f%%  %s"
                  % (name, metric["name"], _side(sa), _side(sb),
                     100 * change, word))
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        ea = exact_metrics(spec, a["workloads"][name])
        eb = exact_metrics(spec, b["workloads"][name])
        differ = sorted(k for k in set(ea) | set(eb) if ea.get(k) != eb.get(k))
        print("%-13s exact metrics: %d identical, %d differ"
              % (name, len(set(ea) | set(eb)) - len(differ), len(differ)))
        for key in differ:
            print("  %-44s A %r  B %r" % (key, ea.get(key), eb.get(key)))
    return 1 if regressed else 0


def _side(s: dict) -> str:
    return "%.5g [%.5g, %.5g]" % (s["median"], s["q1"], s["q3"])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    with open(argv[0]) as fh:
        a = json.load(fh)
    with open(argv[1]) as fh:
        b = json.load(fh)
    return compare(spec, a, b)


if __name__ == "__main__":
    sys.exit(main())
