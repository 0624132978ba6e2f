"""The perf-trajectory database: append-only, schema-versioned points.

``BENCH_trajectory.json`` is the repo's performance memory: every
recorded suite run (and the normalized legacy ``BENCH_serve.json``
entry) is one *point* — a ``meta`` block identifying when/where/what
was measured plus a ``workloads`` map of metric values.  Points are
append-only: recording never rewrites history, so the file reads as
the repo's perf trajectory over PRs.

Schema (``repro.perf-trajectory/v1``)::

    {
      "schema": "repro.perf-trajectory/v1",
      "schema_version": 1,
      "points": [
        {
          "meta": {
            "schema_version": 1,
            "source": "perf_suite" | "fleet_proof",
            "scale": "smoke" | "ci" | "full",
            "version": "1.6.0",          # repro.__version__
            "git_sha": "abc123..",        # or "unknown"
            "python": "3.12.4",
            "platform": "Linux-...",
            "cpu_count": 8,
            "recorded_unix": 1754650000.0,
            "calibration_s": 0.083,       # fixed-work machine yardstick
            "note": "...",                # optional
          },
          "workloads": {"table1_dse": {"wall_s": 8.1, "rows": 3}, ...}
        }
      ]
    }

Metric naming convention: ``wall_s`` (and any ``*_wall_s``) are
host-clock measurements — noisy, machine-dependent, normalized by the
calibration yardstick when gated.  Every other metric is treated as
*modeled* (virtual-clock rates, cache hit rates, candidate counts) —
deterministic for a given tree, so the gate flags any drift.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import subprocess
import sys
import time
from typing import Optional

import numpy as np

from repro.errors import ObservabilityError

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "TRAJECTORY_PATH",
    "environment_fingerprint",
    "calibrate",
    "make_meta",
    "new_trajectory",
    "load_trajectory",
    "validate_point",
    "append_point",
    "is_wall_metric",
    "normalize_bench_serve",
]

SCHEMA = "repro.perf-trajectory/v1"
SCHEMA_VERSION = 1

#: Default database location (repo root by convention).
TRAJECTORY_PATH = "BENCH_trajectory.json"


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment_fingerprint() -> dict:
    """Who measured: version, git sha, python, platform, cpu count."""
    from repro import __version__

    return {
        "version": __version__,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
    }


def calibrate(reps: int = 24) -> float:
    """Time a fixed unit of mixed Python/numpy work (seconds).

    The workload profile mirrors what the suite actually exercises — a
    Python-level loop issuing small numpy kernels — so the ratio of two
    machines' calibration times predicts the ratio of their suite
    wall-clocks.  The gate divides wall budgets by this yardstick,
    making wall-clock comparisons portable across hosts while a genuine
    code regression (which does not slow the calibration) still trips
    the budget.  The work amount is fixed — never adaptive — so the
    measurement itself is comparable between runs.  The cyclic garbage
    collector is paused while timing, as :mod:`timeit` does: a full
    collection walks the caller's whole heap, so where one lands would
    make the yardstick measure the calling process rather than the host.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((96, 96)).astype(np.float32)
    b = rng.standard_normal((96, 96)).astype(np.float32)
    acc = 0.0
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(reps):
            c = a @ b
            acc += float(c[0, 0])
            total = 0
            for i in range(20_000):      # the Python-interpreter share
                total += i & 7
            acc += total
            a = np.roll(a, 1, axis=0)
        elapsed = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    if acc == float("inf"):              # keep the work observable
        raise ObservabilityError("calibration overflowed")
    return elapsed


def make_meta(source: str, scale: str, calibration_s: Optional[float] = None,
              note: Optional[str] = None, backfilled: bool = False) -> dict:
    """A point's ``meta`` block, stamped with the environment fingerprint."""
    meta = {"schema_version": SCHEMA_VERSION, "source": source, "scale": scale}
    meta.update(environment_fingerprint())
    meta["recorded_unix"] = round(time.time(), 3)
    if calibration_s is not None:
        meta["calibration_s"] = round(float(calibration_s), 6)
    if note:
        meta["note"] = str(note)
    if backfilled:
        meta["backfilled"] = True
    return meta


def new_trajectory() -> dict:
    return {"schema": SCHEMA, "schema_version": SCHEMA_VERSION, "points": []}


def validate_point(point: dict) -> dict:
    """Raise :class:`ObservabilityError` unless ``point`` fits the schema."""
    if not isinstance(point, dict):
        raise ObservabilityError("trajectory point must be an object")
    meta = point.get("meta")
    if not isinstance(meta, dict):
        raise ObservabilityError("trajectory point needs a meta block")
    for field in ("schema_version", "source", "scale", "version"):
        if field not in meta:
            raise ObservabilityError(
                "trajectory point meta is missing %r" % field)
    if meta["schema_version"] > SCHEMA_VERSION:
        raise ObservabilityError(
            "trajectory point schema_version %r is newer than this "
            "reader (%d)" % (meta["schema_version"], SCHEMA_VERSION))
    workloads = point.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        raise ObservabilityError("trajectory point needs non-empty workloads")
    for name, metrics in workloads.items():
        if not isinstance(metrics, dict):
            raise ObservabilityError(
                "workload %r must map metric names to numbers" % name)
        for metric, value in metrics.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ObservabilityError(
                    "workload %r metric %r is not a number (%r)"
                    % (name, metric, value))
    return point


def load_trajectory(path: str = TRAJECTORY_PATH) -> dict:
    """Load and validate a trajectory database."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ObservabilityError("cannot read trajectory %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ObservabilityError(
            "trajectory %s is not valid JSON: %s" % (path, exc))
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise ObservabilityError(
            "%s is not a %s document" % (path, SCHEMA))
    if doc.get("schema_version", 0) > SCHEMA_VERSION:
        raise ObservabilityError(
            "trajectory %s has schema_version %r, newer than this reader"
            % (path, doc.get("schema_version")))
    points = doc.get("points")
    if not isinstance(points, list):
        raise ObservabilityError("trajectory %s needs a points list" % path)
    for point in points:
        validate_point(point)
    return doc


def append_point(path: str, point: dict) -> dict:
    """Append one validated point to the database at ``path``.

    Creates the file (empty trajectory) when missing; never mutates or
    reorders existing points — the database is append-only by
    construction.  Returns the written document.
    """
    validate_point(point)
    if os.path.exists(path):
        doc = load_trajectory(path)
    else:
        doc = new_trajectory()
    doc["points"].append(point)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return doc


def is_wall_metric(name: str) -> bool:
    """Whether a metric is a host wall-clock measurement (noisy) as
    opposed to a modeled/deterministic one — the gate normalizes the
    former by the calibration yardstick and drift-checks the latter."""
    return name == "wall_s" or name.endswith("_wall_s")


# ----------------------------------------------------------------------
# Legacy ingestion: BENCH_serve.json (the PR-5 fleet proof document)
# ----------------------------------------------------------------------

def normalize_bench_serve(path: str = "BENCH_serve.json") -> dict:
    """Normalize a ``BENCH_serve.json`` document into a trajectory point.

    The fleet-proof harness's legs map onto suite-compatible workload
    names (``table1_dse``, ``fleet_serve``, ``fleet_overload``) so
    ``repro perf report`` renders deltas between the PR-5 numbers and
    later suite runs.  Leg ``meta`` blocks (stamped by
    ``benchmarks/fleet_proof.py``) carry the provenance; documents
    predating the stamps are ingested with ``backfilled: true``.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ObservabilityError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ObservabilityError("%s is not valid JSON: %s" % (path, exc))
    legs = doc.get("legs")
    if not isinstance(legs, dict):
        raise ObservabilityError("%s has no legs to normalize" % path)

    # Provenance: prefer any leg's meta stamp, else backfill from the
    # document's top-level version.
    leg_meta = next(
        (leg["meta"] for leg in legs.values()
         if isinstance(leg, dict) and isinstance(leg.get("meta"), dict)),
        None)
    meta = make_meta(source="fleet_proof", scale="full",
                     backfilled=leg_meta is None)
    if leg_meta is not None:
        for field in ("schema_version", "version", "git_sha", "python",
                      "recorded_unix", "backfilled"):
            if field in leg_meta:
                meta[field] = leg_meta[field]
    elif "version" in doc:
        meta["version"] = doc["version"]

    workloads = {}
    table1 = legs.get("table1")
    if table1:
        workloads["table1_dse"] = {
            "wall_s": table1["wall_s"], "rows": table1["rows"]}
    proof = legs.get("proof")
    if proof:
        fleet = proof.get("fleet", {})
        workloads["fleet_serve"] = {
            "requests": proof["requests"],
            "replicas": proof["replicas"],
            "wall_s": fleet.get("wall_s", 0.0),
            "modeled_rps": fleet.get("modeled_rps", 0.0),
            "latency_p99_s": fleet.get("latency", {}).get("p99_s", 0.0),
            "affinity_hit_rate": fleet.get("affinity_hit_rate", 0.0),
            "shed": proof.get("shed", 0),
        }
        single = proof.get("single")
        if single:
            workloads["serve_engine"] = {
                "requests": proof["requests"],
                "wall_s": single.get("wall_s", 0.0),
                "throughput_rps": single.get("modeled_rps", 0.0),
                "latency_p99_s": single.get("latency", {}).get("p99_s", 0.0),
            }
    overload = legs.get("overload")
    if overload:
        workloads["fleet_overload"] = {
            "requests": overload["requests"],
            "shed_rate": overload.get("shed_rate", 0.0),
            "latency_p99_s": overload.get("latency_p99_s", 0.0),
            "sustained_rps": overload.get("sustained_rps", 0.0),
        }
    if not workloads:
        raise ObservabilityError("%s had no normalizable legs" % path)
    return validate_point({"meta": meta, "workloads": workloads})
