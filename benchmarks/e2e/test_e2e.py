"""Self-test of the end-to-end benchmark at smoke scale.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Nothing here asserts on wall-clock numbers: the checks are that every
metric ``BENCHMARK.json`` names is printed with its unit, that one seed
repeats every deterministic metric exactly, that a wrong expected output
fails the run, that a timed window samples the host speed, and that a
checkout without the program is refused.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks/e2e/run.py"), "--smoke",
         "--seed", "5", "--rounds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def workdir():
    path = HERE / ".work" / ("test-%d" % os.getpid())
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)
    if not any(path.parent.iterdir()):
        path.parent.rmdir()


@pytest.fixture(scope="module")
def first(workdir):
    proc = smoke("--trace", "1", "--out", str(workdir / "a.json"),
                 "--expected", str(workdir / "expected.json"))
    assert proc.returncode == 0, proc.stderr
    return proc


def test_every_metric_is_printed_with_its_unit(first):
    rows = {tuple(line.split()[:2]): line.split()
            for line in first.stdout.splitlines()[:-1]}
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            row = rows.get((workload["name"], metric["name"]))
            assert row is not None, (workload["name"], metric["name"])
            assert row[3] == metric["unit"], row
    last = json.loads(first.stdout.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    for workload in SPEC["workloads"]:
        for metric in SPEC["per_layer"]:
            key = "%s/%s" % (workload["name"], metric["name"])
            assert last["metrics"][key]["unit"] == metric["unit"]


def test_one_seed_repeats_every_deterministic_metric(first, workdir):
    proc = smoke("--trace", "1", "--out", str(workdir / "b.json"),
                 "--expected", str(workdir / "expected.json"))
    assert proc.returncode == 0, proc.stderr
    a = json.loads((workdir / "a.json").read_text())
    b = json.loads((workdir / "b.json").read_text())
    for name in a["workloads"]:
        exact_a = compare.exact_metrics(SPEC, a["workloads"][name])
        assert any(k.startswith("model.") for k in exact_a)
        assert exact_a == compare.exact_metrics(SPEC, b["workloads"][name])
    same = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(workdir / "a.json"),
         str(workdir / "a.json")], capture_output=True, text=True, timeout=60)
    assert same.returncode == 0, same.stdout
    assert "regressed" not in same.stdout


def test_a_tampered_expected_digest_fails_the_run(first, workdir):
    doc = json.loads((workdir / "expected.json").read_text())
    outputs = doc["workloads"]["serve_steady"]["expected"]["outputs"]
    outputs[0] = "0" * len(outputs[0])
    tampered = workdir / "tampered.json"
    tampered.write_text(json.dumps(doc))
    proc = smoke("--workload", "serve_steady", "--expected", str(tampered))
    assert proc.returncode != 0
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is False and last["failed"] >= 1


def test_a_window_samples_the_host_speed():
    speed = hostspeed.HostSpeed()
    with speed.window() as window:
        end = time.perf_counter() + 0.05
        while time.perf_counter() < end:
            pass
    # One sample on each side of the window and the timer's ticks inside.
    assert len(window.samples) >= 3
    assert 0 < window.seconds < window.end - window.start
    assert window.speed > 0 and window.nominal_s > 0


def test_a_checkout_without_the_program_is_refused(workdir):
    bare = workdir / "bare"
    (bare / "benchmarks/e2e").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "benchmarks/e2e")
    proc = smoke(cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
