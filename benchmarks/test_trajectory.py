"""Tests of ``benchmarks/trajectory.py`` on synthetic results files.

    PYTHONPATH=src python -m pytest benchmarks/test_trajectory.py -q

Each test works on a copy of the checked-in ``BENCH_trajectory.json``
and a small results file shaped like ``run.py --trace 1 --out``'s, with
a seed no checked-in point uses.
"""

from __future__ import annotations

import json
import shutil
import statistics
from pathlib import Path

import pytest

import trajectory

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 90210

#: Traced self seconds, binary fractions so that every sum is exact.
SELF_S = {
    "run": 0.5,
    "serve.engine": 0.25,
    "serve.batcher": 0.125,
    "serve.dispatch.plan": 0.0625,
    "serve.dispatch.build": 0.0625,
    "serve.dispatch.execute": 0.25,
    "conv.reference": 1.0,
    "serve.stats": 0.03125,
    "fleet.serve": 0.125,
    "fleet.admission": 0.0625,
    "fleet.replica": 0.125,
    "fleet.merge": 0.03125,
    "fleet.plan": 0.015625,
    "fleet.shared_cache": 0.015625,
    "core.dse": 0.5,
    "core.cost": 0.75,
    "gpu.timing.evaluate": 0.25,
    "gpu.fastsim.trace": 0.125,
    "kernels.special.configure": 0.0625,
    "kernels.general.predict": 0.0625,
    "some.new.layer": 0.0078125,
}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": list(values)}


def make_results():
    workloads = {}
    for name in ("serve_steady", "dse_sweep"):
        exact = {"gpu.fastsim.calls": 2, "core.cost.calls": 640,
                 "serve.plan_cache.lookups": 4000,
                 "serve.plan_cache.hit_rate": 0.6666666666666666,
                 "model.rps": 12345.678901, "model.t_gmem_s": 1.25e-3}
        per_layer = {m["name"]: 0.0 for m in SPEC["per_layer"]}
        per_layer.update(exact)
        per_layer.update({"serve.dispatch.build.p50_ms": 0.4,
                          "trace_overhead": 1.05})
        workloads[name] = {
            "unit": "requests",
            "end_to_end": {
                "throughput_per_s": dict(unit="1/s", **summary(
                    [990.0, 995.0, 1000.0, 1005.0, 1010.0])),
                "setup_s": dict(unit="s", **summary(
                    [0.10, 0.11, 0.12, 0.11, 0.10])),
                "peak_rss_mb": dict(unit="MB", **summary(
                    [50.0, 50.5, 50.2, 50.1, 50.3])),
            },
            "measured": {"host_speed": summary([0.5, 0.52, 0.48, 0.5])},
            "counts": {k: v for k, v in exact.items()
                       if not k.startswith("core.")},
            "attempted": 100,
            "failed": 0,
            "correct": True,
            "failures": [],
            "per_layer": per_layer,
            "self_s": dict(SELF_S),
            "traced_wall_s": sum(SELF_S.values()),
        }
    provenance = {"git_sha": "0123abc", "dirty": False, "cpu_count": 2,
                  "python": "3.11.7", "numpy": "2.4.6", "platform": "Linux",
                  "seed": SEED, "scale": "smoke", "rounds": 5,
                  "seconds": None}
    return {"provenance": provenance, "workloads": workloads}


def set_exact(res, workload, key, value):
    """Move one exact metric everywhere the results file carries it."""
    w = res["workloads"][workload]
    for table in (w["counts"], w["per_layer"]):
        if key in table:
            table[key] = value


@pytest.fixture
def traj(tmp_path):
    path = tmp_path / "BENCH_trajectory.json"
    shutil.copy(ROOT / "BENCH_trajectory.json", path)
    return path


def write(tmp_path, res, name="results.json"):
    path = tmp_path / name
    path.write_text(json.dumps(res))
    return str(path)


def append(tmp_path, traj, res):
    argv = ["append", write(tmp_path, res, "base.json"), "--note", "test"]
    assert trajectory.main(argv, trajectory=traj) == 0
    return json.loads(traj.read_text())["points"][-1]


def check(tmp_path, traj, res):
    return trajectory.main(["check", write(tmp_path, res)], trajectory=traj)


class TestAppend:
    def test_earlier_points_stay_json_equal(self, tmp_path, traj):
        before = json.loads(traj.read_text())["points"]
        assert sum(p["meta"]["schema_version"] == 1 for p in before) == 9
        append(tmp_path, traj, make_results())
        after = json.loads(traj.read_text())["points"]
        assert len(after) == len(before) + 1
        assert after[:-1] == before

    def test_point_keeps_every_field(self, tmp_path, traj):
        res = make_results()
        point = append(tmp_path, traj, res)
        meta = point["meta"]
        assert meta["schema_version"] == 2
        assert meta["note"] == "test"
        for key, value in res["provenance"].items():
            assert meta[key] == value
        assert set(point["workloads"]) == set(res["workloads"])
        for name, w in point["workloads"].items():
            src = res["workloads"][name]
            assert set(w["end_to_end"]) == {
                m["name"] for m in SPEC["end_to_end"]}
            for metric, side in w["end_to_end"].items():
                assert side == {k: src["end_to_end"][metric][k] for k in
                                ("median", "q1", "q3", "n", "samples")}
            assert w["exact"] == trajectory.compare.exact_metrics(SPEC, src)
            assert w["exact"]["gpu.fastsim.calls"] == 2
            assert w["host_speed"] == 0.5
            assert set(w["stages"]) == set(trajectory.STAGES) | {"other"}

    def test_stages_sum_to_self_s_and_unnamed_layers_are_other(
            self, tmp_path, traj):
        stages = append(tmp_path, traj, make_results())[
            "workloads"]["serve_steady"]["stages"]
        assert sum(stages.values()) == sum(SELF_S.values())
        assert stages["other"] == sum(SELF_S[k] for k in (
            "run", "serve.engine", "gpu.fastsim.trace", "fleet.plan",
            "fleet.shared_cache", "some.new.layer"))
        assert stages["search"] == SELF_S["core.dse"]
        assert stages["plan"] == sum(SELF_S[k] for k in (
            "serve.dispatch.plan", "serve.dispatch.build", "core.cost",
            "gpu.timing.evaluate", "kernels.special.configure",
            "kernels.general.predict"))
        assert stages["execute"] == sum(SELF_S[k] for k in (
            "serve.dispatch.execute", "conv.reference", "fleet.replica"))
        assert stages["route_admit"] == SELF_S["fleet.admission"]
        assert stages["batch"] == SELF_S["serve.batcher"]
        assert stages["reassemble"] == SELF_S["fleet.serve"]
        assert stages["telemetry_merge"] == (
            SELF_S["fleet.merge"] + SELF_S["serve.stats"])

    def test_refuses_an_incorrect_file(self, tmp_path, traj, capsys):
        before = traj.read_text()
        res = make_results()
        res["workloads"]["dse_sweep"]["correct"] = False
        argv = ["append", write(tmp_path, res), "--note", "bad"]
        assert trajectory.main(argv, trajectory=traj) == 1
        assert "not correct" in capsys.readouterr().err
        assert traj.read_text() == before


def _count_changed(res):
    set_exact(res, "serve_steady", "gpu.fastsim.calls", 3)


def _model_moved(res):
    set_exact(res, "dse_sweep", "model.rps", 12345.678901 * (1 + 1e-5))


def _throughput_fell(res):
    side = res["workloads"]["serve_steady"]["end_to_end"]["throughput_per_s"]
    side.update(summary([v * 0.75 for v in side["samples"]]))


def _not_correct(res):
    res["workloads"]["serve_steady"]["correct"] = False


class TestCheck:
    def test_passes_on_the_file_the_point_came_from(
            self, tmp_path, traj, capsys):
        res = make_results()
        append(tmp_path, traj, res)
        assert check(tmp_path, traj, res) == 0
        out = capsys.readouterr().out
        assert "throughput_per_s" in out
        assert "check: passed" in out

    @pytest.mark.parametrize("mutate", [
        _count_changed, _model_moved, _throughput_fell, _not_correct])
    def test_fails(self, tmp_path, traj, mutate):
        res = make_results()
        append(tmp_path, traj, res)
        mutate(res)
        assert check(tmp_path, traj, res) == 1

    def test_tolerates_float_drift_below_1e_6(self, tmp_path, traj):
        res = make_results()
        append(tmp_path, traj, res)
        set_exact(res, "dse_sweep", "model.rps", 12345.678901 * (1 + 1e-7))
        assert check(tmp_path, traj, res) == 0

    def test_reports_setup_and_memory_without_gating(
            self, tmp_path, traj, capsys):
        res = make_results()
        append(tmp_path, traj, res)
        for metric in ("setup_s", "peak_rss_mb"):
            side = res["workloads"]["dse_sweep"]["end_to_end"][metric]
            side.update(summary([v * 3 for v in side["samples"]]))
        assert check(tmp_path, traj, res) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("dse_sweep") and "regressed" in line]
        assert len(rows) == 2

    @pytest.mark.parametrize("key, value", [("seed", SEED + 1),
                                            ("scale", "full")])
    def test_no_point_of_the_same_seed_and_scale_exits_2(
            self, tmp_path, traj, capsys, key, value):
        res = make_results()
        append(tmp_path, traj, res)
        res["provenance"][key] = value
        assert check(tmp_path, traj, res) == 2
        assert "no v2 point" in capsys.readouterr().err
