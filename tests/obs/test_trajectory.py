"""The perf-trajectory database: schema, append-only writes, ingestion."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.perf.trajectory import (
    SCHEMA,
    SCHEMA_VERSION,
    append_point,
    calibrate,
    environment_fingerprint,
    is_wall_metric,
    load_trajectory,
    make_meta,
    new_trajectory,
    normalize_bench_serve,
    validate_point,
)


def _point(**workload_metrics):
    return {
        "meta": make_meta(source="perf_suite", scale="ci",
                          calibration_s=0.05),
        "workloads": workload_metrics or {"w": {"wall_s": 1.0, "n": 3}},
    }


class TestSchema:
    def test_fingerprint_fields(self):
        fp = environment_fingerprint()
        for field in ("version", "git_sha", "python", "platform",
                      "numpy", "cpu_count"):
            assert field in fp

    def test_make_meta_stamps(self):
        meta = make_meta(source="perf_suite", scale="full",
                         calibration_s=0.1234567, note="hello")
        assert meta["schema_version"] == SCHEMA_VERSION
        assert meta["scale"] == "full"
        assert meta["calibration_s"] == pytest.approx(0.123457)
        assert meta["note"] == "hello"
        assert "backfilled" not in meta

    def test_validate_accepts_well_formed(self):
        assert validate_point(_point())["workloads"]["w"]["n"] == 3

    @pytest.mark.parametrize("mutate", [
        lambda p: p.pop("meta"),
        lambda p: p["meta"].pop("source"),
        lambda p: p["meta"].pop("scale"),
        lambda p: p.pop("workloads"),
        lambda p: p.update(workloads={}),
        lambda p: p.update(workloads={"w": {"x": "not-a-number"}}),
        lambda p: p.update(workloads={"w": {"x": True}}),
        lambda p: p["meta"].update(schema_version=SCHEMA_VERSION + 1),
    ])
    def test_validate_rejects_malformed(self, mutate):
        point = _point()
        mutate(point)
        with pytest.raises(ObservabilityError):
            validate_point(point)

    def test_wall_metric_convention(self):
        assert is_wall_metric("wall_s")
        assert is_wall_metric("table1_wall_s")
        assert not is_wall_metric("modeled_rps")
        assert not is_wall_metric("walls")


class TestAppendOnly:
    def test_append_creates_and_grows(self, tmp_path):
        path = str(tmp_path / "traj.json")
        doc = append_point(path, _point())
        assert doc["schema"] == SCHEMA
        assert len(doc["points"]) == 1
        doc = append_point(path, _point())
        assert len(doc["points"]) == 2
        # Existing points are byte-preserved, not rewritten.
        loaded = load_trajectory(path)
        assert loaded["points"][0] == doc["points"][0]

    def test_append_rejects_invalid_point(self, tmp_path):
        path = str(tmp_path / "traj.json")
        with pytest.raises(ObservabilityError):
            append_point(path, {"workloads": {}})
        assert not (tmp_path / "traj.json").exists()

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ObservabilityError):
            load_trajectory(str(path))
        path.write_text("not json")
        with pytest.raises(ObservabilityError):
            load_trajectory(str(path))

    def test_load_rejects_newer_schema(self, tmp_path):
        doc = new_trajectory()
        doc["schema_version"] = SCHEMA_VERSION + 1
        path = tmp_path / "traj.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ObservabilityError):
            load_trajectory(str(path))


class TestCalibration:
    def test_fixed_work_is_positive_and_repeatable(self):
        a = calibrate(reps=2)
        b = calibrate(reps=2)
        assert a > 0 and b > 0
        # Same machine, same work: within an order of magnitude.
        assert 0.1 < a / b < 10.0

    def test_collector_paused_only_while_timing(self):
        import gc

        assert gc.isenabled()
        calibrate(reps=1)
        assert gc.isenabled()
        gc.disable()
        try:
            calibrate(reps=1)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestNormalizeBenchServe:
    def test_checked_in_document_normalizes(self, repo_root):
        point = normalize_bench_serve(str(repo_root / "BENCH_serve.json"))
        assert point["meta"]["source"] == "fleet_proof"
        assert point["meta"]["scale"] == "full"
        assert point["meta"]["version"] == "1.5.0"
        assert point["meta"]["git_sha"] == "f787b1c"
        assert point["meta"]["backfilled"] is True
        workloads = point["workloads"]
        assert workloads["table1_dse"]["rows"] == 3
        assert workloads["fleet_serve"]["requests"] == 100_000
        assert workloads["fleet_serve"]["modeled_rps"] > 0
        assert workloads["serve_engine"]["throughput_rps"] > 0
        assert 0 < workloads["fleet_overload"]["shed_rate"] < 1

    def test_unstamped_document_backfills(self, tmp_path):
        doc = {"version": "0.9.0",
               "legs": {"table1": {"wall_s": 5.0, "rows": 3}}}
        path = tmp_path / "BENCH_serve.json"
        path.write_text(json.dumps(doc))
        point = normalize_bench_serve(str(path))
        assert point["meta"]["backfilled"] is True
        assert point["meta"]["version"] == "0.9.0"
        assert point["workloads"] == {
            "table1_dse": {"wall_s": 5.0, "rows": 3}}

    def test_document_without_legs_raises(self, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        path.write_text(json.dumps({"version": "1.0"}))
        with pytest.raises(ObservabilityError):
            normalize_bench_serve(str(path))
        with pytest.raises(ObservabilityError):
            normalize_bench_serve(str(tmp_path / "missing.json"))
