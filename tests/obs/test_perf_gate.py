"""The perf regression gate and the canonical suite behind it."""

import copy

import pytest

from repro.errors import ObservabilityError
from repro.obs.perf.gate import (
    compare_points,
    format_comparison,
    parse_budgets,
    select_baseline,
)


def _point(scale="ci", source="perf_suite", calibration_s=0.05,
           workloads=None):
    return {
        "meta": {"schema_version": 1, "source": source, "scale": scale,
                 "version": "1.6.0", "git_sha": "abc1234",
                 "calibration_s": calibration_s},
        "workloads": workloads if workloads is not None else {
            "simulator": {"wall_s": 1.0, "blocks": 8, "flops": 147456.0},
            "serve_engine": {"wall_s": 2.0, "throughput_rps": 50_000.0},
        },
    }


class TestSelectBaseline:
    def test_latest_matching_scale_preferring_suite(self):
        doc = {"points": [
            _point(scale="ci", source="fleet_proof"),
            _point(scale="ci", source="perf_suite"),
            _point(scale="full", source="perf_suite"),
        ]}
        chosen = select_baseline(doc, scale="ci")
        assert chosen is doc["points"][1]
        assert select_baseline(doc, scale="full") is doc["points"][2]

    def test_falls_back_to_any_source(self):
        doc = {"points": [_point(scale="full", source="fleet_proof")]}
        assert select_baseline(doc, scale="full") is doc["points"][0]
        assert select_baseline(doc, scale="ci") is None


class TestCompare:
    def test_identical_points_pass(self):
        result = compare_points(_point(), _point())
        assert result.passed
        assert result.calibration_ratio == pytest.approx(1.0)
        assert all(not row.violated for row in result.rows)

    def test_wall_slowdown_fails_naming_workload_and_budget(self):
        current = _point()
        current["workloads"]["simulator"]["wall_s"] = 2.0   # 2x, budget 1.25x
        result = compare_points(current, _point(), tolerance=0.25)
        assert not result.passed
        assert len(result.violations) == 1
        violation = result.violations[0]
        assert violation.workload == "simulator"
        assert violation.metric == "wall_s"
        assert "budget" in violation.message
        text = format_comparison(result)
        assert "FAIL" in text and "simulator" in text

    def test_wall_speedup_passes(self):
        current = _point()
        current["workloads"]["simulator"]["wall_s"] = 0.01
        assert compare_points(current, _point()).passed

    def test_wall_within_tolerance_passes(self):
        current = _point()
        current["workloads"]["simulator"]["wall_s"] = 1.2
        assert compare_points(current, _point(), tolerance=0.25).passed
        assert not compare_points(current, _point(), tolerance=0.1).passed

    def test_calibration_ratio_scales_wall_budget(self):
        # The current host is 2x slower (calibration 0.1 vs 0.05): a 2x
        # wall-clock is expected, not a regression.
        slow_host = _point(calibration_s=0.1)
        slow_host["workloads"]["simulator"]["wall_s"] = 2.0
        result = compare_points(slow_host, _point(calibration_s=0.05))
        assert result.calibration_ratio == pytest.approx(2.0)
        assert result.passed
        # Same 2x wall-clock with identical calibration: a regression.
        same_host = copy.deepcopy(slow_host)
        same_host["meta"]["calibration_s"] = 0.05
        assert not compare_points(same_host, _point(calibration_s=0.05)).passed

    def test_modeled_drift_fails_both_directions(self):
        for drifted in (147457.0, 147455.0):
            current = _point()
            current["workloads"]["simulator"]["flops"] = drifted
            result = compare_points(current, _point())
            assert not result.passed
            assert result.violations[0].metric == "flops"
        # Within the drift tolerance: fine.
        current = _point()
        current["workloads"]["simulator"]["flops"] = 147456.0 * (1 + 1e-9)
        assert compare_points(current, _point()).passed

    def test_explicit_budget_overrides(self):
        current = _point()
        current["workloads"]["simulator"]["wall_s"] = 10.0
        budgets = parse_budgets(["simulator.wall_s=20"])
        assert compare_points(current, _point(), budgets=budgets).passed
        budgets = parse_budgets(["simulator.wall_s=5"])
        assert not compare_points(current, _point(), budgets=budgets).passed

    def test_budget_on_unknown_metric_raises(self):
        with pytest.raises(ObservabilityError):
            compare_points(_point(), _point(),
                           budgets=parse_budgets(["nope.wall_s=1"]))

    def test_new_workload_is_untracked_not_violating(self):
        current = _point()
        current["workloads"]["brand_new"] = {"wall_s": 99.0}
        result = compare_points(current, _point())
        assert result.passed

    @pytest.mark.parametrize("bad", ["simulator=1", "wall_s=1",
                                     "simulator.wall_s", "a.b=x"])
    def test_parse_budgets_rejects_malformed(self, bad):
        with pytest.raises(ObservabilityError):
            parse_budgets([bad])

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ObservabilityError):
            compare_points(_point(), _point(), tolerance=-0.1)


class TestHandicapInjector:
    """The deliberate-slowdown hook the acceptance criterion leans on.

    That the handicap stretches wall time is a host-dependent claim; it
    lives in ``benchmarks/bench_handicap.py``, outside tier-1."""

    def test_env_handicap_applies(self, monkeypatch):
        from repro.gpu.device import DeviceExecutor, HANDICAP_ENV

        monkeypatch.setenv(HANDICAP_ENV, "2.5")
        from repro.gpu.arch import KEPLER_K40M

        assert DeviceExecutor(KEPLER_K40M).handicap == 2.5
        monkeypatch.setenv(HANDICAP_ENV, "0.5")   # clamped: never speeds up
        assert DeviceExecutor(KEPLER_K40M).handicap == 1.0
        monkeypatch.delenv(HANDICAP_ENV)
        assert DeviceExecutor(KEPLER_K40M).handicap == 1.0

    def test_env_handicap_rejects_garbage(self, monkeypatch):
        from repro.errors import TraceError
        from repro.gpu.arch import KEPLER_K40M
        from repro.gpu.device import DeviceExecutor, HANDICAP_ENV

        monkeypatch.setenv(HANDICAP_ENV, "fast")
        with pytest.raises(TraceError):
            DeviceExecutor(KEPLER_K40M)

    def test_handicap_leaves_simulator_modeled_metrics_unchanged(
            self, monkeypatch):
        from repro.gpu.device import HANDICAP_ENV
        from repro.obs.perf.suite import run_workload

        monkeypatch.delenv(HANDICAP_ENV, raising=False)
        base = run_workload("simulator", scale="smoke")
        monkeypatch.setenv(HANDICAP_ENV, "4")
        slowed = run_workload("simulator", scale="smoke")
        # Modeled metrics are untouched; only the host clock stretches.
        assert slowed["modeled_total_s"] == base["modeled_total_s"]
        assert slowed["flops"] == base["flops"]


class TestSuite:
    def test_smoke_suite_records_a_valid_gateable_point(self):
        from repro.obs.perf.suite import run_suite

        point = run_suite(scale="smoke",
                          workloads=("simulator", "serve_engine"))
        assert point["meta"]["source"] == "perf_suite"
        assert point["meta"]["calibration_s"] > 0
        assert set(point["workloads"]) == {"simulator", "serve_engine"}
        # A point gates cleanly against itself.
        assert compare_points(point, point).passed

    def test_suite_is_deterministic_on_modeled_metrics(self):
        from repro.obs.perf.suite import run_suite
        from repro.obs.perf.trajectory import is_wall_metric

        a = run_suite(scale="smoke", workloads=("simulator",))
        b = run_suite(scale="smoke", workloads=("simulator",))
        for metric, value in a["workloads"]["simulator"].items():
            if not is_wall_metric(metric):
                assert b["workloads"]["simulator"][metric] == value

    def test_unknown_scale_and_workload_raise(self):
        from repro.obs.perf.suite import run_suite, run_workload

        with pytest.raises(ObservabilityError):
            run_suite(scale="huge")
        with pytest.raises(ObservabilityError):
            run_workload("nope", scale="smoke")
