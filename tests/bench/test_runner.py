"""Tests for the experiment runner and reporting."""

import pytest

from repro.bench.report import format_experiment, format_summary_line, summarize_ratio
from repro.bench.runner import ComparisonRow, Experiment, compare_on_sweep
from repro.conv.workloads import WorkloadPoint, special_case_sweep
from repro.conv.tensors import ConvProblem
from repro.core.special import SpecialCaseKernel
from repro.errors import ReproError
from repro.gpu.arch import KEPLER_K40M


def make_experiment():
    exp = Experiment(exp_id="x", title="t", unit="u", columns=["a", "b"])
    exp.add("p1", {"a": 2.0, "b": 1.0})
    exp.add("p2", {"a": 6.0, "b": 2.0})
    return exp


class TestExperiment:
    def test_series(self):
        exp = make_experiment()
        assert exp.series("a") == [2.0, 6.0]

    def test_ratios_and_mean(self):
        exp = make_experiment()
        assert exp.ratios("a", "b") == [2.0, 3.0]
        assert exp.mean_ratio("a", "b") == pytest.approx(2.5)

    def test_missing_column_rejected(self):
        exp = Experiment(exp_id="x", title="t", unit="u", columns=["a", "b"])
        with pytest.raises(ReproError):
            exp.add("p", {"a": 1.0})

    def test_zero_denominator_rejected(self):
        row = ComparisonRow(label="p", values={"a": 1.0, "b": 0.0})
        with pytest.raises(ReproError):
            row.ratio("a", "b")

    def test_zero_denominator_error_names_the_columns(self):
        """The message must identify which ratio failed, not just the
        row — a sweep row holds one value per method."""
        row = ComparisonRow(label="N=512",
                            values={"ours": 1.0, "cuDNN": 0.0})
        with pytest.raises(ReproError) as excinfo:
            row.ratio("ours", "cuDNN")
        message = str(excinfo.value)
        assert "ours" in message
        assert "cuDNN" in message
        assert "N=512" in message


class TestCompareOnSweep:
    def test_uses_gflops_by_default(self):
        class Fake:
            def gflops(self, problem):
                return float(problem.filters)

        pts = [
            WorkloadPoint("w1", ConvProblem.square(16, 3, filters=2)),
            WorkloadPoint("w2", ConvProblem.square(16, 3, filters=4)),
        ]
        rows = compare_on_sweep({"f": Fake()}, pts)
        assert [r.values["f"] for r in rows] == [2.0, 4.0]

    def test_custom_metric(self):
        pts = [WorkloadPoint("w", ConvProblem.square(16, 3))]
        rows = compare_on_sweep({"k": object()}, pts,
                                metric=lambda kern, p: 42.0)
        assert rows[0].values["k"] == 42.0

    def test_custom_lambda_metric_still_works(self):
        kernels = {"ours": SpecialCaseKernel(KEPLER_K40M)}
        points = special_case_sweep(3)[:3]
        rows = compare_on_sweep(
            kernels, points,
            metric=lambda kernel, problem: float(problem.width))
        assert [r.label for r in rows] == [p.label for p in points]
        assert [r.values["ours"] for r in rows] == [
            float(p.problem.width) for p in points]


class TestReport:
    def test_format_contains_all_rows_and_columns(self):
        text = format_experiment(make_experiment())
        assert "p1" in text and "p2" in text
        assert "a" in text and "b" in text
        assert "[u]" in text

    def test_format_respects_precision(self):
        text = format_experiment(make_experiment(), precision=3)
        assert "2.000" in text

    def test_summarize_ratio(self):
        s = summarize_ratio(make_experiment(), "a", "b")
        assert s["mean"] == pytest.approx(2.5)
        assert s["min"] == 2.0 and s["max"] == 3.0 and s["n"] == 2

    def test_summary_line_includes_paper_value(self):
        line = format_summary_line(make_experiment(), "a", "b", paper_value="9x")
        assert "9x" in line and "2.50x" in line


class TestSerialization:
    def test_csv_roundtrippable_structure(self):
        exp = make_experiment()
        text = exp.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "workload,a,b"
        assert lines[1].startswith("p1,")
        assert len(lines) == 3

    def test_json_roundtrip(self):
        from repro.bench.runner import Experiment

        exp = make_experiment()
        exp.paper_expectation = "2x"
        exp.notes = "n/a"
        back = Experiment.from_json(exp.to_json())
        assert back.exp_id == exp.exp_id
        assert back.columns == exp.columns
        assert back.rows[1].values == exp.rows[1].values
        assert back.paper_expectation == "2x"

    def test_csv_uses_unix_line_terminators(self):
        """csv.writer defaults to \\r\\n on every platform; the artifact
        format pins \\n so committed CSVs diff cleanly across OSes."""
        text = make_experiment().to_csv()
        assert "\r" not in text
        assert text.endswith("\n")
        assert text.count("\n") == 3

    def test_json_roundtrip_preserves_all_metadata(self):
        """Regression: a serialized experiment must survive
        to_json -> from_json with every field intact, including the
        free-text notes and paper_expectation metadata the
        regression-pinning workflow relies on."""
        from repro.bench.runner import Experiment

        exp = make_experiment()
        exp.paper_expectation = "matched pattern doubles SM bandwidth"
        exp.notes = "K=3 explored: W32 H4 FTB64 WT16 FT4 CSH2"
        back = Experiment.from_json(exp.to_json())
        assert back == exp
        assert back.notes == exp.notes
        assert back.paper_expectation == exp.paper_expectation

    def test_json_roundtrip_tolerates_missing_optional_metadata(self):
        import json as jsonlib

        from repro.bench.runner import Experiment

        data = jsonlib.loads(make_experiment().to_json())
        del data["notes"]
        del data["paper_expectation"]
        back = Experiment.from_json(jsonlib.dumps(data))
        assert back.notes == ""
        assert back.paper_expectation == ""

    def test_markdown_rendering(self):
        from repro.bench.report import format_experiment_markdown

        exp = make_experiment()
        md = format_experiment_markdown(exp, precision=2)
        assert "| workload | a | b |" in md
        assert "| p1 | 2.00 | 1.00 |" in md
        assert md.startswith("### x")
