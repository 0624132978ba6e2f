"""Tests for the command-line interface."""

import pytest

from repro.cli import SLOW_EXPERIMENTS, build_parser, main

_FERMI_REGISTERS = ("LaunchConfigError: %d registers/thread exceeds limit "
                    "63 on Fermi M2090")

#: The experiments whose kernels do not fit the Fermi preset, in
#: ``ALL_EXPERIMENTS`` order, with the error each one is skipped for.
FERMI_CANNOT_RUN = {
    "fig8a": _FERMI_REGISTERS % 113,
    "fig8b": _FERMI_REGISTERS % 109,
    "fig8c": _FERMI_REGISTERS % 119,
    "table1": _FERMI_REGISTERS % 113,
    "ablation-unmatched": _FERMI_REGISTERS % 113,
    "ablation-writeback": _FERMI_REGISTERS % 113,
    "ablation-prefetch": _FERMI_REGISTERS % 113,
    "ext-all-methods": _FERMI_REGISTERS % 113,
    "ablation-adaptive-config": _FERMI_REGISTERS % 113,
    "ext-training": (
        "ConfigurationError: no valid general-case configuration for "
        "conv(h=16, w=16, c=512, f=64, k=3, pad=valid, stride=1, "
        "dilation=1, groups=1, layout=nchw)"),
    "ext-fft-batch": _FERMI_REGISTERS % 109,
}


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "fig7b" in out and "table1" in out

    def test_slow_marker(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "table1  (slow)" in out


class TestRun:
    def test_run_fig1(self, capsys):
        assert main(["run", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "matched" in out

    def test_run_on_other_arch(self, capsys):
        assert main(["run", "fig1", "--arch", "fermi"]) == 0
        assert "Fermi" in capsys.readouterr().out

    def test_run_precision(self, capsys):
        assert main(["run", "fig1", "--precision", "3"]) == 0
        assert "2.000" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_ablation(self, capsys):
        assert main(["run", "ablation-thread-layout"]) == 0
        assert "WT" in capsys.readouterr().out

    @pytest.mark.parametrize("exp_id", list(FERMI_CANNOT_RUN))
    def test_experiment_the_preset_cannot_run_is_skipped(self, capsys,
                                                         exp_id):
        assert main(["run", exp_id, "--arch", "fermi"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "skipped %s on fermi: %s" % (exp_id, FERMI_CANNOT_RUN[exp_id])]


class TestSummary:
    def test_summary_lines(self, capsys):
        assert main(["summary"]) == 0
        out = capsys.readouterr().out
        assert "MAGMA / cuBLAS" in out
        assert "[paper: 2.4x]" in out
        assert out.count("ours / cuDNN") == 6

    def test_summary_json(self, capsys):
        import json

        assert main(["summary", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 7
        assert records[0]["exp_id"] == "fig2"
        assert records[0]["paper"] == "2.4x"
        for record in records:
            assert set(record) >= {"exp_id", "numerator", "denominator",
                                   "mean_ratio", "min_ratio", "max_ratio", "n"}
            assert record["min_ratio"] <= record["mean_ratio"] <= record["max_ratio"]


class TestServe:
    def test_serve_synthetic_text(self, capsys):
        assert main(["serve", "--synthetic", "30", "--verify",
                     "--compare-unbatched"]) == 0
        out = capsys.readouterr().out
        assert "served 30 requests" in out
        assert "plan cache" in out
        assert "all 30 responses match the reference" in out
        assert "batching speedup" in out

    def test_serve_synthetic_json(self, capsys):
        import json

        assert main(["serve", "--synthetic", "25", "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["served"] == 25
        assert snap["plan_cache"]["hit_rate"] > 0.5
        assert snap["throughput_rps"] > 0

    def test_serve_trace_file_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "trace.json")
        assert main(["serve", "--synthetic", "10",
                     "--save-trace", path]) == 0
        capsys.readouterr()
        assert main(["serve", "--requests", path, "--verify"]) == 0
        assert "served 10 requests" in capsys.readouterr().out

    def test_serve_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_rejects_bad_synthetic_count(self, capsys):
        assert main(["serve", "--synthetic", "0"]) == 2
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["--rate", "-5"], "--rate"),
        (["--rate", "nan"], "--rate"),
        (["--backends", " , "], "--backends"),
        (["--compare-unbatched", "--replicas", "2"], "--compare-unbatched"),
        (["--compare-unbatched", "--chaos", "crash"], "--compare-unbatched"),
    ], ids=["negative-rate", "nan-rate", "empty-backends",
            "unbatched-fleet", "unbatched-chaos"])
    def test_serve_rejects_flag_before_work(self, capsys, monkeypatch,
                                            argv, flag):
        import repro.serve

        def no_work(*args, **kwargs):
            raise AssertionError("serving work ran before the flag check")

        monkeypatch.setattr(repro.serve, "synthetic_trace", no_work)
        assert main(["serve", "--synthetic", "8"] + argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and flag in err[0]

    def test_serve_executor_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--synthetic", "8", "--executor", "kernel"])


class TestServeVerifyGeneralized:
    """``--verify`` checks each response against the reference of its
    own problem: strided, dilated, grouped and NHWC requests included."""

    @pytest.fixture
    def generalized(self, tmp_path):
        from repro.serve import save_trace, synthetic_trace

        path = str(tmp_path / "gen.json")
        save_trace(path, synthetic_trace(40, seed=3,
                                         shape_family="generalized"))
        return path

    @pytest.mark.parametrize("extra", [[], ["--replicas", "2"]],
                             ids=["engine", "fleet"])
    def test_verify_accepts_correct_responses(self, capsys, generalized,
                                              extra):
        assert main(["serve", "--requests", generalized, "--verify"]
                    + extra) == 0
        captured = capsys.readouterr()
        assert "match the reference" in captured.out
        assert "does not match" not in captured.err


class TestServeFleet:
    def test_fleet_text_output(self, capsys):
        assert main(["serve", "--synthetic", "60", "--replicas", "4"]) == 0
        out = capsys.readouterr().out
        assert "fleet served 60 requests across 4 replicas" in out
        assert "router affinity" in out
        assert "shared plan cache" in out
        assert "replica 0" in out

    def test_fleet_compare_serial_bit_identical(self, capsys):
        assert main(["serve", "--synthetic", "50", "--replicas", "3",
                     "--compare-serial", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "0 response mismatches vs fleet" in out
        assert "all 50 served responses match the reference" in out

    def test_fleet_json_snapshot(self, capsys):
        import json

        assert main(["serve", "--synthetic", "40", "--replicas", "2",
                     "--json", "--compare-serial"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["served"] == 40
        assert snap["serial_mismatches"] == 0
        assert snap["router"]["affinity_hit_rate"] == 1.0
        assert snap["admission"]["shed"] == 0
        assert len(snap["replicas"]) == 2

    def test_fleet_deadline_and_priority_flags(self, capsys):
        assert main(["serve", "--synthetic", "40", "--replicas", "2",
                     "--deadline-budget", "5e-3", "--priority-mix",
                     "critical=0.2,standard=0.6,batch=0.2"]) == 0
        assert "deadline misses" in capsys.readouterr().out

    def test_replicas_range_validated(self, capsys):
        assert main(["serve", "--synthetic", "5", "--replicas", "0"]) == 2
        err = capsys.readouterr().err
        assert "bad serving configuration" in err
        assert "valid range: 1..64" in err

    def test_queue_depth_range_validated(self, capsys):
        assert main(["serve", "--synthetic", "5", "--replicas", "2",
                     "--queue-depth", "0"]) == 2
        assert "valid range: 1..4096" in capsys.readouterr().err

    def test_queue_depth_validated_without_fleet(self, capsys):
        # The bound is checked even on the single-engine path, so a
        # typo'd flag never passes silently.
        assert main(["serve", "--synthetic", "5",
                     "--queue-depth", "5000"]) == 2
        assert "valid range: 1..4096" in capsys.readouterr().err

    def test_bad_priority_mix_reports_and_exits_2(self, capsys):
        assert main(["serve", "--synthetic", "5",
                     "--priority-mix", "critical=x"]) == 2
        assert "priority-mix" in capsys.readouterr().err

    def test_unknown_priority_class_lists_valid_classes(self, capsys):
        assert main(["serve", "--synthetic", "5",
                     "--priority-mix", "urgent=1.0"]) == 2
        err = capsys.readouterr().err
        assert "critical" in err and "batch" in err

    def test_fleet_emit_trace_has_replica_tracks(self, capsys, tmp_path):
        import json

        path = tmp_path / "fleet.json"
        assert main(["serve", "--synthetic", "40", "--replicas", "2",
                     "--emit-trace", str(path)]) == 0
        doc = json.loads(path.read_text())
        cats = {event.get("cat") for event in doc["traceEvents"]
                if event.get("ph") == "X"}
        assert any(c and c.startswith("replica") for c in cats)


class TestServeEmitTrace:
    def test_emit_trace_writes_perfetto_loadable_file(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        path = str(tmp_path / "serve-trace.json")
        assert main(["serve", "--synthetic", "20",
                     "--emit-trace", path]) == 0
        with open(path) as fh:
            doc = json.load(fh)
        validate_chrome_trace(doc)
        cats = {e.get("cat") for e in doc["traceEvents"]
                if e.get("ph") == "X"}
        assert {"batch", "dispatch", "plan-cache", "kernel"} <= cats

    def test_run_emit_trace(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        path = str(tmp_path / "run-trace.json")
        assert main(["run", "fig1", "--emit-trace", path]) == 0
        with open(path) as fh:
            doc = json.load(fh)
        validate_chrome_trace(doc)
        assert any(e.get("cat") == "experiment" for e in doc["traceEvents"])


class TestObs:
    def test_obs_json_dump(self, capsys):
        import json

        assert main(["obs", "--synthetic", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        names = {m["name"] for m in doc["metrics"]}
        assert "gpu_gmem_transactions_total" in names
        assert "gpu_smem_bank_conflict_cycles_total" in names

    def test_obs_prometheus_exposes_acceptance_counters(self, capsys):
        from repro.obs import parse_prometheus

        assert main(["obs", "--format", "prometheus",
                     "--synthetic", "0"]) == 0
        parsed = parse_prometheus(capsys.readouterr().out)
        names = {name for name, _ in parsed}
        assert "gpu_gmem_transactions_total" in names
        assert "gpu_smem_bank_conflict_cycles_total" in names
        assert "gpu_modeled_seconds_total" in names

    def test_obs_counters_match_cost_model_on_pinned_workload(self, capsys):
        """Acceptance: the exposed counters equal the direct ledger values."""
        from repro.conv.tensors import ConvProblem
        from repro.core.special import SpecialCaseKernel
        from repro.gpu.arch import KEPLER_K40M
        from repro.obs import parse_prometheus

        assert main(["obs", "--format", "prometheus",
                     "--synthetic", "0"]) == 0
        parsed = parse_prometheus(capsys.readouterr().out)

        cost = SpecialCaseKernel(arch=KEPLER_K40M).cost(
            ConvProblem.square(512, 3, channels=1, filters=8))
        key = ("gpu_gmem_transactions_total",
               (("kernel", cost.name), ("op", "read")))
        assert parsed[key] == pytest.approx(cost.ledger.gmem_read_transactions)
        conflict_key = ("gpu_smem_bank_conflict_cycles_total",
                        (("kernel", cost.name),))
        assert parsed[conflict_key] == pytest.approx(
            max(0.0, cost.ledger.smem_cycles - cost.ledger.smem_min_cycles))

    def test_obs_gpu_series_are_the_pinned_ledgers_with_serving_leg(
            self, capsys):
        """With the default serving leg on, every ``gpu_*`` series is one
        of the two pinned kernels' ledger or timing values, published
        once per kernel."""
        from repro.conv.tensors import ConvProblem
        from repro.core.general import GeneralCaseKernel
        from repro.core.special import SpecialCaseKernel
        from repro.gpu.arch import KEPLER_K40M
        from repro.gpu.timing import TimingModel
        from repro.obs import parse_prometheus

        assert main(["obs", "--format", "prometheus"]) == 0
        parsed = parse_prometheus(capsys.readouterr().out)
        gpu = {key: value for key, value in parsed.items()
               if key[0].startswith("gpu_")}

        expected = {}
        for kernel, problem in (
                (SpecialCaseKernel(arch=KEPLER_K40M),
                 ConvProblem.square(512, 3, channels=1, filters=8)),
                (GeneralCaseKernel(arch=KEPLER_K40M),
                 ConvProblem.square(64, 3, channels=16, filters=32))):
            cost = kernel.cost(problem)
            led, k = cost.ledger, (("kernel", cost.name),)
            breakdown = TimingModel(KEPLER_K40M).evaluate(cost)
            for op, tx, moved in (
                    ("read", led.gmem_read_transactions,
                     led.gmem_read_bytes_moved),
                    ("write", led.gmem_write_transactions,
                     led.gmem_write_bytes_moved)):
                expected["gpu_gmem_transactions_total", k + (("op", op),)] = tx
                expected["gpu_gmem_bytes_moved_total", k + (("op", op),)] = \
                    moved
            expected["gpu_smem_cycles_total", k] = led.smem_cycles
            expected["gpu_smem_bank_conflict_cycles_total", k] = max(
                0.0, led.smem_cycles - led.smem_min_cycles)
            expected["gpu_cmem_cycles_total", k] = led.cmem_cycles
            expected["gpu_flops_total", k] = led.flops
            expected["gpu_kernel_costs_total", k] = 1.0
            for site, stats in led.sites.items():
                ks = k + (("site", site),)
                expected["gpu_site_executions_total", ks] = stats.executions
                if stats.transactions:
                    expected["gpu_site_transactions_total", ks] = \
                        stats.transactions
                if stats.cycles:
                    expected["gpu_site_cycles_total", ks] = stats.cycles
            for part in ("compute", "gmem", "l2", "smem", "cmem", "sync",
                         "launch", "total"):
                value = breakdown.total if part == "total" else getattr(
                    breakdown, "t_" + part)
                expected["gpu_modeled_seconds_total",
                         (("component", part),) + k] = value
            expected["gpu_timing_evaluations_total", k] = 1.0

        assert gpu == pytest.approx(expected)

    def test_obs_with_serving_leg_exposes_plan_cache(self, capsys):
        from repro.obs import parse_prometheus

        assert main(["obs", "--format", "prometheus",
                     "--synthetic", "25"]) == 0
        parsed = parse_prometheus(capsys.readouterr().out)
        names = {name for name, _ in parsed}
        assert "plan_cache_hits_total" in names
        assert "plan_cache_misses_total" in names
        assert "serve_requests_total" in names

    def test_obs_output_and_trace_files(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        out = str(tmp_path / "metrics.json")
        trace = str(tmp_path / "trace.json")
        assert main(["obs", "--synthetic", "10", "--output", out,
                     "--emit-trace", trace]) == 0
        with open(out) as fh:
            assert json.load(fh)["version"] == 1
        with open(trace) as fh:
            validate_chrome_trace(json.load(fh))


    def test_obs_rejects_negative_synthetic_count(self, capsys):
        assert main(["obs", "--synthetic", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--synthetic" in captured.err


class TestOutputPaths:
    """A file-writing flag whose directory is missing is a usage error,
    reported before the command does any work."""

    @pytest.mark.parametrize("argv", [
        ["run", "fig1", "--emit-trace"],
        ["serve", "--synthetic", "4", "--emit-trace"],
        ["serve", "--synthetic", "4", "--replicas", "2", "--emit-trace"],
        ["serve", "--synthetic", "4", "--save-trace"],
        ["obs", "--synthetic", "0", "--output"],
        ["obs", "--synthetic", "0", "--emit-trace"],
        ["chaos", "--report"],
    ], ids=["run-emit-trace", "serve-emit-trace", "fleet-emit-trace",
            "serve-save-trace", "obs-output", "obs-emit-trace",
            "chaos-report"])
    def test_missing_directory_exits_2_before_the_run(self, capsys,
                                                      tmp_path, argv):
        missing = tmp_path / "missing"
        path = str(missing / "out.json")
        assert main(argv + [path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("cannot write %s: directory %s does not "
                                "exist\n" % (path, missing))
        assert not missing.exists()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_arch_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig1", "--arch", "volta"])

    def test_help_lists_exactly_the_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        listed = out[out.index("{") + 1:out.index("}")].split(",")
        assert listed == ["list", "run", "summary", "serve", "chaos", "obs",
                          "backends", "claims", "audit"]

    def test_slow_experiments_exist(self):
        from repro.bench.figures import ALL_EXPERIMENTS

        for exp in SLOW_EXPERIMENTS:
            assert exp in ALL_EXPERIMENTS


class TestRunAll:
    def test_run_all_skip_slow(self, capsys, monkeypatch):
        """'run all' iterates the registry; trim it for test speed."""
        import repro.cli as cli
        from repro.bench.figures import ALL_EXPERIMENTS

        trimmed = {k: ALL_EXPERIMENTS[k]
                   for k in ("fig1", "ablation-thread-layout", "table1")}
        monkeypatch.setattr(cli, "ALL_EXPERIMENTS", trimmed)
        assert cli.main(["run", "all", "--skip-slow"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert "ablation-thread-layout" in out
        assert "table1" not in out  # skipped as slow

    def test_run_all_goes_on_past_skipped_experiments(self, capsys):
        from repro.bench.figures import ALL_EXPERIMENTS

        cannot = [e for e in FERMI_CANNOT_RUN if e not in SLOW_EXPERIMENTS]
        assert main(["run", "all", "--skip-slow", "--arch", "fermi"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "skipped %s on fermi: %s" % (exp_id, FERMI_CANNOT_RUN[exp_id])
            for exp_id in cannot]
        ran =[e for e in ALL_EXPERIMENTS
               if e not in cannot and e not in SLOW_EXPERIMENTS]
        assert len(ran) > len(cannot)
        for exp_id in ran:
            assert "%s — " % exp_id in captured.out, exp_id


class TestAudit:
    """The `repro audit` fastsim-vs-oracle cross-check command."""

    def test_audit_default_passes(self, capsys):
        assert main(["audit", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "0 mismatch(es)" in out
        assert "special" in out and "general" in out

    def test_audit_single_case_other_arch(self, capsys):
        assert main(["audit", "--case", "special", "--arch", "maxwell",
                     "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "general" not in out

    def test_audit_json_payload(self, capsys):
        import json as _json

        assert main(["audit", "--case", "general", "--trials", "1",
                     "--seed", "9", "--json"]) == 0
        doc = _json.loads(capsys.readouterr().out)
        assert doc["failures"] == 0
        assert doc["arch"] == "kepler"
        assert all(t["ok"] for t in doc["trials"])
        # Both bank-conflict policies audited.
        assert {t["policy"] for t in doc["trials"]} == {
            "word-merge", "paper"}

    def test_audit_mismatch_exits_nonzero(self, capsys, monkeypatch):
        from repro.gpu.fastsim import FastSpecialKernel

        real = FastSpecialKernel.trace_cost

        def skewed(self, problem):
            cost = real(self, problem)
            cost.ledger.flops += 1.0
            return cost

        monkeypatch.setattr(FastSpecialKernel, "trace_cost", skewed)
        assert main(["audit", "--case", "special", "--trials", "1"]) == 1
        captured = capsys.readouterr()
        assert "AUDIT FAIL" in captured.err
        assert "MISMATCH" in captured.out

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_audit_rejects_non_positive_trials(self, capsys, trials):
        assert main(["audit", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert "--trials" in captured.err
        assert captured.out == ""

    def test_audit_depthwise_case(self, capsys):
        assert main(["audit", "--case", "depthwise", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "depthwise" in out
        assert "0 mismatch(es)" in out

    def test_audit_all_covers_three_cases(self, capsys):
        import json as _json

        assert main(["audit", "--case", "all", "--trials", "1",
                     "--json"]) == 0
        doc = _json.loads(capsys.readouterr().out)
        assert doc["failures"] == 0
        assert {t["case"] for t in doc["trials"]} == {
            "special", "general", "depthwise"}


class TestBackendsMatrix:
    """The `repro backends --matrix` capability table."""

    def test_matrix_lists_every_backend_and_axis_column(self, capsys):
        assert main(["backends", "--matrix"]) == 0
        out = capsys.readouterr().out
        for name in ("special", "general", "depthwise", "im2col",
                     "implicit-gemm", "naive", "fft", "winograd"):
            assert name in out
        for column in ("stride", "dilation", "groups", "layouts"):
            assert column in out

    def test_matrix_json_matches_declared_axes(self, capsys):
        import json as _json

        from repro.kernels import default_registry

        assert main(["backends", "--matrix", "--json"]) == 0
        records = _json.loads(capsys.readouterr().out)
        by_name = {r["name"]: r for r in records}
        for backend in default_registry():
            rec = by_name[backend.name]
            assert rec["stride"] == backend.AXES["stride"]
            assert rec["groups"] == backend.AXES["groups"]
            assert tuple(rec["layouts"]) == tuple(backend.AXES["layouts"])


class TestChaosCLI:
    def _tiny_matrix(self, monkeypatch):
        """Trim the matrices to one small scenario for test speed."""
        import repro.chaos.matrix as matrix

        tiny = {"ci": [row for row in matrix.MATRICES["ci"]
                       if row["name"] == "crash-failover"]}
        monkeypatch.setattr(matrix, "MATRICES", tiny)

    def test_chaos_gate_passes_and_writes_report(self, capsys, tmp_path,
                                                 monkeypatch):
        import json

        self._tiny_matrix(monkeypatch)
        report_path = tmp_path / "chaos.json"
        assert main(["chaos", "--seed", "1234",
                     "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "chaos matrix 'ci' (seed 1234): PASS" in out
        assert "crash-failover" in out
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        assert report["seed"] == 1234
        assert "crash" in report["kinds_covered"]

    def test_chaos_json_output(self, capsys, monkeypatch):
        import json

        self._tiny_matrix(monkeypatch)
        assert main(["chaos", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["matrix"] == "ci"
        assert report["scenarios"][0]["name"] == "crash-failover"

    def test_chaos_failure_exits_1(self, capsys, monkeypatch):
        import repro.chaos.matrix as matrix

        broken = dict(matrix.MATRICES["ci"][0],
                      name="crash-out-of-fleet", chaos="crash:replica=9")
        monkeypatch.setattr(matrix, "MATRICES", {"ci": [broken]})
        assert main(["chaos"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_serve_with_chaos_spec(self, capsys):
        assert main(["serve", "--synthetic", "60", "--chaos",
                     "seed=1;crash:replica=1", "--replicas", "4",
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "chaos" in out
        assert "all 60 served responses match the reference" in out

    def test_serve_bad_chaos_spec_exits_2(self, capsys):
        assert main(["serve", "--synthetic", "10", "--chaos",
                     "explode"]) == 2
        assert "chaos" in capsys.readouterr().err
