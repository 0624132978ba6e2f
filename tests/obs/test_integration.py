"""End-to-end telemetry: the stack's series must match the models' own
return values, and a served trace must export a loadable Perfetto file."""

import numpy as np
import pytest

from repro.conv.tensors import ConvProblem
from repro.core.config import GeneralCaseConfig
from repro.core.dse import (
    best_config,
    enumerate_general_configs,
    enumerate_special_configs,
    explore_general,
    explore_special,
)
from repro.core.special import SpecialCaseKernel
from repro.gpu.arch import KEPLER_K40M
from repro.gpu.fastsim import FastGeneralKernel
from repro.gpu.timing import TimingModel
from repro.kernels import default_registry
from repro.obs import (
    Registry,
    Tracer,
    chrome_trace,
    get_registry,
    reset_registry,
    set_registry,
    set_tracer,
    validate_chrome_trace,
)
from repro.serve import ConvRequest, ServeEngine, synthetic_trace


@pytest.fixture
def scoped_globals():
    """Swap in fresh process-wide registry/tracer for the test's duration."""
    registry, tracer = Registry(), Tracer()
    old_registry = set_registry(registry)
    old_tracer = set_tracer(tracer)
    try:
        yield registry, tracer
    finally:
        set_registry(old_registry)
        set_tracer(old_tracer)


class TestCostModelCountersMatch:
    """The acceptance bar: registry counters == the model's direct returns."""

    PROBLEM = ConvProblem.square(512, 3, channels=1, filters=8)

    def test_counters_equal_ledger_values(self, scoped_globals):
        registry, _ = scoped_globals
        kernel = SpecialCaseKernel(arch=KEPLER_K40M)
        cost = kernel.cost(self.PROBLEM)
        model = TimingModel(KEPLER_K40M)     # publishes into the registry
        model.publish(cost, model.evaluate(cost))
        led, name = cost.ledger, cost.name

        gmem_tx = registry.get("gpu_gmem_transactions_total")
        assert gmem_tx.value(kernel=name, op="read") == pytest.approx(
            led.gmem_read_transactions)
        assert gmem_tx.value(kernel=name, op="write") == pytest.approx(
            led.gmem_write_transactions)
        assert registry.get("gpu_smem_cycles_total").value(
            kernel=name) == pytest.approx(led.smem_cycles)
        assert registry.get("gpu_smem_bank_conflict_cycles_total").value(
            kernel=name) == pytest.approx(
                max(0.0, led.smem_cycles - led.smem_min_cycles))
        assert registry.get("gpu_cmem_cycles_total").value(
            kernel=name) == pytest.approx(led.cmem_cycles)
        assert registry.get("gpu_flops_total").value(
            kernel=name) == pytest.approx(led.flops)
        assert registry.get("gpu_kernel_costs_total").value(kernel=name) == 1

    def test_per_site_series_cover_the_ledger(self, scoped_globals):
        registry, _ = scoped_globals
        cost = SpecialCaseKernel(arch=KEPLER_K40M).cost(self.PROBLEM)
        model = TimingModel(KEPLER_K40M)
        model.publish(cost, model.evaluate(cost))
        site_exec = registry.get("gpu_site_executions_total")
        for site, stats in cost.ledger.sites.items():
            assert site_exec.value(kernel=cost.name, site=site) == \
                pytest.approx(stats.executions)

    def test_private_registry_redirects_publication(self, scoped_globals):
        global_registry, _ = scoped_globals
        from repro.gpu.trace import publish_kernel_cost

        private = Registry()
        cost = SpecialCaseKernel(arch=KEPLER_K40M).cost(self.PROBLEM)
        publish_kernel_cost(cost)
        publish_kernel_cost(cost, registry=private)
        tx_global = global_registry.get("gpu_gmem_transactions_total")
        tx_private = private.get("gpu_gmem_transactions_total")
        # One publication went global; the explicit registry went private.
        assert tx_private.value(kernel=cost.name, op="read") == \
            pytest.approx(tx_global.value(kernel=cost.name, op="read"))

    def test_timing_mirror_matches_breakdown_total(self):
        registry = Registry()
        kernel = SpecialCaseKernel(arch=KEPLER_K40M)
        model = TimingModel(KEPLER_K40M, registry=registry)
        cost = kernel.cost(self.PROBLEM)
        breakdown = model.evaluate(cost)
        model.publish(cost, breakdown)
        seconds = registry.get("gpu_modeled_seconds_total")
        assert seconds.value(
            kernel=kernel.name, component="total") == pytest.approx(
                breakdown.total)
        assert registry.get("gpu_timing_evaluations_total").value(
            kernel=kernel.name) == 1

    def test_dse_spans_and_counters(self, scoped_globals):
        registry, tracer = scoped_globals
        from repro.core.dse import best_config

        problem = ConvProblem.square(256, 3, channels=1, filters=8)
        best_config(problem, KEPLER_K40M, case="special")
        assert len(tracer.by_category("dse")) > 0
        candidates = registry.get("dse_candidates_total")
        assert candidates is not None
        assert candidates.value(case="special", outcome="ok") > 0


@pytest.fixture
def fresh_registry():
    """A fresh process-wide registry; the previous one is restored after."""
    previous = get_registry()
    try:
        yield reset_registry()
    finally:
        set_registry(previous)


def _gpu_series(registry):
    """``{(metric, labels): value}`` for every ``gpu_*`` series."""
    return {(m["name"], tuple(sorted(s["labels"].items()))): s["value"]
            for m in registry.collect() if m["name"].startswith("gpu_")
            for s in m["series"]}


_PROBES = (
    ConvProblem.square(512, 3, channels=1, filters=8),
    ConvProblem.square(64, 3, channels=16, filters=32),
    ConvProblem.square(64, 3, channels=8, filters=8, groups=8),
)


def _default_build(backend):
    """``(kernel, problem)``: the backend's default build on the first
    probe shape it admits."""
    problem = next(p for p in _PROBES if backend.supports(p, KEPLER_K40M))
    return backend.build(problem, KEPLER_K40M), problem


class TestPricingPublishesNothing:
    """Searches, predictions, the fast simulator and serving price
    without writing ``gpu_*`` series."""

    def test_no_gpu_series_after_pricing(self, fresh_registry):
        registry = fresh_registry
        explore_general(3)
        explore_special()
        assert registry.get("dse_candidates_total").total() == \
            len(enumerate_general_configs(3, 2, KEPLER_K40M)) + \
            len(enumerate_special_configs())
        best_config(_PROBES[2], KEPLER_K40M, case="depthwise")
        for backend in default_registry():
            kernel, problem = _default_build(backend)
            kernel.predict(problem)
        cfg = GeneralCaseConfig(w=16, h=4, ftb=8, wt=8, ft=2, csh=1)
        rng = np.random.default_rng(5)
        FastGeneralKernel(KEPLER_K40M, config=cfg).run_traced(
            rng.standard_normal((2, 10, 34)).astype(np.float32),
            rng.standard_normal((8, 2, 3, 3)).astype(np.float32))
        ServeEngine().serve_trace(synthetic_trace(30, seed=3))
        assert _gpu_series(registry) == {}


class TestPublicationIsComplete:
    """One ``TimingModel.publish`` is one ledger and one evaluation,
    both under the published cost's name, for every backend."""

    @pytest.mark.parametrize(
        "backend", list(default_registry()), ids=lambda b: b.name)
    def test_publish_is_one_complete_prediction(self, backend,
                                                fresh_registry):
        kernel, problem = _default_build(backend)
        model = TimingModel(KEPLER_K40M)
        cost = kernel.cost(problem)
        model.publish(cost, model.evaluate(cost))
        series = _gpu_series(fresh_registry)
        k = (("kernel", cost.name),)
        assert series[("gpu_kernel_costs_total", k)] == 1.0
        assert series[("gpu_timing_evaluations_total", k)] == 1.0
        assert {dict(labels)["kernel"] for _, labels in series} == \
            {cost.name}


class TestServingTelemetry:
    def test_trace_has_all_span_categories(self):
        registry, tracer = Registry(), Tracer()
        engine = ServeEngine(registry=registry, tracer=tracer)
        engine.serve_trace(synthetic_trace(30, seed=3))
        assert {"batch", "dispatch", "plan-cache", "kernel"} <= \
            tracer.categories()
        doc = chrome_trace(tracer, registry)
        validate_chrome_trace(doc)
        cats = {e.get("cat") for e in doc["traceEvents"]
                if e.get("ph") == "X"}
        assert {"batch", "dispatch", "plan-cache", "kernel"} <= cats

    def test_plan_cache_counters_match_cache_stats(self):
        registry = Registry()
        engine = ServeEngine(registry=registry)
        engine.serve_trace(synthetic_trace(25, seed=4))
        stats = engine.plan_cache.stats()
        assert registry.get("plan_cache_hits_total").total() == stats["hits"]
        assert registry.get("plan_cache_misses_total").total() == \
            stats["misses"]
        assert registry.get("plan_cache_entries").value() == stats["entries"]

    def test_serve_series_match_snapshot(self):
        registry = Registry()
        engine = ServeEngine(registry=registry)
        engine.serve_trace(synthetic_trace(30, seed=5))
        snap = engine.stats()
        assert registry.get("serve_requests_total").total() == snap["served"]
        assert registry.get("serve_batches_total").total() == snap["batches"]
        assert registry.get("serve_latency_seconds").count() == snap["served"]
        assert registry.get("serve_busy_seconds_total").total() == \
            pytest.approx(snap["modeled_busy_seconds"])

    def test_queue_depth_gauge_returns_to_zero_after_drain(self):
        registry = Registry()
        engine = ServeEngine(registry=registry, deadline_s=1.0, max_batch=64)
        problem = ConvProblem.square(24, 3, channels=1, filters=2)
        for i in range(3):
            image, filters = problem.random_instance(seed=i)
            engine.submit(ConvRequest(req_id=i, problem=problem,
                                      image=image, filters=filters))
        assert registry.get("serve_queue_depth").value() == 3
        engine.flush()
        assert registry.get("serve_queue_depth").value() == 0

    def test_virtual_spans_align_with_modeled_clock(self):
        tracer = Tracer()
        engine = ServeEngine(registry=Registry(), tracer=tracer)
        responses = engine.serve_trace(synthetic_trace(20, seed=6))
        kernel_spans = tracer.by_category("kernel")
        assert kernel_spans
        # The last batch/kernel spans end exactly at the engine's clock.
        assert max(s.end_s for s in kernel_spans) == pytest.approx(
            engine.clock_s)
        batch_spans = tracer.by_category("batch")
        assert max(s.end_s for s in batch_spans) == pytest.approx(
            engine.clock_s)
        assert all(r.completed_s <= engine.clock_s for r in responses)

    def test_export_trace_requires_tracer(self, tmp_path):
        from repro.errors import ReproError

        engine = ServeEngine()
        with pytest.raises(ReproError):
            engine.export_trace(str(tmp_path / "t.json"))

    def test_export_trace_writes_valid_file(self, tmp_path):
        import json

        engine = ServeEngine(registry=Registry(), tracer=Tracer())
        engine.serve_trace(synthetic_trace(10, seed=7))
        path = str(tmp_path / "t.json")
        engine.export_trace(path)
        with open(path) as fh:
            validate_chrome_trace(json.load(fh))
