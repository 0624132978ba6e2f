"""End-to-end parity of the parallelized sweep paths.

The executor's headline guarantee: every sweep produces bit-identical
results for any ``jobs`` degree, and telemetry totals merge losslessly.
Wall-clock speed-ups are host-dependent, so they are measured in
``benchmarks/bench_parallel_dse.py``, not asserted here.
"""

import numpy as np
import pytest

from repro.bench.runner import compare_on_sweep
from repro.conv.tensors import ConvProblem
from repro.conv.workloads import special_case_sweep
from repro.core.dse import (
    enumerate_general_configs,
    explore_general,
    explore_special,
    reproduce_table1,
)
from repro.core.special import SpecialCaseKernel
from repro.baselines.im2col import Im2colKernel
from repro.gpu.arch import KEPLER_K40M
from repro.obs.metrics import get_registry, reset_registry
from repro.parallel import shutdown_pools
from repro.serve.dispatch import Dispatcher
from repro.serve.request import ConvRequest


@pytest.fixture(autouse=True)
def _fresh_state():
    reset_registry()
    yield
    shutdown_pools()
    reset_registry()


def general_subset(n=48):
    return enumerate_general_configs(3, 2, KEPLER_K40M)[:n]


class TestDSEParity:
    def test_explore_special_identical_rankings(self):
        serial = explore_special(jobs=1)
        fanned = explore_special(jobs=2)
        assert serial == fanned  # dataclass equality: configs AND floats

    def test_explore_general_identical_rankings(self):
        configs = general_subset()
        serial = explore_general(3, configs=configs, jobs=1)
        fanned = explore_general(3, configs=configs, jobs=3)
        assert serial == fanned

    def test_full_general_sweep_identical_rankings(self):
        configs = enumerate_general_configs(3, 2, KEPLER_K40M)
        serial = explore_general(3, configs=configs, jobs=1)
        fanned = explore_general(3, configs=configs, jobs=2)
        assert serial == fanned

    def test_candidate_counter_totals_match_serial(self):
        configs = general_subset()
        explore_general(3, configs=configs, jobs=1)
        serial_total = get_registry().get("dse_candidates_total").total()
        reset_registry()
        explore_general(3, configs=configs, jobs=2)
        fanned_total = get_registry().get("dse_candidates_total").total()
        assert fanned_total == serial_total == float(len(configs))

    def test_candidate_spans_arrive_from_workers(self):
        from repro.obs.tracing import get_tracer, reset_tracer

        configs = general_subset(12)
        reset_tracer()
        explore_general(3, configs=configs, jobs=2)
        spans = get_tracer().by_category("dse")
        assert len(spans) == len(configs)
        assert any("shard" in s.args for s in spans)


class TestTable1Parity:
    def test_reproduce_table1_identical_rows(self):
        # One filter size keeps the full-axis exploration affordable
        # while still exercising the fan-out/merge path end to end.
        serial = reproduce_table1(kernel_sizes=(3,), jobs=1)
        fanned = reproduce_table1(kernel_sizes=(3,), jobs=2)
        assert serial == fanned


class TestSweepParity:
    def test_compare_on_sweep_identical_rows(self):
        kernels = {
            "ours": SpecialCaseKernel(KEPLER_K40M),
            "cuDNN": Im2colKernel(KEPLER_K40M),
        }
        points = special_case_sweep(3)
        serial = compare_on_sweep(kernels, points, jobs=1)
        fanned = compare_on_sweep(kernels, points, jobs=2)
        assert serial == fanned

    def test_custom_lambda_metric_still_works(self):
        kernels = {"ours": SpecialCaseKernel(KEPLER_K40M)}
        points = special_case_sweep(3)[:3]
        rows = compare_on_sweep(
            kernels, points,
            metric=lambda kernel, problem: float(problem.width),
            jobs=2)
        assert [r.values["ours"] for r in rows] == [
            float(p.problem.width) for p in points]


class TestDispatchParity:
    def make_requests(self, problem, n=6):
        requests = []
        for i in range(n):
            image, filters = problem.random_instance(seed=i)
            requests.append(ConvRequest(req_id=i, problem=problem,
                                        image=image, filters=filters))
        return requests

    @pytest.mark.parametrize("executor", ["reference", "kernel"])
    def test_outputs_flags_seconds_identical(self, executor):
        problem = ConvProblem.square(32, 3, channels=8, filters=16)
        requests = self.make_requests(problem)
        serial_d = Dispatcher()
        plan = serial_d.plan(problem)
        out1, fell1, s1 = serial_d.execute(plan, requests, executor, jobs=1)
        fanned_d = Dispatcher(jobs=2)
        plan2 = fanned_d.plan(problem)
        out2, fell2, s2 = fanned_d.execute(plan2, requests, executor)
        assert fell1 == fell2
        assert s1 == s2
        for a, b in zip(out1, out2):
            assert np.array_equal(a, b)

