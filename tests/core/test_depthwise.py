"""Tests for the depthwise kernel (repro.core.depthwise).

Depthwise convolution is the special-case kernel applied once per
channel under a grid-Z-extended launch, so the contracts are: reference
parity across the generalized axes, a traced cost equal to the
per-group special-case cost scaled by the group count, and a traced
run, priced by that same cost, that survives the interpreted-oracle
audit on both bank-conflict policies.
"""

import numpy as np
import pytest

from repro.conv.reference import conv2d_reference
from repro.conv.tensors import ConvProblem, Layout, Padding
from repro.core import depthwise
from repro.core.depthwise import DepthwiseKernel
from repro.core.dse import best_config
from repro.core.special import SpecialCaseKernel
from repro.errors import AuditMismatchError, ConfigurationError, ShapeError
from repro.gpu.fastsim import kernel_cost_diffs
from repro.gpu.memory.banks import BankConflictPolicy

POLICIES = (BankConflictPolicy.WORD_MERGE, BankConflictPolicy.PAPER)

SWEEP = [
    ConvProblem.square(16, 3, channels=4, filters=4, groups=4),
    ConvProblem.square(20, 3, channels=3, filters=6, groups=3,
                       padding=Padding.SAME),
    ConvProblem.square(21, 5, channels=2, filters=2, groups=2),
    ConvProblem.square(20, 3, channels=4, filters=4, groups=4, stride=2),
    ConvProblem.square(17, 3, channels=2, filters=4, groups=2, dilation=2),
    ConvProblem.square(16, 3, channels=4, filters=4, groups=4,
                       layout=Layout.NHWC),
]


def _ids(problems):
    return ["c%d_f%d_k%d_%s_s%d_d%d_%s"
            % (p.channels, p.filters, p.kernel_size, p.padding.value,
               p.stride, p.dilation, p.layout.value)
            for p in problems]


class TestFunctionalParity:
    @pytest.mark.parametrize("problem", SWEEP, ids=_ids(SWEEP))
    def test_matches_reference(self, problem):
        image, filters = problem.random_instance(seed=2)
        kernel = DepthwiseKernel()
        out = kernel.run(image, filters, problem=problem)
        reference = conv2d_reference(image, filters, problem=problem)
        assert out.shape == problem.output_shape
        np.testing.assert_allclose(out, reference, rtol=1e-4, atol=1e-5)

    def test_inference_path_without_problem(self):
        problem = ConvProblem.square(16, 3, channels=3, filters=3, groups=3)
        image, filters = problem.random_instance(seed=4)
        out = DepthwiseKernel().run(image, filters)
        np.testing.assert_allclose(
            out, conv2d_reference(image, filters, problem=problem),
            rtol=1e-4, atol=1e-5)

    def test_rejects_non_depthwise_grouping(self):
        problem = ConvProblem.square(16, 3, channels=4, filters=4, groups=2)
        image, filters = problem.random_instance(seed=0)
        with pytest.raises(ConfigurationError) as excinfo:
            DepthwiseKernel().run(image, filters, problem=problem)
        assert "groups == channels" in str(excinfo.value)
        assert "groups=2" in str(excinfo.value)

    def test_rejects_malformed_filters(self):
        with pytest.raises(ShapeError):
            DepthwiseKernel().run(
                np.zeros((4, 16, 16), dtype=np.float32),
                np.zeros((4, 2, 3, 3), dtype=np.float32))


class TestCostModel:
    def test_cost_is_group_cost_scaled(self):
        problem = ConvProblem.square(16, 3, channels=4, filters=8, groups=4)
        kernel = DepthwiseKernel()
        cost = kernel.cost(problem)
        group = SpecialCaseKernel().cost(
            DepthwiseKernel.group_problem(problem.as_valid()))
        assert cost.launch.grid.z == 4
        assert cost.ledger.flops == pytest.approx(4 * group.ledger.flops)
        assert cost.ledger.gmem_read_transactions == pytest.approx(
            4 * group.ledger.gmem_read_transactions)
        assert cost.ledger.smem_cycles == pytest.approx(
            4 * group.ledger.smem_cycles)

    def test_strided_cost_still_traces(self):
        problem = ConvProblem.square(20, 3, channels=3, filters=3,
                                     groups=3, stride=2)
        cost = DepthwiseKernel().cost(problem)
        assert cost.launch.grid.z == 3
        # Executed flops are block-granular (padded tiles run in full),
        # so they bound the nominal operation count from above.
        assert cost.ledger.flops >= 2 * problem.flops

    def test_predict_and_gflops(self):
        problem = ConvProblem.square(16, 3, channels=2, filters=2, groups=2)
        kernel = DepthwiseKernel()
        breakdown = kernel.predict(problem)
        assert breakdown.total > 0
        assert kernel.gflops(problem) > 0


class TestFastsimAudit:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_run_traced_survives_oracle_audit(self, policy):
        kernel = DepthwiseKernel(bank_policy=policy)
        cfg = kernel.config
        k = 3
        rng = np.random.default_rng(17)
        image = rng.standard_normal(
            (3, cfg.block_h + k - 1, cfg.block_w + k - 1)).astype(np.float32)
        filters = rng.standard_normal((3, 1, k, k)).astype(np.float32)
        out, cost = kernel.run_traced(image, filters, audit=True)
        problem = ConvProblem(
            height=image.shape[1], width=image.shape[2], channels=3,
            filters=3, kernel_size=k, groups=3)
        np.testing.assert_allclose(
            out, conv2d_reference(image, filters, problem=problem),
            rtol=1e-4, atol=1e-4)
        assert cost.launch.grid.z == 3
        # One cost model: the traced run's cost is the kernel's own.
        assert kernel_cost_diffs(cost, kernel.cost(problem)) == []

    def test_audit_checks_every_group_output(self, monkeypatch):
        """One ulp in the last group's output trips the audit."""
        real = depthwise.conv2d_taps

        def skewed(*args):
            out = real(*args)
            out.flat[-1] = np.nextafter(out.flat[-1], np.float32(np.inf))
            return out

        monkeypatch.setattr(depthwise, "conv2d_taps", skewed)
        kernel = DepthwiseKernel()
        cfg = kernel.config
        rng = np.random.default_rng(17)
        image = rng.standard_normal(
            (3, cfg.block_h + 2, cfg.block_w + 2)).astype(np.float32)
        filters = rng.standard_normal((3, 1, 3, 3)).astype(np.float32)
        with pytest.raises(AuditMismatchError,
                           match="output buffers differ bitwise"):
            kernel.run_traced(image, filters, audit=True)


class TestDseIntegration:
    def test_best_config_selects_depthwise_case(self):
        problem = ConvProblem.square(24, 3, channels=4, filters=4, groups=4)
        ranked = best_config(problem)
        # The depthwise search tunes the C = 1 group problem through the
        # special-case explorer, so the winner is a special-case config.
        assert ranked.config.block_w > 0 and ranked.config.block_h > 0
        assert ranked.gflops > 0

    def test_unknown_case_rejected(self):
        problem = ConvProblem.square(24, 3, channels=4, filters=4)
        with pytest.raises(ConfigurationError):
            best_config(problem, case="grouped")
