"""Byte-identity audit of the traced runs.

``repro.gpu.fastsim`` replaces the per-warp interpreter loop: the
special case with the analytic ``SpecialCaseKernel.cost``, the general
case with whole-block address matrices folded through the same
bank/coalescing models.  The contract is *byte identity*: every ledger
counter, every per-site row, the launch geometry and the functional
output must equal the interpreted executor's exactly — not
approximately.  These tests sweep randomized aligned shapes across both
kernels, both bank-conflict policies and several architectures, and
additionally prove the audit machinery itself fails loudly when the two
paths are forced apart.
"""

import numpy as np
import pytest

from repro.conv.tensors import ConvProblem
from repro.core.config import GeneralCaseConfig, SpecialCaseConfig
from repro.core.general import GeneralCaseKernel
from repro.core.general_interpreted import InterpretedGeneralKernel
from repro.core.special_interpreted import InterpretedSpecialKernel
from repro.errors import (
    AuditMismatchError,
    ConfigurationError,
    TraceError,
)
from repro.gpu import fastsim
from repro.gpu.arch import (
    FERMI_M2090,
    KEPLER_K40M,
    MAXWELL_GM204,
    PASCAL_P100,
)
from repro.gpu.fastsim import (
    FastGeneralKernel,
    FastSpecialKernel,
    kernel_cost_diffs,
)
from repro.gpu.memory.banks import BankConflictPolicy

POLICIES = (BankConflictPolicy.WORD_MERGE, BankConflictPolicy.PAPER)

#: Small general-case tile feasible on every architecture (the Kepler
#: default needs more registers than Fermi's per-thread limit allows).
SMALL_GENERAL = GeneralCaseConfig(w=16, h=4, ftb=8, wt=8, ft=2, csh=1)


def special_shapes(rng, cfg, k, trials):
    """Randomized aligned (image, filters) pairs for the special case."""
    for _ in range(trials):
        oh = cfg.block_h * int(rng.integers(1, 4))
        ow = cfg.block_w * int(rng.integers(1, 3))
        img = rng.standard_normal((oh + k - 1, ow + k - 1))
        flt = rng.standard_normal((int(rng.integers(1, 5)), k, k))
        yield img.astype(np.float32), flt.astype(np.float32)


def general_shapes(rng, cfg, k, trials):
    """Randomized aligned (image, filters) pairs for the general case."""
    for _ in range(trials):
        oh = cfg.h * int(rng.integers(1, 4))
        ow = cfg.w * int(rng.integers(1, 3))
        c = cfg.csh * int(rng.integers(1, 4))
        f = cfg.ftb * int(rng.integers(1, 3))
        img = rng.standard_normal((c, oh + k - 1, ow + k - 1))
        flt = rng.standard_normal((f, c, k, k))
        yield img.astype(np.float32), flt.astype(np.float32)


def assert_pair_identical(fast, oracle, img, flt):
    out_f, cost_f = fast.run_traced(img, flt)
    out_o, cost_o = oracle.run_traced(img, flt)
    diffs = kernel_cost_diffs(cost_f, cost_o)
    assert diffs == [], "\n".join(diffs)
    assert out_f.shape == out_o.shape
    np.testing.assert_array_equal(out_f.view(np.uint32),
                                  out_o.view(np.uint32))


class TestSpecialByteIdentity:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    @pytest.mark.parametrize("k", (3, 5))
    def test_kepler_sweep(self, policy, k):
        rng = np.random.default_rng(100 * k + (policy is POLICIES[1]))
        fast = FastSpecialKernel(KEPLER_K40M, bank_policy=policy)
        oracle = InterpretedSpecialKernel(
            arch=KEPLER_K40M, config=fast.config, bank_policy=policy)
        for img, flt in special_shapes(rng, fast.config, k, trials=3):
            assert_pair_identical(fast, oracle, img, flt)

    @pytest.mark.parametrize(
        "arch", (FERMI_M2090, MAXWELL_GM204, PASCAL_P100),
        ids=lambda a: a.name)
    def test_other_architectures(self, arch):
        rng = np.random.default_rng(7)
        fast = FastSpecialKernel(arch)
        oracle = InterpretedSpecialKernel(arch=arch, config=fast.config)
        for img, flt in special_shapes(rng, fast.config, 3, trials=2):
            assert_pair_identical(fast, oracle, img, flt)

    def test_unmatched_vector(self):
        rng = np.random.default_rng(11)
        cfg = SpecialCaseConfig(block_w=64, block_h=4)
        fast = FastSpecialKernel(KEPLER_K40M, config=cfg, matched=False)
        oracle = InterpretedSpecialKernel(
            arch=KEPLER_K40M, config=cfg, matched=False)
        for img, flt in special_shapes(rng, cfg, 5, trials=2):
            assert_pair_identical(fast, oracle, img, flt)


class TestGeneralByteIdentity:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    @pytest.mark.parametrize("k", (3, 5))
    def test_kepler_sweep(self, policy, k):
        rng = np.random.default_rng(200 * k + (policy is POLICIES[1]))
        fast = FastGeneralKernel(KEPLER_K40M, bank_policy=policy)
        oracle = InterpretedGeneralKernel(
            arch=KEPLER_K40M, config=fast.config, bank_policy=policy)
        for img, flt in general_shapes(rng, fast.config, k, trials=2):
            assert_pair_identical(fast, oracle, img, flt)

    @pytest.mark.parametrize(
        "arch", (FERMI_M2090, MAXWELL_GM204, PASCAL_P100),
        ids=lambda a: a.name)
    def test_other_architectures(self, arch):
        rng = np.random.default_rng(13)
        fast = FastGeneralKernel(arch, config=SMALL_GENERAL)
        oracle = InterpretedGeneralKernel(arch=arch, config=SMALL_GENERAL)
        for img, flt in general_shapes(rng, SMALL_GENERAL, 3, trials=2):
            assert_pair_identical(fast, oracle, img, flt)


class TestGeneralLaunchLayout:
    @pytest.mark.parametrize(
        "arch", (KEPLER_K40M, FERMI_M2090, MAXWELL_GM204, PASCAL_P100),
        ids=lambda a: a.name)
    def test_one_block_layout(self, arch):
        """The analytic cost and the executed trace launch the paper's
        TX x TY thread block alike (the rest of the general cost's gaps
        to the trace are ROADMAP item 2's)."""
        rng = np.random.default_rng(19)
        analytic = GeneralCaseKernel(arch, config=SMALL_GENERAL)
        fast = FastGeneralKernel(arch, config=SMALL_GENERAL)
        for k in (3, 5):
            for img, flt in general_shapes(rng, SMALL_GENERAL, k, trials=2):
                problem = ConvProblem.from_arrays(img, flt)
                executed = fast.trace_cost(problem)
                diffs = kernel_cost_diffs(analytic.cost(problem), executed)
                assert [d for d in diffs if d.startswith("launch.")] == []
                assert executed.launch.block.y == SMALL_GENERAL.ty


class TestErrorParity:
    """Both paths must reject bad inputs with the same exception text."""

    def _error(self, kern, img, flt):
        with pytest.raises(Exception) as info:
            kern.run_traced(img, flt)
        return type(info.value), str(info.value)

    def test_partial_tiling_rejected_identically(self):
        img = np.zeros((9, 67), dtype=np.float32)   # 7x65 out: no tiling
        flt = np.zeros((2, 3, 3), dtype=np.float32)
        fast = self._error(FastSpecialKernel(), img, flt)
        oracle = self._error(
            InterpretedSpecialKernel(config=FastSpecialKernel().config),
            img, flt)
        assert fast == oracle
        assert fast[0] is ConfigurationError

    def test_general_ftb_divisibility_rejected_identically(self):
        cfg = SMALL_GENERAL
        img = np.zeros((1, 6, 18), dtype=np.float32)
        flt = np.zeros((cfg.ftb + 1, 1, 3, 3), dtype=np.float32)
        fast = self._error(FastGeneralKernel(config=cfg), img, flt)
        oracle = self._error(InterpretedGeneralKernel(config=cfg), img, flt)
        assert fast == oracle
        assert fast[0] is ConfigurationError

    @pytest.mark.parametrize("space", ("global", "shared"))
    def test_span_check_messages_are_the_interpreters(self, space):
        from repro.gpu.device import DeviceExecutor, SharedArray

        arr = (DeviceExecutor(KEPLER_K40M).alloc_global(np.zeros(8), "a")
               if space == "global" else SharedArray(8, "a"))
        with pytest.raises(TraceError) as oracle:
            arr.addresses(np.array([6]), vector=4, site="s")
        with pytest.raises(TraceError) as fast:
            fastsim._check_span(space, "a", 8, 6, 6, 4, "s")
        assert str(fast.value) == str(oracle.value)

    def test_fermi_register_pressure_rejected_identically(self):
        # The Kepler-tuned default exceeds Fermi's 63-register limit;
        # the fast path must surface the oracle's exact launch error.
        img = np.zeros((2, 6, 34), dtype=np.float32)
        flt = np.zeros((16, 2, 3, 3), dtype=np.float32)
        fast = self._error(FastGeneralKernel(FERMI_M2090), img, flt)
        oracle = self._error(InterpretedGeneralKernel(arch=FERMI_M2090),
                             img, flt)
        assert fast == oracle


class TestAuditMachinery:
    def test_audited_run_passes_clean(self):
        rng = np.random.default_rng(3)
        img = rng.standard_normal((10, 66)).astype(np.float32)
        flt = rng.standard_normal((2, 3, 3)).astype(np.float32)
        out, cost = FastSpecialKernel().run_traced(img, flt, audit=True)
        assert out.shape == (2, 8, 64)
        assert cost.ledger.flops > 0

    def test_injected_ledger_skew_trips_audit(self, monkeypatch):
        # Force the fast path to lie about one counter: the audit must
        # refuse to return a result rather than report it quietly.
        kern = FastSpecialKernel()
        real = FastSpecialKernel.trace_cost

        def skewed(self, problem):
            cost = real(self, problem)
            cost.ledger.flops += 1.0
            return cost

        monkeypatch.setattr(FastSpecialKernel, "trace_cost", skewed)
        img = np.zeros((6, 66), dtype=np.float32)
        flt = np.zeros((1, 3, 3), dtype=np.float32)
        with pytest.raises(AuditMismatchError) as info:
            kern.run_traced(img, flt, audit=True)
        assert "flops" in str(info.value)

    def test_injected_output_skew_trips_audit(self, monkeypatch):
        # One ulp in one output: the outputs are compared bit for bit.
        real = fastsim.conv2d_taps

        def skewed(*args):
            out = real(*args)
            out.flat[-1] = np.nextafter(out.flat[-1], np.float32(np.inf))
            return out

        monkeypatch.setattr(fastsim, "conv2d_taps", skewed)
        rng = np.random.default_rng(4)
        img = rng.standard_normal((6, 66)).astype(np.float32)
        flt = rng.standard_normal((2, 3, 3)).astype(np.float32)
        with pytest.raises(AuditMismatchError,
                           match="output buffers differ bitwise"):
            FastSpecialKernel().run_traced(img, flt, audit=True)

    def test_injected_site_skew_trips_audit(self, monkeypatch):
        kern = FastGeneralKernel(config=SMALL_GENERAL)
        real = FastGeneralKernel.trace_cost

        def skewed(self, problem):
            cost = real(self, problem)
            next(iter(cost.ledger.sites.values())).cycles += 1.0
            return cost

        monkeypatch.setattr(FastGeneralKernel, "trace_cost", skewed)
        img = np.zeros((1, 6, 18), dtype=np.float32)
        flt = np.zeros((8, 1, 3, 3), dtype=np.float32)
        with pytest.raises(AuditMismatchError):
            kern.run_traced(img, flt, audit=True)

    def test_kernel_cost_diffs_flags_missing_site(self):
        img = np.zeros((6, 66), dtype=np.float32)
        flt = np.zeros((1, 3, 3), dtype=np.float32)
        _, cost_a = FastSpecialKernel().run_traced(img, flt)
        _, cost_b = FastSpecialKernel().run_traced(img, flt)
        assert kernel_cost_diffs(cost_a, cost_b) == []
        dropped = next(iter(cost_b.ledger.sites))
        del cost_b.ledger.sites[dropped]
        diffs = kernel_cost_diffs(cost_a, cost_b)
        assert any(dropped in d for d in diffs)


class TestTraceCost:
    def test_trace_cost_matches_run_traced(self):
        fast = FastSpecialKernel()
        rng = np.random.default_rng(5)
        img = rng.standard_normal((10, 130)).astype(np.float32)
        flt = rng.standard_normal((2, 3, 3)).astype(np.float32)
        _, executed = fast.run_traced(img, flt)
        problem = ConvProblem(height=10, width=130, channels=1,
                              filters=2, kernel_size=3)
        assert kernel_cost_diffs(fast.trace_cost(problem), executed) == []


class TestInheritedBugFixes:
    """Regression pins for the interpreter bugs fastsim must not inherit."""

    def test_vector_span_bounds_checked_globally(self):
        from repro.gpu.device import DeviceExecutor

        executor = DeviceExecutor(KEPLER_K40M)
        arr = executor.alloc_global(np.zeros(8), "a")
        # Base element in range but the vector tail is not.
        with pytest.raises(TraceError, match=r"vector=4.*'tail'"):
            arr.addresses(np.array([6]), vector=4, site="tail")
        with pytest.raises(TraceError):
            arr.addresses(np.array([0]), vector=0)

    def test_vector_span_bounds_checked_shared(self):
        from repro.gpu.device import SharedArray

        buf = SharedArray(8, "buf")
        with pytest.raises(TraceError, match=r"shared index.*vector=2"):
            buf.addresses(np.array([7]), vector=2)

    def test_narrow_register_row_rejected_not_clamped_oob(self):
        # A register row narrower than one vector unit would make the
        # clamped staging offset negative; validate() must name the
        # rejection instead of letting the kernel trace garbage.
        cfg = GeneralCaseConfig(w=16, h=4, ftb=8, wt=4, ft=4, csh=1)
        with pytest.raises(ConfigurationError,
                           match="narrower than one vector unit"):
            cfg.validate(kernel_size=0, n=4)
