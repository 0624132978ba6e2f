"""The cost-model audit: Algorithm 1 executed on the SIMT interpreter
versus the analytic site-replay cost model.

``SpecialCaseKernel.cost()`` derives traffic by replaying each access
site's warp patterns, one per staged-row start residue, and scaling;
``InterpretedSpecialKernel`` *executes* the same algorithm with every
access observed.  On every aligned problem the two must agree exactly:
launch, every ledger counter and every per-site row
(``kernel_cost_diffs(analytic, executed) == []``).  So must
``DepthwiseKernel.cost`` against one interpreted run per group.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.conv.reference import conv2d_single_channel
from repro.conv.tensors import ConvProblem
from repro.core.config import SpecialCaseConfig
from repro.core.depthwise import DepthwiseKernel
from repro.core.special import SpecialCaseKernel
from repro.core.special_interpreted import InterpretedSpecialKernel
from repro.errors import ConfigurationError, ReproError
from repro.gpu.arch import ARCHITECTURES, FERMI_M2090, KEPLER_K40M
from repro.gpu.fastsim import kernel_cost_diffs
from repro.gpu.memory.banks import BankConflictPolicy
from repro.gpu.trace import KernelCost

CFG = SpecialCaseConfig(block_w=64, block_h=4)
POLICIES = (BankConflictPolicy.WORD_MERGE, BankConflictPolicy.PAPER)


def run_pair(k=3, f=2, height=10, width=130, arch=KEPLER_K40M,
             policy=BankConflictPolicy.WORD_MERGE, matched=True, seed=0,
             config=CFG):
    rng = np.random.default_rng(seed)
    img = rng.standard_normal((height, width)).astype(np.float32)
    flt = rng.standard_normal((f, k, k)).astype(np.float32)
    interp = InterpretedSpecialKernel(arch=arch, config=config,
                                      matched=matched, bank_policy=policy)
    out, executed = interp.run_traced(img, flt)
    analytic_kernel = SpecialCaseKernel(arch=arch, config=config,
                                        matched=matched, bank_policy=policy)
    problem = ConvProblem(height=height, width=width, channels=1,
                          filters=f, kernel_size=k)
    analytic = analytic_kernel.cost(problem)
    return img, flt, out, executed, analytic


def assert_exact(executed, analytic):
    diffs = kernel_cost_diffs(analytic, executed)
    assert diffs == [], "\n".join(diffs)


class TestFunctional:
    @pytest.mark.parametrize("k,width,height", [(3, 130, 10), (5, 132, 12)])
    def test_interpreted_output_exact(self, k, width, height):
        img, flt, out, _, _ = run_pair(k=k, width=width, height=height)
        ref = conv2d_single_channel(img, flt)
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-4)

    def test_rejects_unaligned_problems(self):
        interp = InterpretedSpecialKernel(config=CFG)
        img = np.zeros((11, 130), dtype=np.float32)  # out height 9 % 4 != 0
        with pytest.raises(ConfigurationError):
            interp.run_traced(img, np.zeros((1, 3, 3), dtype=np.float32))


class TestAudit:
    @pytest.mark.parametrize("k,width,height", [(3, 130, 10), (5, 132, 12)])
    def test_cost_equals_executed_trace(self, k, width, height):
        _, _, _, executed, analytic = run_pair(k=k, width=width, height=height)
        assert_exact(executed, analytic)

    @pytest.mark.parametrize("k,height,width,f,row_tx,halo_tx", [
        (3, 18, 130, 32, 416, None),
        (7, 14, 134, 1, None, 60),
    ])
    def test_row_loads_priced_where_each_row_starts(self, k, height, width,
                                                    f, row_tx, halo_tx):
        """The image pitch moves most staged rows off a sector boundary,
        where a row costs one more transaction: 416 `gm.load_row`
        transactions on an 18x130, F=32 problem (384 if every row
        started aligned), and 60 halo ones on a 14x134 one at K=7
        (40)."""
        _, _, _, executed, analytic = run_pair(k=k, f=f, height=height,
                                               width=width)
        assert_exact(executed, analytic)
        sites = analytic.ledger.sites
        if row_tx is not None:
            assert sites["gm.load_row[gmem.read]"].transactions == row_tx
        if halo_tx is not None:
            assert sites["gm.load_row_halo[gmem.read]"].transactions == halo_tx

    def test_unmatched_variant_agrees_too(self):
        _, _, _, executed, analytic = run_pair(matched=False)
        assert_exact(executed, analytic)

    def test_paper_policy_serialization_agrees(self):
        """Under the paper's policy the executed unmatched kernel shows
        the same 2x shared-memory serialization the analytic model does."""
        _, _, _, exec_m, anal_m = run_pair(policy=BankConflictPolicy.PAPER)
        _, _, _, exec_u, anal_u = run_pair(policy=BankConflictPolicy.PAPER,
                                           matched=False)
        assert_exact(exec_m, anal_m)
        assert_exact(exec_u, anal_u)
        assert exec_u.ledger.smem_conflict_overhead == 2.0
        assert exec_m.ledger.smem_conflict_overhead == 1.0

    def test_fermi_scalar_kernel_agrees(self):
        _, _, _, executed, analytic = run_pair(arch=FERMI_M2090)
        assert_exact(executed, analytic)


def _outcome(fn):
    """The cost, or the (type, message) of the error it raised."""
    try:
        return fn()
    except ReproError as exc:
        return type(exc).__name__, str(exc)


def _sweep():
    """Every preset, K 1/3/5/7 (and K 2/4 where the vector is scalar),
    matched and unmatched, on a problem of two 64x4 blocks, one above
    the other, whose 64- to 70-float image rows start at up to eight
    residues of a sector period."""
    for arch in ARCHITECTURES.values():
        n = SpecialCaseKernel(arch).n
        for k in (1, 3, 5, 7) + ((2, 4) if n == 1 else ()):
            for matched in (True, False):
                yield pytest.param(arch, k, matched,
                                   id="%s-k%d-%s" % (arch.name.split()[0], k,
                                                     "matched" if matched
                                                     else "unmatched"))


class TestSweep:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    @pytest.mark.parametrize("arch,k,matched", list(_sweep()))
    def test_special_cost_is_the_executed_trace(self, arch, k, matched,
                                                policy):
        rng = np.random.default_rng(k)
        img = rng.standard_normal((8 + k - 1, 64 + k - 1)).astype(np.float32)
        flt = rng.standard_normal((2, k, k)).astype(np.float32)
        problem = ConvProblem.from_arrays(img, flt)
        executed = _outcome(lambda: InterpretedSpecialKernel(
            arch=arch, config=CFG, matched=matched,
            bank_policy=policy).run_traced(img, flt)[1])
        analytic = _outcome(lambda: SpecialCaseKernel(
            arch=arch, config=CFG, matched=matched,
            bank_policy=policy).cost(problem))
        if isinstance(executed, tuple):
            # A launch the preset cannot run (K=7 needs 66 registers per
            # thread on Fermi) is refused alike.
            assert analytic == executed
            return
        assert_exact(executed, analytic)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    @pytest.mark.parametrize("arch", list(ARCHITECTURES.values()),
                             ids=lambda a: a.name)
    def test_depthwise_cost_is_the_executed_groups(self, arch, policy):
        """``DepthwiseKernel.cost`` equals one interpreted run per group,
        merged onto a grid whose Z extent is the group count."""
        cfg = SpecialCaseConfig(block_w=64, block_h=2)
        k, channels, mult = 3, 3, 2
        rng = np.random.default_rng(3)
        img = rng.standard_normal(
            (channels, 4 + k - 1, 128 + k - 1)).astype(np.float32)
        flt = rng.standard_normal(
            (channels * mult, 1, k, k)).astype(np.float32)
        problem = ConvProblem(height=img.shape[1], width=img.shape[2],
                              channels=channels, filters=channels * mult,
                              kernel_size=k, groups=channels)
        interp = InterpretedSpecialKernel(arch=arch, config=cfg,
                                          bank_policy=policy)
        merged = None
        for g in range(channels):
            _, cost = interp.run_traced(img[g],
                                        flt[g * mult:(g + 1) * mult, 0])
            if merged is None:
                merged = cost
            else:
                merged.ledger.merge(cost.ledger)
        executed = KernelCost(
            name=merged.name,
            launch=replace(merged.launch,
                           grid=replace(merged.launch.grid, z=channels)),
            ledger=merged.ledger, software_prefetch=merged.software_prefetch)
        analytic = DepthwiseKernel(arch=arch, config=cfg,
                                   bank_policy=policy).cost(problem)
        assert_exact(executed, analytic)
