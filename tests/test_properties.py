"""Property-based tests (hypothesis) for the core data structures and
invariants: bank-conflict bounds, coalescing bounds, convolution
algebra, kernel-vs-reference equivalence on randomized shapes, ledger
additivity, and configuration enumeration soundness."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.conv.blocking import BlockGrid, BlockSpec, halo_read_overhead
from repro.conv.reference import conv2d_reference, conv2d_single_channel
from repro.conv.tensors import ConvProblem
from repro.core.bankwidth import conventional_pattern, matched_pattern
from repro.core.general import GeneralCaseKernel
from repro.core.config import GeneralCaseConfig
from repro.core.special import SpecialCaseKernel, SpecialCaseConfig
from repro.gpu.arch import FERMI_M2090, KEPLER_K40M
from repro.gpu.memory.banks import BankConflictPolicy, SharedMemoryModel
from repro.gpu.memory.globalmem import GlobalMemoryModel
from repro.gpu.trace import KernelTracer

# ----------------------------------------------------------------------
# Shared-memory bank model
# ----------------------------------------------------------------------

access_sizes = st.sampled_from([1, 2, 4, 8, 16])
lane_counts = st.integers(min_value=1, max_value=32)


@st.composite
def warp_requests(draw):
    size = draw(access_sizes)
    lanes = draw(lane_counts)
    units = draw(
        st.lists(st.integers(min_value=0, max_value=4096),
                 min_size=lanes, max_size=lanes)
    )
    return np.asarray(units, dtype=np.int64) * size, size


class TestBankProperties:
    @given(warp_requests())
    @settings(max_examples=200, deadline=None)
    def test_cycles_bounded(self, req):
        addrs, size = req
        for policy in BankConflictPolicy:
            res = SharedMemoryModel(KEPLER_K40M, policy).access(addrs, size)
            phases = res.phases
            assert phases <= res.cycles <= len(addrs) * phases
            assert 1 <= res.conflict_degree <= len(addrs)

    @given(warp_requests())
    @settings(max_examples=200, deadline=None)
    def test_paper_policy_never_cheaper_than_word_merge(self, req):
        addrs, size = req
        paper = SharedMemoryModel(KEPLER_K40M, BankConflictPolicy.PAPER)
        merge = SharedMemoryModel(KEPLER_K40M, BankConflictPolicy.WORD_MERGE)
        assert paper.access(addrs, size).cycles >= merge.access(addrs, size).cycles

    @given(warp_requests())
    @settings(max_examples=200, deadline=None)
    def test_utilization_at_most_one(self, req):
        addrs, size = req
        res = SharedMemoryModel(KEPLER_K40M).access(addrs, size)
        assert 0.0 < res.bandwidth_utilization <= 1.0 + 1e-12

    @given(st.integers(min_value=1, max_value=32))
    @settings(max_examples=50, deadline=None)
    def test_distinct_bank_permutation_conflict_free(self, lanes):
        # Any permutation of distinct banks completes in one cycle.
        banks = np.random.default_rng(lanes).permutation(32)[:lanes]
        addrs = banks.astype(np.int64) * 8
        res = SharedMemoryModel(KEPLER_K40M, BankConflictPolicy.PAPER).access(addrs, 8)
        assert res.cycles == 1

    @given(st.integers(min_value=1, max_value=32), access_sizes)
    @settings(max_examples=100, deadline=None)
    def test_broadcast_is_always_one_cycle_per_phase(self, lanes, size):
        addrs = np.zeros(lanes, dtype=np.int64)
        for policy in BankConflictPolicy:
            res = SharedMemoryModel(KEPLER_K40M, policy).access(addrs, size)
            assert res.cycles == res.phases

    @given(st.integers(min_value=1, max_value=16))
    @settings(max_examples=50, deadline=None)
    def test_matched_pattern_never_slower_than_conventional(self, groups):
        """For equal element coverage, the matched pattern (Fig. 1b)
        never costs more cycles under either policy."""
        elements = groups * 2
        conv = conventional_pattern(elements, 4)
        mat = matched_pattern(groups, 4, 2)
        for policy in BankConflictPolicy:
            model = SharedMemoryModel(KEPLER_K40M, policy)
            assert model.access(mat, 8).cycles <= model.access(conv, 4).cycles


# ----------------------------------------------------------------------
# Global-memory model
# ----------------------------------------------------------------------

class TestGmemProperties:
    @given(warp_requests())
    @settings(max_examples=200, deadline=None)
    def test_transactions_at_least_compulsory(self, req):
        addrs, size = req
        res = GlobalMemoryModel(KEPLER_K40M).access(addrs, size)
        compulsory = -(-res.unique_bytes // res.segment_size)
        assert res.transactions >= compulsory
        assert res.transactions <= len(addrs) * -(-size // res.segment_size) + len(addrs)

    @given(warp_requests())
    @settings(max_examples=200, deadline=None)
    def test_efficiency_in_unit_interval(self, req):
        addrs, size = req
        res = GlobalMemoryModel(KEPLER_K40M).access(addrs, size)
        assert 0.0 < res.efficiency <= 1.0 + 1e-12

    @given(st.integers(min_value=1, max_value=32), access_sizes,
           st.integers(min_value=0, max_value=64))
    @settings(max_examples=100, deadline=None)
    def test_contiguous_access_is_optimal(self, lanes, size, base_units):
        base = base_units * size
        addrs = base + np.arange(lanes, dtype=np.int64) * size
        res = GlobalMemoryModel(KEPLER_K40M).access(addrs, size)
        span = (addrs[-1] + size) - addrs[0]
        # A contiguous run of `span` bytes touches at most
        # ceil(span/seg) + 1 segments (the +1 for a misaligned base).
        assert res.transactions <= -(-span // res.segment_size) + 1


# ----------------------------------------------------------------------
# Convolution algebra
# ----------------------------------------------------------------------

small_images = st.tuples(
    st.integers(min_value=6, max_value=24),   # H
    st.integers(min_value=6, max_value=24),   # W
    st.integers(min_value=1, max_value=4),    # C
    st.integers(min_value=1, max_value=4),    # F
    st.sampled_from([1, 3, 5]),               # K
)


class TestConvolutionProperties:
    @given(small_images, st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_linearity_in_image(self, dims, seed):
        h, w, c, f, k = dims
        assume(k <= min(h, w))
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((c, h, w)).astype(np.float32)
        b = rng.standard_normal((c, h, w)).astype(np.float32)
        flt = rng.standard_normal((f, c, k, k)).astype(np.float32)
        lhs = conv2d_reference(a + b, flt)
        rhs = conv2d_reference(a, flt) + conv2d_reference(b, flt)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-3, atol=1e-3)

    @given(small_images, st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_channel_additivity(self, dims, seed):
        h, w, c, f, k = dims
        assume(k <= min(h, w))
        rng = np.random.default_rng(seed)
        img = rng.standard_normal((c, h, w)).astype(np.float32)
        flt = rng.standard_normal((f, c, k, k)).astype(np.float32)
        total = conv2d_reference(img, flt)
        per_channel = sum(
            conv2d_reference(img[ci : ci + 1], flt[:, ci : ci + 1])
            for ci in range(c)
        )
        np.testing.assert_allclose(total, per_channel, rtol=1e-3, atol=1e-3)

    @given(st.integers(min_value=8, max_value=30),
           st.sampled_from([1, 3, 5]), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_shift_equivariance(self, n, k, seed):
        assume(k <= n - 2)
        rng = np.random.default_rng(seed)
        img = rng.standard_normal((n, n)).astype(np.float32)
        flt = rng.standard_normal((k, k)).astype(np.float32)
        full = conv2d_single_channel(img, flt)[0]
        shifted = conv2d_single_channel(img[1:, :], flt)[0]
        np.testing.assert_allclose(full[1:, :], shifted, rtol=1e-4, atol=1e-4)


# ----------------------------------------------------------------------
# Kernels vs reference on randomized shapes
# ----------------------------------------------------------------------

class TestKernelEquivalence:
    @given(st.integers(min_value=7, max_value=40),
           st.integers(min_value=7, max_value=80),
           st.sampled_from([1, 3, 5]),
           st.integers(min_value=1, max_value=3),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_special_kernel_matches_reference(self, h, w, k, f, seed):
        assume(k <= min(h, w))
        rng = np.random.default_rng(seed)
        img = rng.standard_normal((h, w)).astype(np.float32)
        flt = rng.standard_normal((f, k, k)).astype(np.float32)
        kern = SpecialCaseKernel(config=SpecialCaseConfig(block_w=64, block_h=4))
        np.testing.assert_allclose(
            kern.run(img, flt), conv2d_single_channel(img, flt),
            rtol=1e-3, atol=1e-3,
        )

    @given(st.integers(min_value=8, max_value=24),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=12),
           st.sampled_from([1, 3]),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_general_kernel_matches_reference(self, n, c, f, k, seed):
        rng = np.random.default_rng(seed)
        img = rng.standard_normal((c, n, n)).astype(np.float32)
        flt = rng.standard_normal((f, c, k, k)).astype(np.float32)
        cfg = GeneralCaseConfig(w=16, h=8, ftb=16, wt=8, ft=4, csh=2)
        kern = GeneralCaseKernel(config=cfg)
        np.testing.assert_allclose(
            kern.run(img, flt), conv2d_reference(img, flt),
            rtol=1e-3, atol=1e-3,
        )


# ----------------------------------------------------------------------
# Blocking, ledger, timing invariants
# ----------------------------------------------------------------------

class TestStructuralProperties:
    @given(st.integers(min_value=8, max_value=128),
           st.sampled_from([1, 3, 5]),
           st.integers(min_value=1, max_value=16),
           st.integers(min_value=4, max_value=64))
    @settings(max_examples=100, deadline=None)
    def test_halo_overhead_at_least_one(self, n, k, bh, bw):
        assume(k <= n)
        p = ConvProblem.square(n, k)
        assert halo_read_overhead(p, BlockSpec(block_h=bh, block_w=bw)) >= 1.0 - 1e-9

    @given(st.integers(min_value=8, max_value=64),
           st.sampled_from([1, 3]),
           st.integers(min_value=2, max_value=8),
           st.integers(min_value=4, max_value=32))
    @settings(max_examples=60, deadline=None)
    def test_grid_partitions_output_exactly(self, n, k, bh, bw):
        assume(k <= n)
        p = ConvProblem.square(n, k)
        grid = BlockGrid(p, BlockSpec(block_h=bh, block_w=bw))
        # Tiles clipped at the edge partition the output exactly when
        # the last block row and column start inside it and reach its
        # edge.
        assert (grid.blocks_y - 1) * bh < p.out_height <= grid.blocks_y * bh
        assert (grid.blocks_x - 1) * bw < p.out_width <= grid.blocks_x * bw

    @given(st.integers(min_value=1, max_value=50),
           st.integers(min_value=1, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_ledger_merge_commutes(self, n1, n2):
        def build(n):
            t = KernelTracer(KEPLER_K40M)
            t.flops(n * 7.0)
            t.smem_read(np.arange(32) * 8, 8, count=n)
            return t.ledger

        a1, b1 = build(n1), build(n2)
        a2, b2 = build(n1), build(n2)
        a1.merge(b1)
        b2.merge(a2)
        assert a1.flops == b2.flops
        assert a1.smem_cycles == b2.smem_cycles


# ----------------------------------------------------------------------
# Timing-model invariants
# ----------------------------------------------------------------------

class TestTimingProperties:
    @staticmethod
    def _cost(flops, gmem_reqs, blocks, threads):
        from repro.gpu.simt import Dim3, LaunchConfig

        tracer = KernelTracer(KEPLER_K40M)
        tracer.flops(flops)
        if gmem_reqs:
            tracer.gmem_read(np.arange(32) * 4, 4, count=gmem_reqs)
        launch = LaunchConfig(grid=Dim3(blocks), block=Dim3(threads),
                              registers_per_thread=32)
        return tracer.finish(name="prop", launch=launch)

    @given(st.floats(min_value=1e6, max_value=1e12),
           st.floats(min_value=0, max_value=1e7),
           st.integers(min_value=1, max_value=100000),
           st.sampled_from([64, 128, 256, 512]))
    @settings(max_examples=80, deadline=None)
    def test_total_time_positive_and_bounded_below(self, flops, reqs, blocks,
                                                   threads):
        from repro.gpu.timing import ETA_MAX, TimingModel

        model = TimingModel(KEPLER_K40M)
        tb = model.evaluate(self._cost(flops, reqs, blocks, threads))
        assert tb.total > 0
        assert tb.total >= max(tb.t_compute, tb.t_gmem, tb.t_smem)
        assert 0.0 <= tb.eta <= ETA_MAX

    @given(st.floats(min_value=1e6, max_value=1e11),
           st.integers(min_value=1, max_value=10000))
    @settings(max_examples=60, deadline=None)
    def test_more_flops_never_faster(self, flops, blocks):
        from repro.gpu.timing import TimingModel

        model = TimingModel(KEPLER_K40M)
        small = model.evaluate(self._cost(flops, 1000, blocks, 256))
        big = model.evaluate(self._cost(flops * 2, 1000, blocks, 256))
        assert big.total >= small.total

    @given(st.floats(min_value=1.0, max_value=1e6),
           st.integers(min_value=1, max_value=10000))
    @settings(max_examples=60, deadline=None)
    def test_more_traffic_never_faster(self, reqs, blocks):
        from repro.gpu.timing import TimingModel

        model = TimingModel(KEPLER_K40M)
        small = model.evaluate(self._cost(1e9, reqs, blocks, 256))
        big = model.evaluate(self._cost(1e9, reqs * 2, blocks, 256))
        assert big.total >= small.total


# ----------------------------------------------------------------------
# Gradient adjoint identities under random shapes
# ----------------------------------------------------------------------

class TestGradientProperties:
    @given(st.integers(min_value=6, max_value=16),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3),
           st.sampled_from([1, 3, 5]),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_adjoint_identities(self, n, c, f, k, seed):
        from repro.conv.gradients import (
            conv2d_input_gradient,
            conv2d_weight_gradient,
        )

        assume(k <= n)
        rng = np.random.default_rng(seed)
        img = rng.standard_normal((c, n, n)).astype(np.float32)
        flt = rng.standard_normal((f, c, k, k)).astype(np.float32)
        g = rng.standard_normal((f, n - k + 1, n - k + 1)).astype(np.float32)
        inner = float(np.sum(g * conv2d_reference(img, flt)))
        via_dx = float(np.sum(conv2d_input_gradient(g, flt) * img))
        via_dw = float(np.sum(conv2d_weight_gradient(img, g, k) * flt))
        scale = max(abs(inner), 1.0)
        assert abs(inner - via_dx) < 1e-2 * scale
        assert abs(inner - via_dw) < 1e-2 * scale


# ----------------------------------------------------------------------
# Stencil invariants
# ----------------------------------------------------------------------

class TestStencilProperties:
    @given(st.integers(min_value=4, max_value=20), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_constant_grid_is_fixed_point(self, n, seed):
        from repro.apps.stencil import JacobiStencil

        value = float(np.random.default_rng(seed).uniform(-5, 5))
        grid = np.full((n, n), value, dtype=np.float32)
        out = JacobiStencil().run(grid, iterations=3)
        np.testing.assert_allclose(out, grid, atol=1e-4)

    @given(st.integers(min_value=5, max_value=16), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_maximum_principle(self, n, seed):
        """Jacobi iterates stay within the initial min/max envelope."""
        from repro.apps.stencil import JacobiStencil

        rng = np.random.default_rng(seed)
        grid = rng.uniform(-1, 1, (n, n)).astype(np.float32)
        out = JacobiStencil().run(grid, iterations=5)
        assert out.max() <= grid.max() + 1e-5
        assert out.min() >= grid.min() - 1e-5


# ----------------------------------------------------------------------
# Design-space enumeration soundness
# ----------------------------------------------------------------------

class TestDSEProperties:
    @given(st.sampled_from([3, 5, 7]), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_enumerated_configs_are_resident(self, k, seed):
        """Any sampled survivor of the enumeration must be launchable
        and resident on the modeled K40m."""
        from repro.core.dse import enumerate_general_configs
        from repro.gpu.occupancy import occupancy
        from repro.gpu.simt import Dim3, LaunchConfig

        configs = enumerate_general_configs(k, 2, KEPLER_M := KEPLER_K40M)
        rng = np.random.default_rng(seed)
        for cfg in rng.choice(len(configs), size=min(10, len(configs)),
                              replace=False):
            cfg = configs[int(cfg)]
            launch = LaunchConfig(
                grid=Dim3(4), block=Dim3(cfg.tx, cfg.ty),
                registers_per_thread=cfg.registers_per_thread(k, 2),
                smem_per_block=cfg.smem_bytes(k, 2),
            )
            occ = occupancy(KEPLER_M, launch)
            assert occ.blocks_per_sm >= 1

    @given(st.sampled_from([3, 5, 7]))
    @settings(max_examples=3, deadline=None)
    def test_table1_always_survives(self, k):
        from repro.core.config import TABLE1_CONFIGS
        from repro.core.dse import enumerate_general_configs

        assert TABLE1_CONFIGS[k] in enumerate_general_configs(k, 2, KEPLER_K40M)
