"""Tests for the cuDNN-like implicit-GEMM convolution baseline."""

import math
from unittest import mock

import numpy as np
import pytest

from repro.baselines.gemm import GemmTiling
from repro.baselines.implicit_gemm import DEFAULT_TILE_PALETTE, ImplicitGemmKernel
from repro.conv.reference import conv2d_reference
from repro.conv.tensors import ConvProblem, Padding
from repro.conv.workloads import general_case_sweep, special_case_sweep
from repro.gpu.arch import ARCHITECTURES
from repro.gpu.timing import TimingModel


@pytest.fixture
def kernel():
    return ImplicitGemmKernel()


class TestFunctional:
    def test_matches_reference(self, rng, kernel):
        img = rng.standard_normal((4, 18, 22)).astype(np.float32)
        flt = rng.standard_normal((6, 4, 3, 3)).astype(np.float32)
        np.testing.assert_allclose(
            kernel.run(img, flt), conv2d_reference(img, flt),
            rtol=1e-3, atol=1e-3,
        )

    def test_same_padding(self, rng, kernel):
        img = rng.standard_normal((2, 14, 14)).astype(np.float32)
        flt = rng.standard_normal((3, 2, 5, 5)).astype(np.float32)
        np.testing.assert_allclose(
            kernel.run(img, flt, Padding.SAME),
            conv2d_reference(img, flt, Padding.SAME),
            rtol=1e-3, atol=1e-3,
        )


class TestGemmMapping:
    def test_gemm_shape(self):
        p = ConvProblem.square(34, 3, channels=8, filters=16)
        s = ImplicitGemmKernel.gemm_shape(p)
        assert (s.m, s.n, s.k) == (16, 32 * 32, 8 * 9)

    def test_tile_selection_prefers_skinny_for_small_f(self, kernel):
        small_f = ConvProblem.square(512, 3, channels=1, filters=8)
        assert kernel.select_tiling(small_f).bm == 32

    def test_tile_selection_prefers_big_for_big_problem(self, kernel):
        big = ConvProblem.square(128, 3, channels=128, filters=256)
        assert kernel.select_tiling(big).bm >= 64

    def test_explicit_tiling_honoured(self):
        t = GemmTiling(bm=64, bn=64, bk=8, tm=4, tn=4, n=1)
        kern = ImplicitGemmKernel(tiling=t)
        assert kern.select_tiling(ConvProblem.square(64, 3, channels=4)) is t


class TestCostShape:
    def test_padding_waste_at_f1(self, kernel):
        """F=1 executes a >=32-wide padded tile: flops far above nominal."""
        p = ConvProblem.square(512, 3, channels=1, filters=1)
        assert kernel.cost(p).flops > 10 * p.flops

    def test_image_regathered_per_tap(self, kernel):
        """The implicit lowering re-reads the image ~K*K times (through
        L2); the paper's kernels avoid exactly this."""
        p = ConvProblem.square(128, 3, channels=64, filters=128)
        led = kernel.cost(p).ledger
        assert led.gmem_l2_bytes > 5 * led.gmem_read_bytes_moved

    def test_scalar_smem_reads(self, kernel):
        for t in DEFAULT_TILE_PALETTE:
            assert t.n == 1  # the paper's premise: cuDNN is unmatched

    def test_launch_valid(self, kernel):
        p = ConvProblem.square(64, 3, channels=16, filters=64)
        kernel.launch_config_ok = kernel.cost(p)  # must not raise


class TestTracing:
    """Tile selection traces only the tiles its bounded search prices,
    each once, and ``cost`` reuses the winner's trace instead of tracing
    it again."""

    P = ConvProblem.square(64, 3, channels=16, filters=64)

    @staticmethod
    def _traced(kern):
        """The tiles ``kern.cost(P)`` traces, in order."""
        with mock.patch.object(ImplicitGemmKernel, "_cost_with",
                               autospec=True,
                               side_effect=ImplicitGemmKernel._cost_with) \
                as cost_with:
            kern.cost(TestTracing.P)
        return [call.args[2] for call in cost_with.call_args_list]

    def test_unfixed_cost_traces_each_tile_it_prices_once(self, kernel):
        traced = self._traced(kernel)
        # On P the floor order prices two tiles before the rest's floors
        # fall below the winner's GFlop/s.
        assert len(traced) == 2
        assert len(set(traced)) == len(traced)
        assert kernel.select_tiling(self.P) in traced

    def test_fixed_tiling_traces_once(self):
        kern = ImplicitGemmKernel(tiling=DEFAULT_TILE_PALETTE[2])
        assert self._traced(kern) == [DEFAULT_TILE_PALETTE[2]]


def _churn_style_shapes(count=32, seed=5):
    """Plain, strided and dilated shapes in turn, H 16-64, K 3/5, C 1-16,
    F 4-16: the ungrouped mix a cold serving engine plans."""
    rng = np.random.default_rng(seed)
    shapes = []
    for i in range(count):
        kwargs = ({}, {"stride": 2}, {"dilation": 2})[i % 3]
        shapes.append(ConvProblem.square(
            int(rng.integers(16, 65)), (3, 5)[(i // 3) % 2],
            channels=int(rng.integers(1, 17)),
            filters=int(rng.integers(4, 17)), **kwargs))
    return shapes


def _exhaustive_argmin(kernel, problem):
    """Every palette tile traced and timed: the lowest time, the
    earliest tile on a tie."""
    model = TimingModel(kernel.arch)
    best, best_time = None, float("inf")
    for tiling in DEFAULT_TILE_PALETTE:
        t = model.evaluate(kernel._cost_with(problem, tiling)).total
        if t < best_time:
            best, best_time = tiling, t
    return best


class TestTileSearch:
    """The bounded tile search picks the exhaustive argmin, so the
    figures and the baseline pins see the tiles they always did."""

    @pytest.mark.parametrize("arch", list(ARCHITECTURES.values()),
                             ids=list(ARCHITECTURES))
    def test_churn_style_shapes(self, arch):
        kernel = ImplicitGemmKernel(arch=arch)
        for problem in _churn_style_shapes():
            tiling = _exhaustive_argmin(kernel, problem)
            assert kernel.select_tiling(problem) == tiling, problem
            assert kernel.cost(problem) == kernel._cost_with(problem, tiling)

    def test_fig7_and_fig8_sweeps(self, kernel):
        points = ([p for k in (1, 3, 5) for p in special_case_sweep(k)]
                  + [p for k in (3, 5, 7) for p in general_case_sweep(k)])
        for point in points:
            assert kernel.select_tiling(point.problem) == _exhaustive_argmin(
                kernel, point.problem), point.label

    def test_a_limit_below_the_winner_bounds_the_search(self, kernel):
        winner = kernel.search(TestTracing.P)
        seconds = winner.breakdown.total
        assert winner.breakdown == kernel.predict(TestTracing.P)
        assert kernel.search(TestTracing.P, seconds) == winner
        assert kernel.search(TestTracing.P,
                             math.nextafter(seconds, 0.0)) is None

    @pytest.mark.parametrize("problem", [
        ConvProblem.square(64, 3, channels=16, filters=64),
        ConvProblem.square(512, 3, channels=1, filters=8),
        ConvProblem.square(33, 5, channels=4, filters=8, stride=2),
    ], ids=["mid", "small-f", "strided"])
    def test_cost_equals_a_fresh_trace_of_the_selected_tile(self, kernel,
                                                           problem):
        tiling = kernel.select_tiling(problem)
        assert kernel.cost(problem) == kernel._cost_with(problem, tiling)
        fixed = ImplicitGemmKernel(tiling=tiling)
        assert fixed.cost(problem) == kernel.cost(problem)


class TestVersusPaper:
    def test_loses_to_special_kernel_generally(self):
        from repro.core.special import SpecialCaseKernel

        ours = SpecialCaseKernel()
        cudnn = ImplicitGemmKernel()
        p = ConvProblem.square(2048, 3, channels=1, filters=8)
        assert ours.gflops(p) > 2 * cudnn.gflops(p)

    def test_loses_to_general_kernel_on_large_layers(self):
        from repro.core.general import GeneralCaseKernel

        ours = GeneralCaseKernel()
        cudnn = ImplicitGemmKernel()
        p = ConvProblem.square(224, 3, channels=64, filters=128)
        assert ours.gflops(p) > cudnn.gflops(p)

    def test_competitive_on_tiny_images(self):
        """Paper Sec. 5.2: only at 32x32 may cuDNN win slightly."""
        from repro.core.general import GeneralCaseKernel

        ours = GeneralCaseKernel()
        cudnn = ImplicitGemmKernel()
        p = ConvProblem.square(32, 3, channels=128, filters=128)
        ratio = ours.gflops(p) / cudnn.gflops(p)
        assert 0.8 < ratio < 1.5
