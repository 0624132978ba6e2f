"""Tests for FFT-based convolution."""

import numpy as np
import pytest

from repro.baselines.fft_conv import FFTConvolution
from repro.conv.reference import conv2d_reference
from repro.conv.tensors import ConvProblem, Padding
from repro.errors import ShapeError


@pytest.fixture
def kernel():
    return FFTConvolution()


class TestFunctional:
    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_matches_reference(self, rng, kernel, k):
        img = rng.standard_normal((2, 20, 24)).astype(np.float32)
        flt = rng.standard_normal((3, 2, k, k)).astype(np.float32)
        np.testing.assert_allclose(
            kernel.run(img, flt), conv2d_reference(img, flt),
            rtol=1e-2, atol=1e-3,
        )

    def test_same_padding(self, rng, kernel):
        img = rng.standard_normal((1, 16, 16)).astype(np.float32)
        flt = rng.standard_normal((2, 1, 3, 3)).astype(np.float32)
        np.testing.assert_allclose(
            kernel.run(img, flt, Padding.SAME),
            conv2d_reference(img, flt, Padding.SAME),
            rtol=1e-2, atol=1e-3,
        )

    def test_channel_mismatch_rejected(self, rng, kernel):
        with pytest.raises(ShapeError):
            kernel.run(rng.standard_normal((2, 8, 8)),
                       rng.standard_normal((1, 3, 3, 3)))


class TestCostModel:
    def test_flops_grow_slower_than_direct_for_big_k(self, kernel):
        p_small = ConvProblem.square(256, 3, channels=4, filters=4)
        p_big = ConvProblem.square(256, 7, channels=4, filters=4)
        fft_growth = kernel.flop_count(p_big) / kernel.flop_count(p_small)
        direct_growth = p_big.flops / p_small.flops
        assert fft_growth < direct_growth

    def test_loses_to_direct_for_small_filters_batch_one(self, kernel):
        """Paper Sec. 1: at batch 1 with small filters the filter
        transforms dominate and FFT convolution is not competitive."""
        from repro.core.general import GeneralCaseKernel

        p = ConvProblem.square(128, 3, channels=64, filters=128)
        assert kernel.gflops(p) < GeneralCaseKernel().gflops(p)
