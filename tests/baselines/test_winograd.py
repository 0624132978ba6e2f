"""Tests for Winograd F(2x2, 3x3) convolution."""

import numpy as np
import pytest

from repro.baselines.winograd import WinogradConvolution
from repro.conv.reference import conv2d_reference
from repro.conv.tensors import ConvProblem, Padding
from repro.errors import ConfigurationError


@pytest.fixture
def kernel():
    return WinogradConvolution()


class TestFunctional:
    def test_matches_reference(self, rng, kernel):
        img = rng.standard_normal((3, 18, 22)).astype(np.float32)
        flt = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        np.testing.assert_allclose(
            kernel.run(img, flt), conv2d_reference(img, flt),
            rtol=1e-3, atol=1e-3,
        )

    def test_odd_output_extent(self, rng, kernel):
        # 15x15 output: the last 2x2 tile is clipped.
        img = rng.standard_normal((1, 17, 17)).astype(np.float32)
        flt = rng.standard_normal((2, 1, 3, 3)).astype(np.float32)
        np.testing.assert_allclose(
            kernel.run(img, flt), conv2d_reference(img, flt),
            rtol=1e-3, atol=1e-3,
        )

    def test_same_padding(self, rng, kernel):
        img = rng.standard_normal((2, 12, 12)).astype(np.float32)
        flt = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        np.testing.assert_allclose(
            kernel.run(img, flt, Padding.SAME),
            conv2d_reference(img, flt, Padding.SAME),
            rtol=1e-3, atol=1e-3,
        )

    def test_rejects_non_3x3(self, rng, kernel):
        with pytest.raises(ConfigurationError):
            kernel.run(rng.standard_normal((1, 10, 10)),
                       rng.standard_normal((1, 1, 5, 5)))


class TestCostModel:
    def test_filter_blowup_is_16_over_9(self, kernel):
        p = ConvProblem.square(64, 3, channels=4, filters=8)
        assert kernel.transformed_filter_bytes(p) == \
            pytest.approx(p.filter_bytes * 16 / 9)

    def test_flop_count_below_direct_for_deep_layers(self, kernel):
        p = ConvProblem.square(56, 3, channels=256, filters=256)
        assert kernel.flop_count(p) < p.flops

    def test_rejects_flop_count_for_non_3x3(self, kernel):
        with pytest.raises(ConfigurationError):
            kernel.flop_count(ConvProblem.square(64, 5, channels=4, filters=4))

    def test_beats_direct_on_3x3_deep_layers(self, kernel):
        """The paper's motivation for mentioning Winograd: on 3x3 it can
        be faster than any direct method (in effective direct-flops)."""
        from repro.core.general import GeneralCaseKernel

        p = ConvProblem.square(56, 3, channels=256, filters=256)
        assert kernel.gflops(p) > GeneralCaseKernel().gflops(p)


class TestF4x4:
    def test_matches_reference(self, rng):
        kern = WinogradConvolution(tile=4)
        img = rng.standard_normal((3, 20, 24)).astype(np.float32)
        flt = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        np.testing.assert_allclose(
            kern.run(img, flt), conv2d_reference(img, flt),
            rtol=1e-2, atol=1e-2,
        )

    def test_filter_blowup_is_36_over_9(self):
        kern = WinogradConvolution(tile=4)
        p = ConvProblem.square(64, 3, channels=4, filters=8)
        assert kern.transformed_filter_bytes(p) == \
            pytest.approx(p.filter_bytes * 36 / 9)

    def test_faster_than_f2x2_on_deep_layers(self):
        p = ConvProblem.square(56, 3, channels=256, filters=256)
        f2 = WinogradConvolution(tile=2).gflops(p)
        f4 = WinogradConvolution(tile=4).gflops(p)
        assert f4 > f2

    def test_invalid_tile_rejected(self):
        with pytest.raises(ConfigurationError):
            WinogradConvolution(tile=3)

    def test_odd_extents_clipped_correctly(self, rng):
        kern = WinogradConvolution(tile=4)
        img = rng.standard_normal((1, 13, 15)).astype(np.float32)
        flt = rng.standard_normal((2, 1, 3, 3)).astype(np.float32)
        np.testing.assert_allclose(
            kern.run(img, flt), conv2d_reference(img, flt),
            rtol=1e-2, atol=1e-2,
        )
