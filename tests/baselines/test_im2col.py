"""Tests for explicit im2col + GEMM convolution."""

import numpy as np
import pytest

from repro.baselines.im2col import Im2colKernel, im2col_matrix
from repro.conv.reference import conv2d_reference
from repro.conv.tensors import ConvProblem, Padding
from repro.errors import ShapeError


class TestLowering:
    def test_matrix_shape(self, rng):
        img = rng.standard_normal((3, 10, 12)).astype(np.float32)
        m = im2col_matrix(img, 3)
        assert m.shape == (27, 8 * 10)

    def test_rows_are_shifted_windows(self, rng):
        img = rng.standard_normal((1, 6, 6)).astype(np.float32)
        m = im2col_matrix(img, 3)
        # Row (ky=1, kx=2) equals the image shifted by (1, 2).
        row = m[1 * 3 + 2].reshape(4, 4)
        np.testing.assert_array_equal(row, img[0, 1:5, 2:6])

    def test_gemm_on_lowered_equals_convolution(self, rng):
        img = rng.standard_normal((2, 9, 9)).astype(np.float32)
        flt = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        m = im2col_matrix(img, 3)
        out = (flt.reshape(4, -1) @ m).reshape(4, 7, 7)
        np.testing.assert_allclose(out, conv2d_reference(img, flt),
                                   rtol=1e-4, atol=1e-4)

    def test_k1_is_flattened_image(self, rng):
        img = rng.standard_normal((2, 4, 4)).astype(np.float32)
        m = im2col_matrix(img, 1)
        np.testing.assert_array_equal(m, img.reshape(2, -1))

    def test_oversized_kernel_rejected(self, rng):
        with pytest.raises(ShapeError):
            im2col_matrix(rng.standard_normal((1, 4, 4)), 5)


class TestKernel:
    def test_functional(self, rng):
        kern = Im2colKernel()
        img = rng.standard_normal((3, 16, 20)).astype(np.float32)
        flt = rng.standard_normal((5, 3, 5, 5)).astype(np.float32)
        np.testing.assert_allclose(
            kern.run(img, flt), conv2d_reference(img, flt),
            rtol=1e-3, atol=1e-3,
        )

    def test_same_padding(self, rng):
        kern = Im2colKernel()
        img = rng.standard_normal((2, 12, 12)).astype(np.float32)
        flt = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        np.testing.assert_allclose(
            kern.run(img, flt, Padding.SAME),
            conv2d_reference(img, flt, Padding.SAME),
            rtol=1e-3, atol=1e-3,
        )

    def test_cost_includes_two_launches(self):
        p = ConvProblem.square(64, 3, channels=16, filters=64)
        assert Im2colKernel().cost(p).launches == 2

    def test_slower_than_implicit_gemm_on_big_problems(self):
        """The extra GM round trip for the lowered matrix costs real
        bandwidth on bandwidth-heavy problems."""
        from repro.baselines.implicit_gemm import ImplicitGemmKernel

        p = ConvProblem.square(224, 3, channels=32, filters=64)
        im2col = Im2colKernel().gflops(p)
        implicit = ImplicitGemmKernel().gflops(p)
        assert im2col < 1.3 * implicit
