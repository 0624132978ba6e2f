"""Tests for minibatch execution."""

import numpy as np
import pytest

from repro.baselines.fft_conv import FFTConvolution
from repro.conv.batching import BatchedKernel
from repro.conv.reference import conv2d_reference
from repro.conv.tensors import ConvProblem
from repro.core.config import GeneralCaseConfig
from repro.core.general import GeneralCaseKernel
from repro.errors import ConfigurationError, ShapeError

SMALL = GeneralCaseConfig(w=16, h=8, ftb=16, wt=8, ft=4, csh=2)


class TestFunctional:
    def test_batched_results_match_per_image(self, rng):
        imgs = rng.standard_normal((3, 2, 14, 14)).astype(np.float32)
        flt = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        batched = BatchedKernel(GeneralCaseKernel(config=SMALL), 3)
        out = batched.run(imgs, flt)
        assert out.shape == (3, 4, 12, 12)
        for b in range(3):
            np.testing.assert_allclose(out[b], conv2d_reference(imgs[b], flt),
                                       rtol=1e-3, atol=1e-3)

    def test_single_channel_promotion(self, rng):
        imgs = rng.standard_normal((2, 14, 14)).astype(np.float32)
        flt = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
        out = BatchedKernel(GeneralCaseKernel(config=SMALL), 2).run(imgs, flt)
        assert out.shape == (2, 1, 12, 12)

    def test_wrong_batch_rejected(self, rng):
        imgs = rng.standard_normal((2, 1, 14, 14)).astype(np.float32)
        flt = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
        with pytest.raises(ShapeError):
            BatchedKernel(GeneralCaseKernel(config=SMALL), 3).run(imgs, flt)

    def test_nonpositive_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchedKernel(GeneralCaseKernel(), 0)


class TestCost:
    def test_ledger_scales_linearly(self):
        p = ConvProblem.square(64, 3, channels=16, filters=64)
        one = BatchedKernel(GeneralCaseKernel(), 1).cost(p)
        eight = BatchedKernel(GeneralCaseKernel(), 8).cost(p)
        assert eight.flops == pytest.approx(8 * one.flops)
        assert eight.launch.total_blocks == 8 * one.launch.total_blocks

    def test_batching_improves_small_image_throughput(self):
        """Small-image launches underfill the machine; the batch fills it."""
        p = ConvProblem.square(32, 3, channels=64, filters=64)
        single = BatchedKernel(GeneralCaseKernel(), 1).gflops(p)
        batched = BatchedKernel(GeneralCaseKernel(), 32).gflops(p)
        assert batched > single

    def test_direct_kernel_batch_insensitive_when_large(self):
        p = ConvProblem.square(224, 3, channels=64, filters=128)
        single = BatchedKernel(GeneralCaseKernel(), 1).gflops(p)
        batched = BatchedKernel(GeneralCaseKernel(), 16).gflops(p)
        assert batched == pytest.approx(single, rel=0.1)

    def test_fft_amortizes_filter_transforms(self):
        p = ConvProblem.square(64, 5, channels=128, filters=128)
        fft = FFTConvolution()
        per_image_1 = fft.batched_cost(p, 1).flops
        per_image_32 = fft.batched_cost(p, 32).flops / 32
        assert per_image_32 < 0.5 * per_image_1

    def test_time_per_image_decreases_for_fft(self):
        p = ConvProblem.square(64, 5, channels=128, filters=128)
        t1 = BatchedKernel(FFTConvolution(), 1).predict(p).total
        t32 = BatchedKernel(FFTConvolution(), 32).predict(p).total / 32
        assert t32 < t1
