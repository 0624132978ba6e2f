"""Integration tests: every implemented convolution method computes the
same function, end to end, across the public API."""

import numpy as np
import pytest

import repro
from repro import (
    ConvProblem,
    GeneralCaseKernel,
    Padding,
    SpecialCaseKernel,
    conv2d_reference,
)
from repro.baselines import (
    FFTConvolution,
    Im2colKernel,
    ImplicitGemmKernel,
    NaiveDirectKernel,
    WinogradConvolution,
)
from repro.core.config import GeneralCaseConfig, SpecialCaseConfig
from repro.gpu import timing


ALL_GENERAL_METHODS = [
    ("general", GeneralCaseKernel(config=GeneralCaseConfig(
        w=16, h=8, ftb=16, wt=8, ft=4, csh=2))),
    ("implicit-gemm", ImplicitGemmKernel()),
    ("im2col", Im2colKernel()),
    ("naive", NaiveDirectKernel()),
    ("fft", FFTConvolution()),
    ("winograd", WinogradConvolution()),
]


class TestAllMethodsAgree:
    @pytest.mark.parametrize("name,kernel", ALL_GENERAL_METHODS,
                             ids=[n for n, _ in ALL_GENERAL_METHODS])
    def test_3x3_multichannel(self, rng, name, kernel):
        img = rng.standard_normal((6, 22, 26)).astype(np.float32)
        flt = rng.standard_normal((9, 6, 3, 3)).astype(np.float32)
        expected = conv2d_reference(img, flt)
        np.testing.assert_allclose(kernel.run(img, flt), expected,
                                   rtol=1e-2, atol=1e-2)

    @pytest.mark.parametrize("name,kernel", ALL_GENERAL_METHODS[:4],
                             ids=[n for n, _ in ALL_GENERAL_METHODS[:4]])
    def test_5x5_same_padding(self, rng, name, kernel):
        img = rng.standard_normal((3, 17, 19)).astype(np.float32)
        flt = rng.standard_normal((4, 3, 5, 5)).astype(np.float32)
        expected = conv2d_reference(img, flt, Padding.SAME)
        np.testing.assert_allclose(kernel.run(img, flt, Padding.SAME), expected,
                                   rtol=1e-2, atol=1e-2)

    def test_special_and_general_agree_on_single_channel(self, rng):
        img = rng.standard_normal((24, 40)).astype(np.float32)
        flt = rng.standard_normal((5, 3, 3)).astype(np.float32)
        special = SpecialCaseKernel(
            config=SpecialCaseConfig(block_w=64, block_h=4)).run(img, flt)
        general = GeneralCaseKernel(config=GeneralCaseConfig(
            w=16, h=8, ftb=16, wt=8, ft=4, csh=1)).run(
                img[np.newaxis], flt[:, np.newaxis])
        np.testing.assert_allclose(special, general, rtol=1e-3, atol=1e-3)


class TestCostPipeline:
    """cost() -> TimingModel -> GFlop/s works for every method."""

    @pytest.mark.parametrize("name,kernel", ALL_GENERAL_METHODS,
                             ids=[n for n, _ in ALL_GENERAL_METHODS])
    def test_predict_pipeline(self, name, kernel):
        p = ConvProblem.square(64, 3, channels=16, filters=32)
        tb = kernel.predict(p)
        assert tb.total > 0
        assert kernel.gflops(p) > 0

    def test_lower_compute_efficiency_lowers_the_rate(self, monkeypatch):
        p = ConvProblem.square(64, 3, channels=16, filters=32)
        kern = GeneralCaseKernel()
        fast = kern.gflops(p)
        monkeypatch.setattr(timing, "COMPUTE_EFFICIENCY", 0.35)
        assert kern.gflops(p) < fast


class TestCrossArchitecture:
    def test_kernels_run_on_all_architectures(self, any_arch, rng):
        img = rng.standard_normal((20, 70)).astype(np.float32)
        flt = rng.standard_normal((2, 3, 3)).astype(np.float32)
        kern = SpecialCaseKernel(
            arch=any_arch, config=SpecialCaseConfig(block_w=64, block_h=4))
        expected = conv2d_reference(img, flt)
        np.testing.assert_allclose(kern.run(img, flt), expected,
                                   rtol=1e-3, atol=1e-3)

    def test_matched_vector_differs_by_arch(self):
        assert SpecialCaseKernel(repro.KEPLER_K40M).n == 2
        assert SpecialCaseKernel(repro.FERMI_M2090).n == 1
        assert SpecialCaseKernel(repro.MAXWELL_GM204).n == 1

    def test_bankwidth_ablation_only_bites_on_kepler(self):
        """Forcing n=1 must hurt on Kepler and be a no-op on Fermi."""
        p = ConvProblem.square(1024, 3, channels=1, filters=16)
        kepler_gap = (SpecialCaseKernel(repro.KEPLER_K40M, matched=False).gflops(p)
                      / SpecialCaseKernel(repro.KEPLER_K40M).gflops(p))
        fermi_gap = (SpecialCaseKernel(repro.FERMI_M2090, matched=False).gflops(p)
                     / SpecialCaseKernel(repro.FERMI_M2090).gflops(p))
        assert kepler_gap < 0.95
        assert fermi_gap == pytest.approx(1.0)


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.9.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_snippet(self):
        """The README quickstart must keep working verbatim."""
        image = np.random.rand(64, 64).astype(np.float32)
        sobel = np.array([[1, 0, -1], [2, 0, -2], [1, 0, -1]], np.float32)
        kernel = repro.SpecialCaseKernel()
        edges = kernel.run(image, sobel)
        assert edges.shape == (1, 62, 62)
        problem = repro.ConvProblem.square(64, 3, channels=1, filters=1)
        assert kernel.gflops(problem) > 0
