"""Tests for the blocked GEMM kernels (paper Fig. 2)."""

import numpy as np
import pytest

from repro.baselines.gemm import (
    CUBLAS_KEPLER_TILING,
    MAGMA_FERMI_TILING,
    MAGMA_MATCHED_TILING,
    GemmShape,
    GemmTiling,
    TiledGemmKernel,
    cublas_like_gemm,
    magma_fermi_gemm,
    magma_matched_gemm,
)
from repro.errors import ConfigurationError, ShapeError
from repro.gpu.arch import FERMI_M2090, KEPLER_K40M


class TestFunctional:
    @pytest.mark.parametrize("tiling", [MAGMA_FERMI_TILING, CUBLAS_KEPLER_TILING])
    def test_matches_numpy(self, rng, tiling):
        kern = TiledGemmKernel(tiling)
        a = rng.standard_normal((100, 70)).astype(np.float32)
        b = rng.standard_normal((70, 130)).astype(np.float32)
        np.testing.assert_allclose(kern.run(a, b), a @ b, rtol=1e-3, atol=1e-3)

    def test_tile_aligned_shapes(self, rng):
        kern = TiledGemmKernel(MAGMA_FERMI_TILING)
        a = rng.standard_normal((128, 64)).astype(np.float32)
        b = rng.standard_normal((64, 128)).astype(np.float32)
        np.testing.assert_allclose(kern.run(a, b), a @ b, rtol=1e-3, atol=1e-3)

    def test_incompatible_shapes_rejected(self, rng):
        kern = TiledGemmKernel(MAGMA_FERMI_TILING)
        with pytest.raises(ShapeError):
            kern.run(np.ones((4, 5)), np.ones((6, 4)))


class TestTilingValidation:
    def test_tm_not_divisible_by_n(self):
        with pytest.raises(ConfigurationError):
            GemmTiling(bm=64, bn=64, bk=8, tm=3, tn=4, n=2)

    def test_bm_not_divisible_by_tm(self):
        with pytest.raises(ConfigurationError):
            GemmTiling(bm=60, bn=64, bk=8, tm=8, tn=4)

    def test_thread_counts(self):
        assert CUBLAS_KEPLER_TILING.threads == 256
        assert MAGMA_FERMI_TILING.threads == 256

    def test_magma_tilings_differ_only_in_n(self):
        a, b = MAGMA_FERMI_TILING, MAGMA_MATCHED_TILING
        assert (a.bm, a.bn, a.bk, a.tm, a.tn) == (b.bm, b.bn, b.bk, b.tm, b.tn)
        assert (a.n, b.n) == (1, 2)


class TestFig2Shape:
    """The qualitative content of the paper's Fig. 2."""

    def test_magma_much_slower_on_kepler(self):
        s = GemmShape.square(4096)
        ratio = magma_fermi_gemm().time_ms(s) / cublas_like_gemm().time_ms(s)
        # Paper: 2.4x.  Accept the right regime.
        assert 1.6 < ratio < 3.2

    def test_matching_saves_large_fraction(self):
        s = GemmShape.square(4096)
        t_magma = magma_fermi_gemm().time_ms(s)
        t_mod = magma_matched_gemm().time_ms(s)
        saving = 1 - t_mod / t_magma
        # Paper: 36% average saving.
        assert 0.25 < saving < 0.55

    def test_magma_competitive_on_fermi(self):
        # MAGMA was tuned for Fermi: its kernel must not collapse there.
        s = GemmShape.square(4096)
        ratio = magma_fermi_gemm(FERMI_M2090).time_ms(s) / \
            cublas_like_gemm(FERMI_M2090).time_ms(s)
        assert ratio < 1.25

    def test_matched_mod_helps_nothing_on_fermi(self):
        # On 4-byte banks float is already matched; float2 cannot win big.
        s = GemmShape.square(4096)
        t_plain = magma_fermi_gemm(FERMI_M2090).time_ms(s)
        t_mod = magma_matched_gemm(FERMI_M2090).time_ms(s)
        assert t_mod > 0.8 * t_plain

    def test_time_grows_with_dimension(self):
        kern = cublas_like_gemm()
        times = [kern.time_ms(GemmShape.square(d)) for d in (2048, 4096, 8192)]
        assert times[0] < times[1] < times[2]

    def test_gflops_sane(self):
        gf = cublas_like_gemm().gflops(GemmShape.square(4096))
        assert 1500 < gf < KEPLER_K40M.peak_sp_gflops


class TestCost:
    def test_writeback_efficient(self):
        led = cublas_like_gemm().cost(GemmShape.square(1024)).ledger
        assert led.gmem_write_request_bytes > 0.9 * led.gmem_write_bytes_moved

    def test_smem_conflict_free(self):
        cost = cublas_like_gemm().cost(GemmShape.square(1024))
        assert cost.ledger.smem_conflict_overhead == pytest.approx(1.0)

    def test_unmatched_doubles_operand_requests(self):
        s = GemmShape.square(1024)
        plain = magma_fermi_gemm().cost(s).ledger
        matched = magma_matched_gemm().cost(s).ledger
        assert plain.smem_cycles == pytest.approx(2 * matched.smem_cycles, rel=0.2)

    def test_flops_exact_for_aligned_shape(self):
        s = GemmShape.square(2048)
        assert cublas_like_gemm().cost(s).flops == pytest.approx(s.flops)

    def test_register_clamp_on_fermi(self):
        lc = cublas_like_gemm(FERMI_M2090).launch_config(GemmShape.square(1024))
        assert lc.registers_per_thread <= FERMI_M2090.max_registers_per_thread
