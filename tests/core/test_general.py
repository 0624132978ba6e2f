"""Tests for the general-case kernel (paper Sec. 4, Algorithm 2)."""

import numpy as np
import pytest

from repro.conv.reference import conv2d_reference
from repro.conv.tensors import ConvProblem, Padding
from repro.core.config import TABLE1_CONFIGS, GeneralCaseConfig
from repro.core.general import GeneralCaseKernel, default_config_for
from repro.errors import ShapeError
from repro.gpu.arch import ARCHITECTURES, FERMI_M2090, KEPLER_K40M

# A small configuration (64 threads = 2 warps) so functional tests cross
# block and filter-group boundaries quickly.
SMALL = GeneralCaseConfig(w=16, h=8, ftb=16, wt=8, ft=4, csh=2)


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_reference(self, rng, k):
        kern = GeneralCaseKernel(config=SMALL)
        img = rng.standard_normal((5, 20, 36)).astype(np.float32)
        flt = rng.standard_normal((10, 5, k, k)).astype(np.float32)
        np.testing.assert_allclose(
            kern.run(img, flt), conv2d_reference(img, flt),
            rtol=1e-3, atol=1e-3,
        )

    def test_same_padding(self, rng):
        kern = GeneralCaseKernel(config=SMALL)
        img = rng.standard_normal((3, 18, 20)).astype(np.float32)
        flt = rng.standard_normal((6, 3, 3, 3)).astype(np.float32)
        np.testing.assert_allclose(
            kern.run(img, flt, padding=Padding.SAME),
            conv2d_reference(img, flt, Padding.SAME),
            rtol=1e-3, atol=1e-3,
        )

    def test_filters_not_multiple_of_ftb(self, rng):
        kern = GeneralCaseKernel(config=SMALL)
        img = rng.standard_normal((2, 12, 16)).astype(np.float32)
        flt = rng.standard_normal((21, 2, 3, 3)).astype(np.float32)  # 21 > FTB=16
        np.testing.assert_allclose(
            kern.run(img, flt), conv2d_reference(img, flt),
            rtol=1e-3, atol=1e-3,
        )

    def test_channels_not_multiple_of_csh(self, rng):
        kern = GeneralCaseKernel(config=SMALL)  # CSH=2
        img = rng.standard_normal((3, 12, 16)).astype(np.float32)
        flt = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        np.testing.assert_allclose(
            kern.run(img, flt), conv2d_reference(img, flt),
            rtol=1e-3, atol=1e-3,
        )

    def test_table1_config_functional(self, rng):
        kern = GeneralCaseKernel()  # Table 1 config for K=3
        img = rng.standard_normal((4, 36, 36)).astype(np.float32)
        flt = rng.standard_normal((8, 4, 3, 3)).astype(np.float32)
        np.testing.assert_allclose(
            kern.run(img, flt), conv2d_reference(img, flt),
            rtol=1e-3, atol=1e-3,
        )

    #: Plain, strided and dilated shapes for every odd filter size.
    PRICELESS_SHAPES = [
        ConvProblem.square(h, k, channels=3, filters=8, **axes)
        for h in (12, 36) for k in (1, 3, 5, 7)
        for axes in ({}, {"stride": 2}, {"dilation": 3})
        if axes.get("dilation", 1) * (k - 1) < h]

    @pytest.mark.parametrize("arch", list(ARCHITECTURES.values()),
                             ids=list(ARCHITECTURES))
    def test_run_prices_nothing(self, arch, rng, monkeypatch):
        # The output does not depend on the configuration, so ``run``
        # only checks it, on every preset.
        def priced(*args, **kwargs):
            raise AssertionError("run priced a configuration")

        monkeypatch.setattr(GeneralCaseKernel, "cost", priced)
        monkeypatch.setattr(GeneralCaseKernel, "floor", priced)
        kernel = GeneralCaseKernel(arch)
        for problem in self.PRICELESS_SHAPES:
            img = rng.standard_normal(problem.image_shape).astype(np.float32)
            flt = rng.standard_normal(problem.filter_shape).astype(
                np.float32)
            np.testing.assert_allclose(
                kernel.run(img, flt, problem=problem),
                conv2d_reference(img, flt, problem=problem),
                rtol=1e-3, atol=1e-3, err_msg=problem.describe())

    def test_channel_mismatch_rejected(self, rng):
        kern = GeneralCaseKernel(config=SMALL)
        with pytest.raises(ShapeError):
            kern.run(rng.standard_normal((2, 12, 16)),
                     rng.standard_normal((4, 3, 3, 3)))

    def test_nonsquare_filter_rejected(self, rng):
        kern = GeneralCaseKernel(config=SMALL)
        with pytest.raises(ShapeError):
            kern.run(rng.standard_normal((2, 12, 16)),
                     rng.standard_normal((4, 2, 3, 5)))


class TestConfigSelection:
    def test_table1_used_for_known_sizes(self):
        kern = GeneralCaseKernel()
        for k in (3, 5, 7):
            p = ConvProblem.square(64, k, channels=8, filters=32)
            assert kern.config_for(p) == TABLE1_CONFIGS[k]

    def test_fallback_for_other_sizes(self):
        assert default_config_for(9, 2).validate(9, 2) is None

    def test_explicit_config_wins(self):
        kern = GeneralCaseKernel(config=SMALL)
        p = ConvProblem.square(64, 3, channels=8, filters=32)
        assert kern.config_for(p) == SMALL

    def test_vector_width_by_architecture(self):
        assert GeneralCaseKernel(KEPLER_K40M).n == 2
        assert GeneralCaseKernel(FERMI_M2090).n == 1


class TestLaunch:
    def test_grid_dimensions(self):
        kern = GeneralCaseKernel()
        p = ConvProblem.square(130, 3, channels=16, filters=128)
        lc = kern.launch_config(p)
        assert lc.grid.x == 2          # ceil(128 / FTB=64)
        assert lc.block.count == 128   # TX*TY for the Table-1 K=3 config

    def test_threads_are_whole_warps(self):
        kern = GeneralCaseKernel()
        p = ConvProblem.square(64, 5, channels=8, filters=64)
        assert kern.launch_config(p).threads_per_block % 32 == 0


class TestTracedCost:
    def test_conflict_free_vectorized_reads(self):
        kern = GeneralCaseKernel()
        p = ConvProblem.square(128, 3, channels=64, filters=128)
        led = kern.cost(p).ledger
        # The transposed filter store is scalar but everything is
        # conflict-free under the hardware policy.
        assert led.smem_conflict_overhead == pytest.approx(1.0)

    def test_writeback_priced_but_small(self):
        kern = GeneralCaseKernel()
        p = ConvProblem.square(128, 3, channels=64, filters=128)
        led = kern.cost(p).ledger
        assert led.gmem_write_bytes_moved > p.output_bytes  # uncoalesced
        assert led.gmem_write_bytes_moved < 4 * p.output_bytes

    def test_flops_cover_nominal(self):
        kern = GeneralCaseKernel()
        p = ConvProblem.square(128, 3, channels=64, filters=128)
        assert kern.cost(p).flops >= p.flops

    def test_sm_traffic_reduction_vs_unblocked(self):
        """Sec. 4.2: image SM reads ~ (WT+K-1)/(WT*K) of one-per-tap."""
        kern = GeneralCaseKernel()
        p = ConvProblem.square(128, 3, channels=64, filters=128)
        led = kern.cost(p).ledger
        cfg = kern.config_for(p)
        img_reads = led.sites["sm.load_image_row[smem.read]"].request_bytes
        # One-per-tap traffic: every FMA round rereads WT pixels.
        per_tap = led.flops / 2 / cfg.ft * 4  # bytes if WT*K*K reads/thread
        assert img_reads < 0.6 * per_tap


class TestPerformanceShape:
    def test_unmatched_slower(self):
        p = ConvProblem.square(128, 3, channels=64, filters=128)
        matched = GeneralCaseKernel().gflops(p)
        unmatched = GeneralCaseKernel(matched=False).gflops(p)
        assert unmatched < matched

    def test_performance_grows_with_channels(self):
        kern = GeneralCaseKernel()
        small = kern.gflops(ConvProblem.square(64, 3, channels=16, filters=64))
        big = kern.gflops(ConvProblem.square(64, 3, channels=256, filters=64))
        assert big > small

    def test_peak_below_machine_peak(self):
        kern = GeneralCaseKernel()
        p = ConvProblem.square(224, 3, channels=256, filters=256)
        gf = kern.gflops(p)
        assert gf < KEPLER_K40M.peak_sp_gflops
        assert gf > 1000  # but solidly in the TFlop/s range
