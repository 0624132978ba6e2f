"""Tests for the Sec. 6 extensions: short-data-type kernels and
per-problem (adaptive) configuration selection by ``best_config``."""

import numpy as np
import pytest

from repro.baselines.implicit_gemm import ImplicitGemmKernel
from repro.conv.reference import conv2d_single_channel
from repro.conv.tensors import ConvProblem
from repro.core.bankwidth import DataType
from repro.core.config import TABLE1_CONFIGS
from repro.core.dse import best_config
from repro.core.general import SMALL_IMAGE_CONFIGS, GeneralCaseKernel, palette
from repro.core.special import SpecialCaseKernel
from repro.errors import ConfigurationError, ReproError
from repro.gpu.arch import ARCHITECTURES, FERMI_M2090, KEPLER_K40M, MAXWELL_GM204
from repro.kernels import default_registry
from repro.serve.trace import SHAPE_FAMILIES


class TestShortDtypeKernels:
    def test_vector_width_by_dtype(self):
        assert SpecialCaseKernel(dtype=DataType.FLOAT).n == 2
        assert SpecialCaseKernel(dtype=DataType.HALF).n == 4
        assert SpecialCaseKernel(dtype=DataType.CHAR).n == 8
        assert SpecialCaseKernel(MAXWELL_GM204, dtype=DataType.HALF).n == 2

    def test_functional_execution_unchanged(self, rng):
        # dtype parameterizes the cost model; results stay float32-exact.
        img = rng.standard_normal((20, 260)).astype(np.float32)
        flt = rng.standard_normal((2, 3, 3)).astype(np.float32)
        out = SpecialCaseKernel(dtype=DataType.HALF).run(img, flt)
        np.testing.assert_allclose(out, conv2d_single_channel(img, flt),
                                   rtol=1e-4, atol=1e-4)

    def test_half_halves_dram_traffic(self):
        p = ConvProblem.square(2048, 3, channels=1, filters=8)
        f32 = SpecialCaseKernel(dtype=DataType.FLOAT).cost(p).ledger
        f16 = SpecialCaseKernel(dtype=DataType.HALF).cost(p).ledger
        ratio = f16.gmem_read_bytes_moved / f32.gmem_read_bytes_moved
        assert ratio == pytest.approx(0.5, rel=0.1)

    def test_half_conv_faster_when_memory_bound(self):
        p = ConvProblem.square(2048, 3, channels=1, filters=8)
        f32 = SpecialCaseKernel(dtype=DataType.FLOAT).gflops(p)
        f16 = SpecialCaseKernel(dtype=DataType.HALF).gflops(p)
        assert f16 > 1.3 * f32

    def test_unmatched_penalty_grows_with_mismatch(self):
        """Sec. 6's point: the model matters MORE for short dtypes."""
        p = ConvProblem.square(2048, 3, channels=1, filters=32)

        def penalty(dtype):
            m = SpecialCaseKernel(dtype=dtype).gflops(p)
            u = SpecialCaseKernel(dtype=dtype, matched=False).gflops(p)
            return 1 - u / m

        assert penalty(DataType.CHAR) > penalty(DataType.HALF) > \
            penalty(DataType.FLOAT) > 0

    def test_half_benefits_maxwell_too(self):
        p = ConvProblem.square(2048, 3, channels=1, filters=32)
        m = SpecialCaseKernel(MAXWELL_GM204, dtype=DataType.HALF).gflops(p)
        u = SpecialCaseKernel(MAXWELL_GM204, dtype=DataType.HALF,
                              matched=False).gflops(p)
        assert m > u

    def test_general_kernel_accepts_dtype(self, rng):
        p = ConvProblem.square(128, 3, channels=64, filters=128)
        half = GeneralCaseKernel(dtype=DataType.HALF)
        assert half.n == 4
        assert half.gflops(p) > 0
        img = rng.standard_normal((2, 12, 16)).astype(np.float32)
        flt = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        from repro.conv.reference import conv2d_reference
        from repro.core.config import GeneralCaseConfig

        cfg = GeneralCaseConfig(w=16, h=8, ftb=16, wt=8, ft=4, csh=2)
        kern = GeneralCaseKernel(config=cfg, dtype=DataType.HALF)
        np.testing.assert_allclose(kern.run(img, flt),
                                   conv2d_reference(img, flt),
                                   rtol=1e-3, atol=1e-3)


#: The ``ablation-adaptive-config`` rows: (N, C, F, K).
ABLATION_ROWS = ((32, 128, 128, 3), (32, 256, 256, 7), (64, 128, 128, 5),
                 (128, 128, 128, 3))


def adaptive(problem, arch=KEPLER_K40M):
    """The general kernel at ``problem``'s own ``best_config`` pick."""
    return GeneralCaseKernel(
        arch, config=best_config(problem, arch, case="general").config)


class TestAdaptiveConfig:
    def test_table1_for_large_images(self):
        p = ConvProblem.square(224, 3, channels=64, filters=128)
        assert best_config(p, case="general").config == TABLE1_CONFIGS[3]

    def test_narrow_config_chosen_for_tiny_images(self):
        p = ConvProblem.square(32, 7, channels=256, filters=256)
        cfg = best_config(p, case="general").config
        assert cfg.w < TABLE1_CONFIGS[7].w

    def test_adaptive_never_worse_than_fixed(self):
        fixed = GeneralCaseKernel()
        for n, c, f, k in ((32, 128, 128, 3), (32, 256, 256, 7),
                           (64, 128, 128, 5), (128, 64, 128, 3)):
            p = ConvProblem.square(n, k, channels=c, filters=f)
            assert adaptive(p).gflops(p) >= 0.999 * fixed.gflops(p)

    def test_adaptive_fixes_small_image_losses(self):
        """The paper's 32x32 caveat disappears with per-problem tiles:
        on every ablation row the adaptive kernel is at least as fast as
        cuDNN."""
        cudnn = ImplicitGemmKernel()
        for n, c, f, k in ABLATION_ROWS:
            p = ConvProblem.square(n, k, channels=c, filters=f)
            assert adaptive(p).gflops(p) >= cudnn.gflops(p), p.describe()

    def test_adaptive_functional_still_correct(self, rng):
        img = rng.standard_normal((3, 20, 20)).astype(np.float32)
        flt = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        from repro.conv.reference import conv2d_reference

        p = ConvProblem.from_arrays(img, flt)
        np.testing.assert_allclose(adaptive(p).run(img, flt),
                                   conv2d_reference(img, flt),
                                   rtol=1e-3, atol=1e-3)

    def test_palette_configs_all_valid(self):
        for cfg in SMALL_IMAGE_CONFIGS:
            cfg.validate(3, 2, KEPLER_K40M.warp_size)


#: Ungrouped multi-channel shapes: the ablation rows, the mixed serving
#: family's, and a plain and a strided shape for every filter size 1-7.
PICK_SHAPES = (
    [ConvProblem.square(n, k, channels=c, filters=f)
     for n, c, f, k in ABLATION_ROWS]
    + [p for p in SHAPE_FAMILIES["mixed"]
       if p.channels > 1 and p.groups == 1]
    + [ConvProblem.square(24 + 4 * k, k, channels=6, filters=12, **axes)
       for k in range(1, 8) for axes in ({}, {"stride": 2})])


def exhaustive_pick(arch, problem):
    """The palette configuration an exhaustive loop picks: every one
    priced by the general kernel at it, the highest GFlop/s winning and
    the earliest on a tie; None when none prices."""
    best = None
    for cfg in palette(problem.kernel_size, GeneralCaseKernel(arch).n):
        try:
            gflops = GeneralCaseKernel(arch=arch, config=cfg).gflops(problem)
        except ReproError:
            continue
        if best is None or gflops > best[0]:
            best = (gflops, cfg)
    return None if best is None else best[1]


class TestBestConfigPick:
    """``best_config`` picks with the bounded search serving runs, over
    the same palette, and answers the exhaustive argmin."""

    @pytest.mark.parametrize("arch", list(ARCHITECTURES.values()),
                             ids=list(ARCHITECTURES))
    def test_picks_the_exhaustive_argmin_and_what_serving_picks(self, arch):
        backend = default_registry().get("general")
        picked = 0
        for problem in PICK_SHAPES:
            expected = exhaustive_pick(arch, problem)
            if expected is None:
                with pytest.raises(ConfigurationError,
                                   match="no valid general-case"):
                    best_config(problem, arch, case="general")
                continue
            assert best_config(problem, arch, case="general").config \
                == expected == backend.configure(problem, arch)[0], \
                problem.describe()
            picked += 1
        # Fermi's 63 registers per thread fit a palette configuration
        # only at K=1.
        fits = 1 if arch is FERMI_M2090 else len(PICK_SHAPES)
        assert picked == fits
