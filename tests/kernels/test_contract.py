"""The one input contract every kernel reads its arrays through.

``ConvProblem.from_arrays(image, filters, padding)`` turns a positional
array pair into a default-axes problem with ``conv2d_reference``'s
promotions and checks.  Its rule: if the reference accepts a pair,
every kernel whose capability covers the resulting problem accepts it
and computes; if the reference rejects a pair, every kernel raises
``ShapeError``.  A kernel's capability limits keep their own class
(Winograd's non-3x3 ``ConfigurationError``, the special kernel's
multi-channel ``ShapeError``).
"""

import numpy as np
import pytest

from repro.baselines.direct_naive import NaiveDirectKernel
from repro.baselines.fft_conv import FFTConvolution
from repro.baselines.im2col import Im2colKernel
from repro.baselines.implicit_gemm import ImplicitGemmKernel
from repro.baselines.winograd import WinogradConvolution
from repro.conv.reference import conv2d_reference
from repro.conv.tensors import ConvProblem, Padding
from repro.core.config import GeneralCaseConfig, SpecialCaseConfig
from repro.core.depthwise import DepthwiseKernel
from repro.core.general import GeneralCaseKernel
from repro.core.special import SpecialCaseKernel
from repro.errors import ConfigurationError, ShapeError
from repro.gpu.fastsim import FastGeneralKernel, FastSpecialKernel

SPECIAL = SpecialCaseConfig(block_w=64, block_h=4)
GENERAL = GeneralCaseConfig(w=16, h=4, ftb=8, wt=8, ft=2, csh=1)

KERNELS = {
    "special": SpecialCaseKernel(config=SPECIAL),
    "general": GeneralCaseKernel(config=GENERAL),
    "depthwise": DepthwiseKernel(config=SPECIAL),
    "naive": NaiveDirectKernel(),
    "im2col": Im2colKernel(),
    "implicit-gemm": ImplicitGemmKernel(),
    "fft": FFTConvolution(),
    "winograd": WinogradConvolution(),
}

#: The fast simulators' ``run_traced`` reads its arrays the same way.
TRACED = {
    "fast-special": FastSpecialKernel(config=SPECIAL),
    "fast-general": FastGeneralKernel(config=GENERAL),
}

#: (image shape, filter shape) pairs the reference rejects.
MALFORMED = {
    "channel-mismatch": ((2, 12, 12), (4, 3, 3, 3)),
    "non-square-filter": ((12, 12), (4, 3, 2)),
    "1-d-filter": ((12, 12), (3,)),
    "4-d-image": ((1, 2, 12, 12), (4, 2, 3, 3)),
    "filter-larger-than-image": ((2, 2), (1, 3, 3)),
}


def _arrays(image_shape, filter_shape, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(image_shape).astype(np.float32),
            rng.standard_normal(filter_shape).astype(np.float32))


class TestMalformed:
    @pytest.mark.parametrize("case", MALFORMED)
    def test_reference_and_contract_reject(self, case):
        image, filters = _arrays(*MALFORMED[case])
        with pytest.raises(ShapeError) as ref:
            conv2d_reference(image, filters)
        with pytest.raises(ShapeError) as contract:
            ConvProblem.from_arrays(image, filters)
        assert str(contract.value) == str(ref.value)

    @pytest.mark.parametrize("case", MALFORMED)
    @pytest.mark.parametrize("name", KERNELS)
    def test_every_kernel_raises_shape_error(self, name, case):
        image, filters = _arrays(*MALFORMED[case])
        with pytest.raises(ShapeError):
            KERNELS[name].run(image, filters)

    @pytest.mark.parametrize("case", MALFORMED)
    @pytest.mark.parametrize("name", TRACED)
    def test_fast_kernels_raise_shape_error(self, name, case):
        image, filters = _arrays(*MALFORMED[case])
        with pytest.raises(ShapeError):
            TRACED[name].run_traced(image, filters)


#: (image shape, filter shape) pairs the reference accepts: every
#: promotion of a 2-D image and 2-D or 3-D filters.
WELL_FORMED = {
    "2d-image-2d-filter": ((12, 20), (3, 3)),
    "2d-image-3d-filters": ((12, 20), (4, 3, 3)),
    "3d-image-2d-filter": ((1, 12, 20), (3, 3)),
    "3d-image-3d-filters": ((1, 12, 20), (4, 3, 3)),
    "3d-image-4d-filters": ((1, 12, 20), (4, 1, 5, 5)),
    "multichannel": ((3, 12, 20), (4, 3, 3, 3)),
}


def _capability_error(name, problem):
    """The class a kernel's capability check raises for ``problem``
    given positionally, or None when the kernel computes it."""
    if name == "special" and problem.channels != 1:
        return ShapeError
    if name == "depthwise" and problem.channels != 1:
        # Positional depthwise filters carry one channel per group.
        return ShapeError
    if name == "winograd" and problem.kernel_size != 3:
        return ConfigurationError
    return None


class TestWellFormed:
    @pytest.mark.parametrize("case", WELL_FORMED)
    def test_contract_states_the_reference_problem(self, case):
        image_shape, filter_shape = WELL_FORMED[case]
        image, filters = _arrays(image_shape, filter_shape)
        problem = ConvProblem.from_arrays(image, filters, Padding.SAME)
        assert problem.has_default_axes
        assert problem.padding is Padding.SAME
        assert problem.image_shape[1:] == image_shape[-2:]
        assert problem.kernel_size == filter_shape[-1]
        np.testing.assert_array_equal(
            conv2d_reference(image, filters, Padding.SAME),
            conv2d_reference(image, filters, problem=problem))

    @pytest.mark.parametrize("case", WELL_FORMED)
    @pytest.mark.parametrize("name", KERNELS)
    def test_covered_kernels_compute(self, name, case):
        image, filters = _arrays(*WELL_FORMED[case])
        problem = ConvProblem.from_arrays(image, filters)
        error = _capability_error(name, problem)
        if error is not None:
            with pytest.raises(error):
                KERNELS[name].run(image, filters)
            return
        tol = 1e-3 if name in ("fft", "winograd") else 1e-5
        np.testing.assert_allclose(
            KERNELS[name].run(image, filters),
            conv2d_reference(image, filters), rtol=tol, atol=tol)


def test_depthwise_positional_form_takes_one_group_per_channel():
    image, filters = _arrays((3, 12, 20), (6, 1, 3, 3))
    problem = ConvProblem(height=12, width=20, channels=3, filters=6,
                          kernel_size=3, groups=3)
    for flt in (filters, filters[:, 0]):
        np.testing.assert_array_equal(
            DepthwiseKernel(config=SPECIAL).run(image, flt),
            DepthwiseKernel(config=SPECIAL).run(image, filters,
                                                problem=problem))
