"""Tests for the reference convolution against scipy, by hand, and
against the per-image tap loop it replaced."""

import numpy as np
import pytest
from scipy.signal import correlate2d

from repro.conv.reference import conv2d_reference, conv2d_single_channel
from repro.conv.tensors import ConvProblem, Layout, Padding
from repro.errors import ShapeError
from repro.serve.trace import (
    DEFAULT_SERVING_SHAPES,
    GENERALIZED_SERVING_SHAPES,
)


class TestAgainstScipy:
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_single_channel_valid(self, rng, k):
        img = rng.standard_normal((20, 24)).astype(np.float32)
        flt = rng.standard_normal((k, k)).astype(np.float32)
        ours = conv2d_single_channel(img, flt)
        ref = correlate2d(img, flt, mode="valid")
        np.testing.assert_allclose(ours[0], ref, rtol=1e-4, atol=1e-4)

    def test_multi_channel_sums_channels(self, rng):
        img = rng.standard_normal((3, 16, 16)).astype(np.float32)
        flt = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        out = conv2d_reference(img, flt)
        for f in range(2):
            ref = sum(
                correlate2d(img[c], flt[f, c], mode="valid") for c in range(3)
            )
            np.testing.assert_allclose(out[f], ref, rtol=1e-4, atol=1e-4)

    def test_same_padding(self, rng):
        img = rng.standard_normal((10, 10)).astype(np.float32)
        flt = rng.standard_normal((3, 3)).astype(np.float32)
        ours = conv2d_single_channel(img, flt, padding=Padding.SAME)
        ref = correlate2d(img, flt, mode="same")
        np.testing.assert_allclose(ours[0], ref, rtol=1e-4, atol=1e-4)


class TestAlgebra:
    def test_delta_filter_is_identity(self, rng):
        img = rng.standard_normal((12, 12)).astype(np.float32)
        delta = np.zeros((3, 3), dtype=np.float32)
        delta[0, 0] = 1.0
        out = conv2d_single_channel(img, delta)
        np.testing.assert_allclose(out[0], img[:10, :10])

    def test_linearity_in_filters(self, rng):
        img = rng.standard_normal((10, 10)).astype(np.float32)
        f1 = rng.standard_normal((3, 3)).astype(np.float32)
        f2 = rng.standard_normal((3, 3)).astype(np.float32)
        lhs = conv2d_single_channel(img, f1 + f2)
        rhs = conv2d_single_channel(img, f1) + conv2d_single_channel(img, f2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-4, atol=1e-4)

    def test_ones_filter_is_box_sum(self):
        img = np.ones((6, 6), dtype=np.float32)
        out = conv2d_single_channel(img, np.ones((3, 3), dtype=np.float32))
        np.testing.assert_allclose(out[0], np.full((4, 4), 9.0))

    def test_k1_is_scaling(self, rng):
        img = rng.standard_normal((8, 8)).astype(np.float32)
        out = conv2d_single_channel(img, np.array([[2.0]], dtype=np.float32))
        np.testing.assert_allclose(out[0], 2.0 * img)


class TestShapes:
    def test_rectangular_image(self, rng):
        img = rng.standard_normal((2, 9, 17)).astype(np.float32)
        flt = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        assert conv2d_reference(img, flt).shape == (4, 7, 15)

    def test_channel_mismatch_rejected(self, rng):
        img = rng.standard_normal((2, 8, 8)).astype(np.float32)
        flt = rng.standard_normal((1, 3, 3, 3)).astype(np.float32)
        with pytest.raises(ShapeError):
            conv2d_reference(img, flt)

    def test_nonsquare_filter_rejected(self, rng):
        img = rng.standard_normal((1, 8, 8)).astype(np.float32)
        flt = rng.standard_normal((1, 1, 3, 5)).astype(np.float32)
        with pytest.raises(ShapeError):
            conv2d_reference(img, flt)

    def test_single_channel_rejects_3d(self, rng):
        with pytest.raises(ShapeError):
            conv2d_single_channel(rng.standard_normal((2, 8, 8)), np.ones((3, 3)))

    def test_batch_shape_mismatch_rejected(self, rng):
        problem = ConvProblem.square(8, 3, channels=2, filters=3)
        images = rng.standard_normal((4,) + problem.image_shape)
        filters = rng.standard_normal((3,) + problem.filter_shape)
        with pytest.raises(ShapeError):
            conv2d_reference(images, filters, problem=problem)
        with pytest.raises(ShapeError):
            conv2d_reference(images[:, :1], filters[:1].repeat(4, 0),
                             problem=problem)


def tensordot_reference(problem, image, filters):
    """The per-image tap loop ``conv2d_reference`` ran before batching.

    Frozen here as the bit-identity anchor: one ``np.tensordot`` per tap
    (and per group), accumulated in float64 in (dy, dx) order.
    """
    img = problem.padded_image(image)
    flt = problem.check_filters(filters)
    k = problem.kernel_size
    s, d, g = problem.stride, problem.dilation, problem.groups
    oh, ow = problem.out_height, problem.out_width
    cpg, fpg = problem.channels_per_group, problem.filters_per_group
    out = np.zeros((problem.filters, oh, ow), dtype=np.float64)
    for dy in range(k):
        for dx in range(k):
            window = img[:,
                         dy * d : dy * d + (oh - 1) * s + 1 : s,
                         dx * d : dx * d + (ow - 1) * s + 1 : s]
            taps = flt[:, :, dy, dx]
            if g == 1:
                out += np.tensordot(taps, window, axes=([1], [0]))
            else:
                for gi in range(g):
                    out[gi * fpg : (gi + 1) * fpg] += np.tensordot(
                        taps[gi * fpg : (gi + 1) * fpg],
                        window[gi * cpg : (gi + 1) * cpg],
                        axes=([1], [0]),
                    )
    return problem.layout_output(out.astype(np.float32))


#: Every class of BLAS call the tap loop makes: sgemm (F/g > 1,
#: C/g > 1), sgemv on a strided tap row (F/g = 1), sgemv/sdot on 1x1
#: outputs, and the one-channel-per-group elementwise product, across
#: every problem axis.
BIT_IDENTITY_SHAPES = dict(
    [("classic%d" % i, p) for i, p in enumerate(DEFAULT_SERVING_SHAPES)]
    + [("generalized%d" % i, p)
       for i, p in enumerate(GENERALIZED_SERVING_SHAPES)]
    + [
        ("f1", ConvProblem.square(16, 3, channels=6, filters=1)),
        ("c1f1", ConvProblem.square(16, 3, channels=1, filters=1)),
        ("grouped-fpg1", ConvProblem.square(14, 3, channels=9, filters=3,
                                            groups=3)),
        ("grouped-fpg3", ConvProblem.square(14, 3, channels=8, filters=6,
                                            groups=2)),
        ("depth-multiplier2", ConvProblem.square(14, 3, channels=6,
                                                 filters=12, groups=6)),
        ("stride2", ConvProblem.square(17, 3, channels=5, filters=7,
                                       stride=2)),
        ("dilation2-f1", ConvProblem.square(15, 3, channels=5, filters=1,
                                            dilation=2)),
        ("same", ConvProblem.square(12, 5, channels=3, filters=4,
                                    padding=Padding.SAME)),
        ("nhwc", ConvProblem.square(11, 3, channels=6, filters=5,
                                    layout=Layout.NHWC)),
        ("nhwc-depthwise-same", ConvProblem.square(
            11, 3, channels=6, filters=6, groups=6, padding=Padding.SAME,
            layout=Layout.NHWC)),
        ("c300", ConvProblem.square(8, 3, channels=300, filters=4)),
        ("c300-f1", ConvProblem.square(8, 3, channels=300, filters=1)),
        ("k1", ConvProblem.square(9, 1, channels=6, filters=5)),
        ("out1x1", ConvProblem.square(5, 5, channels=6, filters=4)),
        ("out1x1-f1", ConvProblem.square(5, 5, channels=6, filters=1)),
    ]
)


class TestBatchedBitIdentity:
    """A batch is bit-identical (uint32 view) to the frozen tap loop.

    This holds because each tap hands BLAS the same call, with the same
    operand layouts, for every stacked image as ``np.dot`` makes for one
    image; it runs under whatever BLAS threading the host defaults to.
    """

    @pytest.mark.parametrize("batch", [1, 2, 9, 33])
    @pytest.mark.parametrize("name", sorted(BIT_IDENTITY_SHAPES))
    def test_matches_frozen_tap_loop(self, name, batch):
        problem = BIT_IDENTITY_SHAPES[name]
        rng = np.random.default_rng(batch)
        images = rng.standard_normal(
            (batch,) + problem.image_shape).astype(np.float32)
        filters = rng.standard_normal(
            (batch,) + problem.filter_shape).astype(np.float32)
        want = np.stack([tensordot_reference(problem, i, f)
                         for i, f in zip(images, filters)])
        batched = conv2d_reference(images, filters, problem=problem)
        singles = np.stack([conv2d_reference(i, f, problem=problem)
                            for i, f in zip(images, filters)])
        assert batched.shape == (batch,) + problem.output_shape
        assert np.array_equal(batched.view(np.uint32), want.view(np.uint32))
        assert np.array_equal(singles.view(np.uint32),
                              batched.view(np.uint32))

    @pytest.mark.parametrize("batched", [False, True])
    def test_filter_strides_do_not_change_the_bits(self, batched):
        """One filter per group reads its tap row in place: a negatively
        strided view of the same filter values gives the contiguous
        array's bits, in a single call and in a batch."""
        problem = ConvProblem.square(12, 3, channels=32, filters=4, groups=4)
        image, filters = problem.random_instance(0)
        view = np.ascontiguousarray(filters[:, ::-1])[:, ::-1]
        if batched:
            image, filters, view = image[None], filters[None], view[None]
        want = conv2d_reference(image, filters, problem=problem)
        got = conv2d_reference(image, view, problem=problem)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("name", ["classic0", "classic2",
                                      "depth-multiplier2", "f1"])
    def test_zero_image_with_negative_filters_gives_positive_zero(
            self, name):
        problem = BIT_IDENTITY_SHAPES[name]
        images = np.zeros((3,) + problem.image_shape, dtype=np.float32)
        filters = np.full((3,) + problem.filter_shape, -1.5, np.float32)
        out = conv2d_reference(images, filters, problem=problem)
        assert not np.any(out.view(np.uint32) >> 31)
