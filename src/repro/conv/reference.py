"""Reference convolution implementations.

These are the golden models every kernel in :mod:`repro.core` and
:mod:`repro.baselines` is verified against.  Like the paper (and the
deep-learning libraries it compares with), "convolution" here means
cross-correlation: filters are not flipped.

:func:`conv2d_reference` is one tap-loop over (dy, dx) for a stack of images:
a single image is a batch of one, so batched serving and single calls
share one arithmetic.  Each tap is a float32 elementwise product when a
group has one input channel, and otherwise one ``np.matmul`` over the
(batch, group) stack, which hands BLAS the same per-image call
``tensordot`` makes; a float64 accumulator adds the taps in order.  Every
output is therefore bit-identical to the per-image tap loop, whatever
the batch.  It handles every problem axis — stride, dilation, groups,
and both layouts.

:func:`conv2d_taps` is the direct kernels' arithmetic: the same taps
summed in float32, in the order a thread of Algorithms 1-2 accumulates
them, so the paper's kernels return it bit for bit.

:func:`conv2d_oracle` is the deliberately-naive seven-loop scalar model
(filters, rows, cols, channels, taps) the generalized reference is
property-tested against; it shares no vectorized slicing with the
reference, so an indexing mistake in one cannot hide in the other.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.conv.tensors import ConvProblem, Layout, Padding
from repro.errors import ShapeError

__all__ = ["conv2d_reference", "conv2d_single_channel", "conv2d_taps",
           "conv2d_oracle"]


def conv2d_reference(
    image: np.ndarray,
    filters: np.ndarray,
    padding: Padding = Padding.VALID,
    problem: Optional[ConvProblem] = None,
) -> np.ndarray:
    """Multi-channel 2-D cross-correlation of one image or a batch.

    Parameters
    ----------
    image:
        ``(C, H, W)`` array (a 2-D array is promoted to one channel);
        ``(H, W, C)`` when ``problem.layout`` is NHWC.  With ``problem``
        given, a ``(B, *problem.image_shape)`` array is a batch of B
        images.
    filters:
        ``(F, C/groups, K, K)`` array (2-D/3-D arrays are promoted); a
        batch takes one filter bank per image,
        ``(B, *problem.filter_shape)``.
    padding:
        Boundary mode; 'same' zero-pads so the output matches the input
        extent.  Ignored when ``problem`` is given.
    problem:
        Full problem description carrying stride/dilation/groups/layout.
        When omitted, the problem is inferred from the array shapes with
        default axes (stride 1, dilation 1, one group, NCHW), and the
        call takes a single image.

    Returns
    -------
    ``(F, OH, OW)`` float32 array (``(OH, OW, F)`` for NHWC problems);
    ``(B, *problem.output_shape)`` for a batch, where each item is
    bit-identical to the single call on that image.
    """
    if problem is None:
        problem = ConvProblem.from_arrays(image, filters, padding)

    batched = np.ndim(image) == len(problem.image_shape) + 1
    if batched:
        images = np.asarray(image, dtype=np.float32)
        filters = np.asarray(filters, dtype=np.float32)
        if (images.shape[1:] != problem.image_shape
                or filters.shape != images.shape[:1] + problem.filter_shape):
            raise ShapeError(
                "batch shapes %s and %s do not match (B, %s) images and "
                "(B, %s) filters of %s"
                % (images.shape, filters.shape, problem.image_shape,
                   problem.filter_shape, problem.describe()))
    else:
        images = problem.check_image(image)[np.newaxis]
        filters = problem.check_filters(filters)[np.newaxis]

    # One tap loop over the (B, ...) stacks.  Each tap's float32 products
    # are summed by the BLAS call np.dot makes for one image, with the
    # same operand layouts, and the float64 accumulator starts at +0.0
    # and adds the taps in (dy, dx) order: hence bit-identical batches.
    b = images.shape[0]
    k = problem.kernel_size
    s, d, g = problem.stride, problem.dilation, problem.groups
    oh, ow = problem.out_height, problem.out_width
    cpg, fpg = problem.channels_per_group, problem.filters_per_group
    if problem.layout is Layout.NHWC:
        images = np.moveaxis(images, 3, 1)
    p = problem.pad
    if p:
        images = np.pad(images, ((0, 0), (0, 0), (p, p), (p, p)))
    images = images.reshape(b, g, cpg, *images.shape[2:])
    filters = filters.reshape(b, g, fpg, cpg, k, k)
    out = np.zeros((b, g, fpg, oh * ow), dtype=np.float64)
    for dy in range(k):
        for dx in range(k):
            window = np.ascontiguousarray(images[
                ...,
                dy * d : dy * d + (oh - 1) * s + 1 : s,
                dx * d : dx * d + (ow - 1) * s + 1 : s,
            ]).reshape(b, g, cpg, oh * ow)
            taps = filters[..., dy, dx]
            if cpg == 1:
                # One channel per group: a BLAS sum of one product is
                # that product rounded to float32, as multiplied here.
                out += taps * window
                continue
            if fpg > 1:
                # np.dot copies a tap matrix before its sgemm but reads a
                # single tap row in place (sgemv/sdot with its stride).
                taps = np.ascontiguousarray(taps)
            out += np.matmul(taps, window)
    out = out.reshape(b, problem.filters, oh, ow).astype(np.float32)
    if problem.layout is Layout.NHWC:
        out = np.ascontiguousarray(np.moveaxis(out, 1, 3))
    return out if batched else out[0]


def conv2d_single_channel(image: np.ndarray, filters: np.ndarray,
                          padding: Padding = Padding.VALID) -> np.ndarray:
    """The paper's special case: one input channel (Sec. 3).

    ``image`` is ``(H, W)``; ``filters`` is ``(F, K, K)`` or ``(K, K)``.
    """
    img = np.asarray(image, dtype=np.float32)
    if img.ndim != 2:
        raise ShapeError("special-case image must be 2-D, got %d-D" % img.ndim)
    return conv2d_reference(img, filters, padding)


def conv2d_taps(problem: ConvProblem, image: np.ndarray,
                filters: np.ndarray) -> np.ndarray:
    """The direct kernels' arithmetic: a float32 tap loop.

    Each output is +0.0 plus the float32 product of every (channel, dy,
    dx) tap of its group, added in float32 in ascending (channel, dy,
    dx) order: what every thread of Algorithms 1-2 accumulates in its
    registers, so the output matches the interpreted kernels bit for
    bit.  Handles every stride, dilation, padding, grouping and layout;
    returns the output in the problem's layout.
    """
    img = problem.padded_image(image)
    flt = problem.check_filters(filters)
    k, s, d, g = (problem.kernel_size, problem.stride, problem.dilation,
                  problem.groups)
    oh, ow = problem.out_height, problem.out_width
    cpg, fpg = problem.channels_per_group, problem.filters_per_group
    img = img.reshape(g, cpg, *img.shape[1:])
    flt = flt.reshape(g, fpg, cpg, k, k)
    out = np.zeros((g, fpg, oh, ow), dtype=np.float32)
    for c in range(cpg):
        for dy in range(k):
            for dx in range(k):
                window = img[:, c,
                             dy * d : dy * d + (oh - 1) * s + 1 : s,
                             dx * d : dx * d + (ow - 1) * s + 1 : s]
                out += flt[:, :, c, dy, dx, np.newaxis, np.newaxis] \
                    * window[:, np.newaxis]
    return problem.layout_output(out.reshape(problem.filters, oh, ow))


def conv2d_oracle(problem: ConvProblem, image: np.ndarray,
                  filters: np.ndarray) -> np.ndarray:
    """Seven-loop scalar cross-correlation: the oracle of last resort.

    Wilfully unoptimized — every output element is an explicit scalar
    accumulation over (channel, tap-row, tap-col) — so it exercises the
    stride/dilation/group index arithmetic one multiply at a time.  Use
    only on small shapes.
    """
    img = problem.padded_image(image).astype(np.float64)
    flt = problem.check_filters(filters).astype(np.float64)
    k = problem.kernel_size
    s, d = problem.stride, problem.dilation
    oh, ow = problem.out_height, problem.out_width
    cpg, fpg = problem.channels_per_group, problem.filters_per_group
    out = np.zeros((problem.filters, oh, ow), dtype=np.float64)
    for f in range(problem.filters):
        c0 = (f // fpg) * cpg
        for oy in range(oh):
            for ox in range(ow):
                acc = 0.0
                for c in range(cpg):
                    for ky in range(k):
                        for kx in range(k):
                            acc += (img[c0 + c, oy * s + ky * d, ox * s + kx * d]
                                    * flt[f, c, ky, kx])
                out[f, oy, ox] = acc
    return problem.layout_output(out.astype(np.float32))
