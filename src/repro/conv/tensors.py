"""Convolution problem descriptions and tensor-layout helpers.

The paper parameterizes its experiments by image size ``N`` (square
images), filter size ``K``, channel count ``C`` and filter count ``F``
(Figs. 7–8).  :class:`ConvProblem` captures one such instance plus the
boundary-handling mode, and provides the derived quantities every kernel
and benchmark needs (output extent, nominal FLOPs, tensor shapes).

Beyond the paper's dense unit-stride case the problem model carries the
axes real CNN layers use: ``stride``, ``dilation``, ``groups`` (with
``groups == channels`` being depthwise convolution), and the tensor
``layout`` (NCHW or NHWC).  All four default to the paper's setting —
stride 1, dilation 1, a single group, channels-first — and every derived
quantity reduces exactly to the historical formula at those defaults.

Layouts follow the paper (and Caffe/cuDNN of its era) by default: images
are CHW, filters are F x C/g x K x K, outputs are F x OH x OW, all
``float32`` — the 4-byte ``W_CD`` of the paper's bank-width model.  NHWC
problems carry HWC images and OH x OW x F outputs; kernels canonicalize
to channels-first internally via :meth:`ConvProblem.chw_image`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ShapeError

__all__ = ["Padding", "Layout", "ConvProblem", "FLOAT_BYTES"]

#: Bytes per element of the basic computation data type (float).
FLOAT_BYTES = 4


class Padding(enum.Enum):
    """Boundary handling for the convolution."""

    VALID = "valid"    # output shrinks by the dilated span minus one
    SAME = "same"      # zero-pad so output extent equals ceil(extent/stride)


class Layout(enum.Enum):
    """Memory order of image and output tensors (no batch dimension)."""

    NCHW = "nchw"      # channels-first: image (C,H,W), output (F,OH,OW)
    NHWC = "nhwc"      # channels-last:  image (H,W,C), output (OH,OW,F)


@dataclass(frozen=True)
class ConvProblem:
    """One convolution instance: C x H x W image, F filters of size K x K.

    ``stride``/``dilation`` are square (the same factor on both spatial
    axes), matching the shapes CNN layers actually use.  ``groups``
    partitions channels and filters into independent convolutions;
    ``groups == channels`` is depthwise.  ``layout`` states how the
    *arrays* are ordered — the arithmetic is layout-invariant.

    A problem keys the plan cache, the batcher and the router, so it
    computes its hash and its :meth:`as_valid` twin once, on first use,
    and keeps them on the instance.  Neither travels: a pickled problem
    is rebuilt from its fields (:meth:`__reduce__`), so its bytes do
    not depend on what was cached, and a process with another hash
    seed recomputes the hash.
    """

    height: int
    width: int
    channels: int
    filters: int
    kernel_size: int
    padding: Padding = Padding.VALID
    stride: int = 1
    dilation: int = 1
    groups: int = 1
    layout: Layout = Layout.NCHW

    # Per-instance caches (class defaults, not fields): the hash and
    # the 'valid' twin, filled on first use by __hash__ and as_valid.
    _hash = None
    _valid = None

    def _field_values(self) -> tuple:
        return (self.height, self.width, self.channels, self.filters,
                self.kernel_size, self.padding, self.stride, self.dilation,
                self.groups, self.layout)

    def __hash__(self) -> int:
        # The value the generated dataclass hash gives: the field tuple's.
        h = self._hash
        if h is None:
            h = hash(self._field_values())
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return (ConvProblem, self._field_values())

    def __post_init__(self):
        if min(self.height, self.width, self.channels, self.filters) < 1:
            raise ShapeError("all convolution extents must be positive in %s"
                             % (self.describe(),))
        if self.kernel_size < 1:
            raise ShapeError("kernel_size must be positive in %s"
                             % (self.describe(),))
        if min(self.stride, self.dilation, self.groups) < 1:
            raise ShapeError(
                "stride, dilation and groups must be positive in %s"
                % (self.describe(),))
        if self.channels % self.groups != 0:
            raise ShapeError(
                "groups=%d does not divide channels=%d in %s"
                % (self.groups, self.channels, self.describe()))
        if self.filters % self.groups != 0:
            raise ShapeError(
                "groups=%d does not divide filters=%d in %s"
                % (self.groups, self.filters, self.describe()))
        if self.padding is Padding.VALID:
            if self.span > min(self.height, self.width):
                raise ShapeError(
                    "a %dx%d filter (dilated span %d) does not fit a %dx%d "
                    "image in 'valid' mode: %s"
                    % (self.kernel_size, self.kernel_size, self.span,
                       self.height, self.width, self.describe())
                )
        elif self.kernel_size % 2 == 0:
            raise ShapeError("'same' padding requires an odd kernel_size: %s"
                             % (self.describe(),))

    # ------------------------------------------------------------------
    @classmethod
    def square(
        cls,
        n: int,
        kernel_size: int,
        channels: int = 1,
        filters: int = 1,
        padding: Padding = Padding.VALID,
        stride: int = 1,
        dilation: int = 1,
        groups: int = 1,
        layout: Layout = Layout.NCHW,
    ) -> "ConvProblem":
        """The paper's (N, K, C, F) parameterization plus the new axes."""
        return cls(
            height=n,
            width=n,
            channels=channels,
            filters=filters,
            kernel_size=kernel_size,
            padding=padding,
            stride=stride,
            dilation=dilation,
            groups=groups,
            layout=layout,
        )

    @classmethod
    def from_arrays(cls, image, filters,
                    padding: Padding = Padding.VALID) -> "ConvProblem":
        """The default-axes problem a positional ``(image, filters)``
        pair states: the one input contract of every kernel's ``run``.

        A 2-D image is one channel; 2-D and 3-D filters are promoted to
        ``(F, C, K, K)`` (:meth:`check_image` and :meth:`check_filters`
        promote the arrays the same way).  Raises :class:`ShapeError`
        for anything else, a non-square filter, a filter that does not
        fit the image, or filters whose channels differ from the image's.
        """
        img, flt = np.shape(image), np.shape(filters)
        if len(img) == 2:
            img = (1,) + img
        if len(flt) == 2:
            flt = (1, 1) + flt
        elif len(flt) == 3:
            flt = flt[:1] + (1,) + flt[1:]
        if len(img) != 3 or len(flt) != 4:
            raise ShapeError("image must be (C,H,W) and filters (F,C,K,K)")
        if flt[2] != flt[3]:
            raise ShapeError("only square filters are supported")
        problem = cls(height=img[1], width=img[2], channels=img[0],
                      filters=flt[0], kernel_size=flt[2], padding=padding)
        if flt[1] != img[0]:
            raise ShapeError("filters have %d channels, image has %d"
                             % (flt[1], img[0]))
        return problem

    def describe(self) -> str:
        """The full problem tuple, for error messages and logs."""
        return ("conv(h=%d, w=%d, c=%d, f=%d, k=%d, pad=%s, stride=%d, "
                "dilation=%d, groups=%d, layout=%s)"
                % (self.height, self.width, self.channels, self.filters,
                   self.kernel_size, self.padding.value, self.stride,
                   self.dilation, self.groups, self.layout.value))

    # ------------------------------------------------------------------
    @property
    def span(self) -> int:
        """Dilated receptive-field extent: ``dilation * (K-1) + 1``."""
        return self.dilation * (self.kernel_size - 1) + 1

    @property
    def has_default_axes(self) -> bool:
        """True for the paper's setting: dense, ungrouped, channels-first."""
        return (self.stride == 1 and self.dilation == 1
                and self.groups == 1 and self.layout is Layout.NCHW)

    @property
    def channels_per_group(self) -> int:
        return self.channels // self.groups

    @property
    def filters_per_group(self) -> int:
        return self.filters // self.groups

    @property
    def pad(self) -> int:
        """Zero-padding applied to each image border."""
        if self.padding is Padding.SAME:
            return self.dilation * (self.kernel_size - 1) // 2
        return 0

    @property
    def out_height(self) -> int:
        if self.padding is Padding.SAME:
            return (self.height - 1) // self.stride + 1
        return (self.height - self.span) // self.stride + 1

    @property
    def out_width(self) -> int:
        if self.padding is Padding.SAME:
            return (self.width - 1) // self.stride + 1
        return (self.width - self.span) // self.stride + 1

    @property
    def image_shape(self) -> tuple:
        if self.layout is Layout.NHWC:
            return (self.height, self.width, self.channels)
        return (self.channels, self.height, self.width)

    @property
    def filter_shape(self) -> tuple:
        return (self.filters, self.channels_per_group,
                self.kernel_size, self.kernel_size)

    @property
    def output_shape(self) -> tuple:
        if self.layout is Layout.NHWC:
            return (self.out_height, self.out_width, self.filters)
        return (self.filters, self.out_height, self.out_width)

    @property
    def flops(self) -> int:
        """Nominal operation count: one multiply + one add per tap.

        This is the count the paper's GFlop/s figures are normalized by.
        Grouping divides the per-output channel fan-in by ``groups``.
        """
        k = self.kernel_size
        return (2 * k * k * self.channels_per_group * self.filters
                * self.out_height * self.out_width)

    @property
    def image_bytes(self) -> int:
        return self.channels * self.height * self.width * FLOAT_BYTES

    @property
    def filter_bytes(self) -> int:
        k = self.kernel_size
        return self.filters * self.channels_per_group * k * k * FLOAT_BYTES

    @property
    def output_bytes(self) -> int:
        return self.filters * self.out_height * self.out_width * FLOAT_BYTES

    @property
    def max_pixel_reuse(self) -> int:
        """Upper bound on uses of one input pixel: K * K * F/g (Sec. 2.2)."""
        return self.kernel_size * self.kernel_size * self.filters_per_group

    def as_valid(self) -> "ConvProblem":
        """The equivalent 'valid' problem on the zero-padded image.

        Kernels implement only the valid case; 'same' problems are run
        by padding the image first and converting with this method.
        Built once per problem; later calls return the same object.
        """
        if self.padding is Padding.VALID:
            return self
        valid = self._valid
        if valid is None:
            valid = replace(
                self,
                height=self.height + 2 * self.pad,
                width=self.width + 2 * self.pad,
                padding=Padding.VALID,
            )
            object.__setattr__(self, "_valid", valid)
        return valid

    # ------------------------------------------------------------------
    def check_image(self, image: np.ndarray) -> np.ndarray:
        """Validate and canonicalize an image array, in problem layout.

        2-D arrays are promoted to one channel (unambiguous in either
        layout).  The returned array keeps the problem's layout; use
        :meth:`chw_image` when channels-first indexing is needed.
        """
        arr = np.asarray(image, dtype=np.float32)
        if arr.ndim == 2:
            arr = (arr[..., np.newaxis] if self.layout is Layout.NHWC
                   else arr[np.newaxis])
        if arr.shape != self.image_shape:
            raise ShapeError(
                "image shape %s does not match %s layout shape %s of %s"
                % (arr.shape, self.layout.value, self.image_shape,
                   self.describe())
            )
        return arr

    def chw_image(self, image: np.ndarray) -> np.ndarray:
        """Validate ``image`` and return it channels-first (C, H, W)."""
        arr = self.check_image(image)
        if self.layout is Layout.NHWC:
            arr = np.ascontiguousarray(np.moveaxis(arr, 2, 0))
        return arr

    def layout_output(self, chw_out: np.ndarray) -> np.ndarray:
        """Convert a canonical (F, OH, OW) output into the problem layout."""
        if self.layout is Layout.NHWC:
            return np.ascontiguousarray(np.moveaxis(chw_out, 0, 2))
        return chw_out

    def check_filters(self, filters: np.ndarray) -> np.ndarray:
        """Validate and canonicalize a filter array (KK, FKK or FCKK)."""
        arr = np.asarray(filters, dtype=np.float32)
        if arr.ndim == 2:
            arr = arr[np.newaxis, np.newaxis]
        elif arr.ndim == 3:
            arr = arr[:, np.newaxis]
        if arr.shape != self.filter_shape:
            raise ShapeError(
                "filter shape %s does not match shape %s of %s"
                % (arr.shape, self.filter_shape, self.describe())
            )
        return arr

    def padded_image(self, image: np.ndarray) -> np.ndarray:
        """Zero-pad ``image`` per the padding mode; always returns (C,H,W)."""
        arr = self.chw_image(image)
        if self.pad == 0:
            return arr
        p = self.pad
        return np.pad(arr, ((0, 0), (p, p), (p, p)))

    def random_instance(self, seed: int = 0) -> tuple:
        """A reproducible (image, filters) pair for tests and benchmarks."""
        rng = np.random.default_rng(seed)
        image = rng.standard_normal(self.image_shape).astype(np.float32)
        filters = rng.standard_normal(self.filter_shape).astype(np.float32)
        return image, filters
