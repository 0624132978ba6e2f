"""Every kernel's functional output, pinned bit for bit.

Each kernel's ``run`` is called over a sweep of ragged shapes (images
17-67 rows by 19-130 columns, K 1/3/5, stride and dilation 1/2, both
paddings and layouts, 1-8 channels) on every GPU preset and several
configurations, through the ``problem=`` form and both positional
forms (2-D and 3-D arrays).  The output bytes are hashed in sweep
order, one digest per kernel.

The direct kernels run on standard-normal data: their float32 products
and sums are elementwise IEEE operations, so the bytes are the same on
any host, and any change to the order of a tap's product or addition
moves the digest.  The baselines reach BLAS matmuls and FFTs, whose
rounding depends on the numpy build and the CPU, so they run on small
integers, where every product and partial sum is exact; the FFT and
Winograd F(4x4, 3x3) results, whose transforms round, are rounded to
the nearest integer before hashing.
"""

import hashlib
from dataclasses import replace

import numpy as np

from repro.baselines.direct_naive import NaiveDirectKernel
from repro.baselines.fft_conv import FFTConvolution
from repro.baselines.im2col import Im2colKernel
from repro.baselines.implicit_gemm import ImplicitGemmKernel
from repro.baselines.winograd import WinogradConvolution
from repro.conv.tensors import ConvProblem, Layout, Padding
from repro.core.config import (
    BEST_SPECIAL_CONFIG,
    GeneralCaseConfig,
    SpecialCaseConfig,
)
from repro.core.depthwise import DepthwiseKernel
from repro.core.general import GeneralCaseKernel
from repro.core.special import SpecialCaseKernel
from repro.gpu.arch import ARCHITECTURES, KEPLER_K40M

SPECIAL_CONFIGS = (SpecialCaseConfig(block_w=64, block_h=4),
                   SpecialCaseConfig(block_w=128, block_h=2),
                   BEST_SPECIAL_CONFIG)
GENERAL_CONFIGS = (None,
                   GeneralCaseConfig(w=16, h=8, ftb=16, wt=8, ft=4, csh=2),
                   GeneralCaseConfig(w=16, h=4, ftb=8, wt=8, ft=2, csh=1))


def _problems(seed, count, channels, groups=lambda c: 1, fpg=(1, 2, 3)):
    """``count`` seeded problems over every axis the kernels compute."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        c = int(rng.choice(channels))
        g = groups(c)
        yield ConvProblem(
            height=int(rng.integers(17, 68)), width=int(rng.integers(19, 131)),
            channels=c, filters=g * int(rng.choice(fpg)),
            kernel_size=int(rng.choice((1, 3, 5))),
            padding=Padding.SAME if rng.integers(2) else Padding.VALID,
            stride=int(rng.integers(1, 3)), dilation=int(rng.integers(1, 3)),
            groups=g,
            layout=Layout.NHWC if rng.integers(2) else Layout.NCHW)


def _positional(problem, image, filters):
    """The positional forms of a default-axes problem's arrays: the full
    (C, H, W) and (F, C/g, K, K) arrays, and for one channel per group
    the squeezed ones too (a 2-D image where C = 1, 3-D filters)."""
    forms = [(image, filters)]
    if filters.shape[1] == 1:
        forms.append((image[0] if problem.channels == 1 else image,
                       filters[:, 0]))
    return forms


def _default_axes(problem, **changes):
    return replace(problem, stride=1, dilation=1, layout=Layout.NCHW,
                   **changes)


class _Digest:
    def __init__(self):
        self.hash = hashlib.sha256()
        self.calls = 0

    def add(self, out):
        out = np.asarray(out)
        self.hash.update(repr((out.dtype.str, out.shape)).encode())
        self.hash.update(np.ascontiguousarray(out).tobytes())
        self.calls += 1


def _direct_calls():
    """(kernel name, kernel, problem, positional?) of the direct kernels."""
    depthwise = dict(channels=(3, 8), groups=lambda c: c, fpg=(1, 2))
    for a, (_, arch) in enumerate(sorted(ARCHITECTURES.items())):
        sweeps = (
            [("special", SpecialCaseKernel(arch=arch, config=cfg),
              dict(channels=(1,))) for cfg in SPECIAL_CONFIGS]
            + [("general", GeneralCaseKernel(arch=arch, config=cfg),
                dict(channels=(1, 2, 6))) for cfg in GENERAL_CONFIGS]
            + [("depthwise", DepthwiseKernel(arch=arch, config=cfg),
                depthwise) for cfg in SPECIAL_CONFIGS[:2]])
        for i, (name, kern, space) in enumerate(sweeps):
            seed = 100 * a + i
            for p in _problems(seed, 6, **space):
                yield name, kern, p, False
            for p in _problems(seed + 50, 2, **space):
                yield name, kern, _default_axes(p), True


def _run(kern, problem, positional, image, filters):
    """Every output of one sweep entry, in order."""
    if not positional:
        return [kern.run(image, filters, problem=problem)]
    return [kern.run(img, flt, problem.padding)
            for img, flt in _positional(problem, image, filters)]


def _digests(entries, instance):
    digests = {}
    for seq, (name, kern, problem, positional) in enumerate(entries):
        image, filters = instance(problem, seq)
        for out in _run(kern, problem, positional, image, filters):
            digests.setdefault(name, _Digest()).add(out)
    return {name: (d.calls, d.hash.hexdigest()) for name, d in digests.items()}


def _normal(problem, seq):
    return problem.random_instance(seed=seq)


def _integers(problem, seq):
    rng = np.random.default_rng(seq)
    return (rng.integers(-2, 3, problem.image_shape).astype(np.float32),
            rng.integers(-2, 3, problem.filter_shape).astype(np.float32))


class _Rounded:
    """A transform-domain kernel's outputs rounded to the exact integers
    they approximate (``+ 0.0`` turns a rounded -0.0 into +0.0)."""

    def __init__(self, kern):
        self.kern = kern

    def run(self, *args, **kwargs):
        return np.rint(self.kern.run(*args, **kwargs)) + np.float32(0.0)


def _baseline_calls():
    """The same entries for the baselines, each problem fitted to what
    the baseline computes (ungrouped, default axes, 3x3)."""
    def plain(p):
        return _default_axes(p, groups=1)

    def plain_3x3(p):
        return _default_axes(p, groups=1, kernel_size=3)

    kernels = (
        ("naive", NaiveDirectKernel(KEPLER_K40M), lambda p: p),
        ("im2col", Im2colKernel(KEPLER_K40M), lambda p: p),
        ("implicit-gemm", ImplicitGemmKernel(KEPLER_K40M),
         lambda p: replace(p, groups=1)),
        ("fft", _Rounded(FFTConvolution(KEPLER_K40M)), plain),
        ("winograd", WinogradConvolution(KEPLER_K40M), plain_3x3),
        ("winograd-f4", _Rounded(WinogradConvolution(KEPLER_K40M, tile=4)),
         plain_3x3))
    grouped = dict(channels=(1, 2, 4, 6),
                   groups=lambda c: c // 2 if c > 2 else 1)
    for b, (name, kern, fit) in enumerate(kernels):
        for p in _problems(3000 + b, 6, **grouped):
            yield name, kern, fit(p), False
        for p in _problems(3050 + b, 3, channels=(1, 2, 6)):
            yield name, kern, fit(_default_axes(p)), True


#: (calls, sha256) per kernel, recorded while each direct kernel still
#: computed through its own per-block emulation.
DIRECT_DIGESTS = {
    "special": (120, "a404638d27b063755406af4ea4bb773b"
                     "63a188bfee3d50c7f0716f33f3f49659"),
    "general": (107, "855ecfad0bfce12df170f62cc98f3698"
                     "a2645c79a366b8725be5a91836461e0d"),
    "depthwise": (80, "68d9937f36adccbc20d4b907ca1a867b"
                      "cc0c2900762a02140fa912e730fd4a89"),
}
BASELINE_DIGESTS = {
    "naive": (11, "a5cc0ec051244c6c82f05312dc688853"
                  "283a9e5a6d1bac5fbbd1a53857ea6408"),
    "im2col": (10, "84a6edb535a379ca5aa02aa9a4aa2410"
                   "bcc93d5ef3b6c22fd9e3b35c1286130d"),
    "implicit-gemm": (10, "22a5cbc1e34c60e330a0007d119efb77"
                          "472f424ac1f172a7b3358ddd9dabc3fb"),
    "fft": (11, "345f70d7bcb64d0cdafb9bd8724e7dc5"
                "50e98eafe80a9de70890a63d2d011769"),
    "winograd": (9, "c7f8ccbb9df5d7e592ea67602841f0de"
                    "aac3e30da73dcf0191243f694e03b370"),
    "winograd-f4": (9, "344eee5d81f6cd8bef9ae1a7af6f3bc2"
                       "0538ab6e138bf628e1e62bcff78c5ebe"),
}


def test_direct_kernel_outputs_are_pinned():
    got = _digests(list(_direct_calls()), _normal)
    assert got == DIRECT_DIGESTS


def test_baseline_outputs_are_pinned():
    got = _digests(list(_baseline_calls()), _integers)
    assert got == BASELINE_DIGESTS
