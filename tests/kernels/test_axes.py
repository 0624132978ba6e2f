"""The AXES axis-support declarations and the axes_ok admission gate.

Every backend declares which generalized problem axes (stride,
dilation, groups, layout) it serves; ``ConvBackend.supports`` chains
that declaration ahead of capability and feasibility.  These tests pin
the declared matrix, the gate's semantics, and the supports => build =>
run contract on each axis in isolation.
"""

import numpy as np
import pytest

from repro.conv.reference import conv2d_reference
from repro.conv.tensors import ConvProblem, Layout, Padding
from repro.gpu.arch import KEPLER_K40M
from repro.kernels import ConvBackend, default_registry

#: The documented capability matrix (docs/BACKENDS.md) — a test failure
#: here means either a regression or a doc update is owed.
EXPECTED_AXES = {
    "special": (True, True, "single", ("nchw", "nhwc")),
    "general": (True, True, "single", ("nchw",)),
    "depthwise": (True, True, "depthwise", ("nchw", "nhwc")),
    "im2col": (True, True, "any", ("nchw", "nhwc")),
    "implicit-gemm": (True, True, "single", ("nchw",)),
    "naive": (True, True, "any", ("nchw", "nhwc")),
    "fft": (False, False, "single", ("nchw",)),
    "winograd": (False, False, "single", ("nchw",)),
}

#: One problem per axis, non-default in exactly that axis (except the
#: grouped ones, which need compatible channel counts).
STRIDED = ConvProblem.square(32, 3, channels=1, filters=2, stride=2)
DILATED = ConvProblem.square(33, 3, channels=1, filters=2, dilation=2)
DEPTHWISE = ConvProblem.square(24, 3, channels=4, filters=4, groups=4)
GROUPED = ConvProblem.square(24, 3, channels=8, filters=8, groups=2)
NHWC = ConvProblem.square(24, 3, channels=2, filters=2,
                          layout=Layout.NHWC)
DEFAULT = ConvProblem.square(24, 3, channels=2, filters=2)


class TestDeclaredMatrix:
    def test_every_builtin_declares_the_documented_axes(self):
        registry = default_registry()
        assert set(registry.names()) == set(EXPECTED_AXES)
        for backend in registry:
            stride, dilation, groups, layouts = EXPECTED_AXES[backend.name]
            assert backend.AXES["stride"] is stride, backend.name
            assert backend.AXES["dilation"] is dilation, backend.name
            assert backend.AXES["groups"] == groups, backend.name
            assert tuple(backend.AXES["layouts"]) == layouts, backend.name


class TestAxesOkGate:
    def test_default_axes_always_pass(self):
        for backend in default_registry():
            assert backend.axes_ok(DEFAULT), backend.name

    def test_transform_backends_reject_every_generalized_axis(self):
        registry = default_registry()
        for name in ("fft", "winograd"):
            backend = registry.get(name)
            for problem in (STRIDED, DILATED, DEPTHWISE, GROUPED, NHWC):
                assert not backend.axes_ok(problem), (name,
                                                      problem.describe())

    def test_groups_modes(self):
        registry = default_registry()
        # "single": grouped problems rejected outright.
        assert not registry.get("general").axes_ok(DEPTHWISE)
        assert not registry.get("general").axes_ok(GROUPED)
        # "depthwise": groups == channels only.
        assert registry.get("depthwise").axes_ok(DEPTHWISE)
        assert not registry.get("depthwise").axes_ok(GROUPED)
        # "any": every divisor admitted.
        assert registry.get("im2col").axes_ok(DEPTHWISE)
        assert registry.get("im2col").axes_ok(GROUPED)

    def test_layout_gate(self):
        registry = default_registry()
        assert registry.get("special").axes_ok(NHWC)
        assert not registry.get("general").axes_ok(NHWC)
        assert not registry.get("implicit-gemm").axes_ok(NHWC)

    def test_conservative_default_for_unadorned_backends(self):
        class Plain(ConvBackend):
            name = "plain"

            def build(self, problem, arch=KEPLER_K40M, config=None, **kw):
                raise AssertionError("never built")

        backend = Plain()
        assert backend.axes_ok(DEFAULT)
        for problem in (STRIDED, DILATED, DEPTHWISE, GROUPED, NHWC):
            assert not backend.axes_ok(problem)


class TestSupportsBuildRunOnNewAxes:
    """supports => build => run parity, one generalized axis at a time."""

    @pytest.mark.parametrize(
        "problem", [STRIDED, DILATED, DEPTHWISE, GROUPED, NHWC],
        ids=["stride", "dilation", "depthwise", "grouped", "nhwc"])
    def test_every_supporting_backend_builds_and_matches(self, problem):
        registry = default_registry()
        image, filters = problem.random_instance(seed=3)
        reference = conv2d_reference(image, filters, problem=problem)
        ran = []
        for backend in registry:
            if not backend.supports(problem, KEPLER_K40M):
                continue
            kernel = backend.build(
                problem, KEPLER_K40M,
                backend.configure(problem, KEPLER_K40M)[0])
            out = kernel.run(image, filters, problem.padding,
                             problem=problem)
            np.testing.assert_allclose(
                out, reference, rtol=1e-4, atol=1e-5,
                err_msg="%s diverges on %s" % (backend.name,
                                               problem.describe()))
            ran.append(backend.name)
        assert "naive" in ran
