"""Registry-driven parity suite: every registered backend's ``run``
matches ``conv2d_reference`` on every shape its ``supports`` admits, and
``supports`` never admits a backend whose ``build`` then raises."""

import numpy as np
import pytest

from repro.conv.reference import conv2d_reference
from repro.conv.tensors import ConvProblem, Layout, Padding
from repro.gpu.arch import KEPLER_K40M, PASCAL_P100
from repro.kernels import default_registry

#: The sweep covers the regimes the capability predicates separate:
#: C == 1 and C > 1, odd filter sizes, both padding modes, non-square
#: images, and shapes that do not divide the default tiles evenly.
SWEEP = [
    ConvProblem.square(32, 3, channels=1, filters=4),
    ConvProblem.square(33, 3, channels=1, filters=3),
    ConvProblem.square(32, 5, channels=1, filters=4),
    ConvProblem.square(24, 7, channels=1, filters=2),
    ConvProblem.square(32, 3, channels=8, filters=8),
    ConvProblem.square(21, 3, channels=3, filters=5),
    ConvProblem.square(24, 5, channels=4, filters=8),
    ConvProblem.square(32, 3, channels=1, filters=4, padding=Padding.SAME),
    ConvProblem.square(24, 5, channels=4, filters=6, padding=Padding.SAME),
    ConvProblem(height=20, width=28, channels=2, filters=4, kernel_size=3),
    # Shapes the serving traces plan: the classic synthetic mix, and the
    # large-filter and deep 3x3 layers the FFT and Winograd plans win.
    ConvProblem.square(48, 3, channels=1, filters=4),
    ConvProblem.square(64, 3, channels=1, filters=8),
    ConvProblem.square(64, 3, channels=4, filters=8),
    ConvProblem.square(32, 3, channels=8, filters=16),
    ConvProblem.square(24, 3, channels=16, filters=16),
    ConvProblem.square(32, 5, channels=4, filters=8),
    ConvProblem.square(24, 5, channels=4, filters=4),
    ConvProblem.square(48, 7, channels=16, filters=16),
    ConvProblem.square(32, 3, channels=32, filters=32),
]

#: Generalized-axis shapes: every non-default axis (stride, dilation,
#: groups — depthwise and plain grouped — and NHWC), alone and combined,
#: across the C == 1 / C > 1 regimes and both padding modes.
EXTENDED_SWEEP = [
    ConvProblem.square(32, 3, channels=1, filters=4, stride=2),
    ConvProblem.square(32, 3, channels=8, filters=8, stride=2,
                       padding=Padding.SAME),
    ConvProblem.square(33, 3, channels=4, filters=4, dilation=2),
    ConvProblem.square(34, 3, channels=1, filters=2, stride=3, dilation=2),
    ConvProblem.square(32, 3, channels=8, filters=16, groups=8),
    ConvProblem.square(33, 3, channels=4, filters=4, groups=4, stride=2),
    ConvProblem.square(24, 3, channels=8, filters=8, groups=2),
    ConvProblem.square(32, 3, channels=4, filters=8, layout=Layout.NHWC),
    ConvProblem.square(24, 3, channels=6, filters=6, groups=6,
                       layout=Layout.NHWC),
    ConvProblem.square(48, 3, channels=1, filters=4, layout=Layout.NHWC),
    ConvProblem.square(32, 3, channels=2, filters=4, stride=2,
                       layout=Layout.NHWC),
]

#: Transform-domain methods accumulate float32 rounding; direct-family
#: methods match tightly.
LOOSE = {"fft": (1e-3, 1e-3), "winograd": (1e-3, 1e-3)}
TIGHT = (1e-4, 1e-5)


def _tolerance(backend, problem):
    """(rtol, atol) for ``backend`` on ``problem``.

    A direct method's float32 sum drifts from the float64 reference in
    proportion to its length, so past 100 terms per output (the deep
    serving shapes) the absolute term grows with it; every shorter
    reduction keeps ``TIGHT`` exactly.
    """
    if backend.name in LOOSE:
        return LOOSE[backend.name]
    terms = problem.channels_per_group * problem.kernel_size ** 2
    return TIGHT[0], TIGHT[1] * max(1.0, terms / 100)


def _ids(problems):
    return ["%dx%d_c%d_f%d_k%d_%s_s%d_d%d_g%d_%s"
            % (p.height, p.width, p.channels, p.filters, p.kernel_size,
               p.padding.value, p.stride, p.dilation, p.groups,
               p.layout.value)
            for p in problems]


def _sweep_ids():
    return _ids(SWEEP)


@pytest.fixture(params=SWEEP, ids=_sweep_ids())
def problem(request):
    return request.param


@pytest.fixture(params=EXTENDED_SWEEP, ids=_ids(EXTENDED_SWEEP))
def extended_problem(request):
    return request.param


class TestParity:
    def test_admitted_backends_match_reference(self, problem, rng):
        registry = default_registry()
        image, filters = problem.random_instance(seed=7)
        reference = conv2d_reference(image, filters, problem.padding)
        admitted = registry.available(problem, KEPLER_K40M,
                                      ensure_fallback=False)
        assert admitted, "no backend admitted %r" % (problem,)
        for backend, config in admitted:
            out = backend.run(image, filters, problem.padding, config=config)
            rtol, atol = _tolerance(backend, problem)
            np.testing.assert_allclose(
                out, reference, rtol=rtol, atol=atol,
                err_msg="backend %r diverges on %r" % (backend.name, problem))

    def test_naive_admitted_everywhere(self, problem):
        names = [b.name for b, _ in default_registry().available(
            problem, KEPLER_K40M)]
        assert "naive" in names


class TestExtendedAxisParity:
    """The same registry-driven contract over the generalized axes:
    every backend admitted for a strided / dilated / grouped / NHWC
    problem must match the generalized reference."""

    def test_admitted_backends_match_reference(self, extended_problem):
        problem = extended_problem
        registry = default_registry()
        image, filters = problem.random_instance(seed=11)
        reference = conv2d_reference(image, filters, problem=problem)
        admitted = registry.available(problem, KEPLER_K40M,
                                      ensure_fallback=False)
        assert admitted, "no backend admitted %s" % problem.describe()
        for backend, config in admitted:
            out = backend.run(image, filters, config=config, problem=problem)
            rtol, atol = _tolerance(backend, problem)
            np.testing.assert_allclose(
                out, reference, rtol=rtol, atol=atol,
                err_msg="backend %r diverges on %s"
                        % (backend.name, problem.describe()))

    def test_depthwise_admitted_for_depthwise_shapes(self, extended_problem):
        problem = extended_problem
        names = [b.name for b, _ in default_registry().available(
            problem, KEPLER_K40M, ensure_fallback=False)]
        is_depthwise = (problem.groups == problem.channels
                        and problem.channels > 1)
        assert ("depthwise" in names) == is_depthwise

    def test_transform_backends_never_admitted(self, extended_problem):
        names = [b.name for b, _ in default_registry().available(
            extended_problem, KEPLER_K40M, ensure_fallback=False)]
        assert "fft" not in names and "winograd" not in names


class TestSupportsBuildContract:
    @pytest.mark.parametrize("arch", [KEPLER_K40M, PASCAL_P100],
                             ids=["kepler", "pascal"])
    def test_supports_implies_build_and_cost(self, arch):
        registry = default_registry()
        for problem in SWEEP + EXTENDED_SWEEP:
            for backend in registry:
                if not backend.supports(problem, arch):
                    continue
                kernel = backend.build(
                    problem, arch, backend.configure(problem, arch)[0])
                # cost() is the cheapest full exercise of the built
                # kernel's launch/trace path.
                assert kernel.cost(problem).launch.threads_per_block > 0

    def test_unsupported_problem_not_admitted(self):
        registry = default_registry()
        # channels > 1: the special case must never be admitted.
        p = ConvProblem.square(32, 3, channels=2, filters=4)
        assert not registry.get("special").supports(p, KEPLER_K40M)
        # K != 3: Winograd must never be admitted.
        p = ConvProblem.square(32, 5, channels=1, filters=4)
        assert not registry.get("winograd").supports(p, KEPLER_K40M)
