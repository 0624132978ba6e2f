"""End-to-end serving through the registry-only backends: FFT and
Winograd plan, price and serve bit-identical outputs via ServeEngine."""

import numpy as np
import pytest

from repro.conv.reference import conv2d_reference
from repro.conv.tensors import ConvProblem
from repro.serve.engine import ServeEngine
from repro.serve.request import ConvRequest


def _serve_one(engine, problem, seed=3):
    """Serve one request; assert its output is the reference, bit for bit."""
    image, filters = problem.random_instance(seed=seed)
    request = ConvRequest(req_id=0, problem=problem, image=image,
                          filters=filters)
    responses = engine.serve_trace([request])
    assert len(responses) == 1
    assert np.array_equal(responses[0].output,
                          conv2d_reference(image, filters, problem=problem))
    return responses[0]


class TestFFTServing:
    #: FFT beats naive outright on a large-filter problem, so the cost
    #: model picks it even with the fallback in the candidate set.
    PROBLEM = ConvProblem.square(48, 7, channels=16, filters=16)

    def test_plan_picks_fft(self):
        engine = ServeEngine(backends=("fft",))
        plan = engine.dispatcher.plan(self.PROBLEM)
        assert plan.backend == "fft"
        assert "fft" in plan.candidates and "naive" in plan.candidates

    def test_round_trip_is_bit_exact(self):
        engine = ServeEngine(backends=("fft",))
        assert _serve_one(engine, self.PROBLEM).backend == "fft"


class TestWinogradServing:
    #: A deep 3x3 layer: Winograd's 2.25x multiply reduction wins.
    PROBLEM = ConvProblem.square(32, 3, channels=32, filters=32)

    def test_plan_picks_winograd(self):
        engine = ServeEngine(backends=("winograd",))
        plan = engine.dispatcher.plan(self.PROBLEM)
        assert plan.backend == "winograd"

    def test_round_trip_is_bit_exact(self):
        engine = ServeEngine(backends=("winograd",))
        assert _serve_one(engine, self.PROBLEM).backend == "winograd"

    def test_non_3x3_degrades_to_naive(self):
        # Winograd cannot serve K=5; the registry's fallback invariant
        # still produces a plan.
        engine = ServeEngine(backends=("winograd",))
        problem = ConvProblem.square(24, 5, channels=4, filters=4)
        assert _serve_one(engine, problem).backend == "naive"


class TestDefaultPortfolio:
    def test_winograd_wins_in_full_portfolio(self):
        # With every backend enabled a deep 3x3 layer still routes to
        # Winograd -- it is a first-class citizen, not an opt-in.  (At
        # this depth the 2.25x multiply reduction beats even the tuned
        # general-case kernel.)
        engine = ServeEngine()
        problem = ConvProblem.square(64, 3, channels=256, filters=256)
        plan = engine.dispatcher.plan(problem)
        assert plan.backend == "winograd"
        assert set(plan.candidates) >= {"general", "naive", "winograd"}

    def test_unknown_backend_rejected_with_names(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="registered backends"):
            ServeEngine(backends=("fft", "tensor-core"))
