"""Tests for cost-model-driven dispatch and graceful degradation."""

import numpy as np
import pytest

from repro.conv.reference import conv2d_reference
from repro.conv.tensors import ConvProblem
from repro.errors import ReproError
from repro.serve import dispatch
from repro.serve.dispatch import DEFAULT_BACKENDS, Dispatcher, KernelPlan
from repro.serve.plan_cache import PlanCache
from repro.serve.request import ConvRequest

SPECIAL = ConvProblem.square(48, 3, channels=1, filters=4)
GENERAL = ConvProblem.square(32, 3, channels=8, filters=16)
DEPTHWISE = ConvProblem.square(24, 3, channels=6, filters=12, groups=6,
                               stride=2)

#: Sentinel planted in an image to make FlakyMarkerKernel fail on it.
POISON = -1.0e30


def make_request(problem, req_id=0):
    image, filters = problem.random_instance(seed=req_id)
    return ConvRequest(req_id=req_id, problem=problem, image=image,
                       filters=filters)


class FlakyMarkerKernel:
    """Fails exactly on requests whose image carries the POISON marker.

    Module-level (hence picklable) so the mixed-batch accounting test
    behaves the same whether ``execute`` runs serially or fans out.
    """

    name = "flaky"

    def run(self, image, filters, padding=0, problem=None):
        # Threshold, not equality: float32 storage rounds the marker.
        if image.flat[0] < POISON / 2:
            raise RuntimeError("kernel exploded on marked request")
        return conv2d_reference(image, filters, padding, problem=problem)


class TestPlanning:
    def test_plan_picks_cheapest_candidate(self):
        dispatcher = Dispatcher()
        plan = dispatcher.plan(GENERAL)
        assert plan.backend in DEFAULT_BACKENDS
        assert plan.breakdown.total == min(plan.candidates.values())
        assert plan.candidates[plan.backend] == plan.breakdown.total

    def test_special_candidate_only_for_single_channel(self):
        dispatcher = Dispatcher()
        assert "special" in dispatcher.plan(SPECIAL).candidates
        assert "special" not in dispatcher.plan(GENERAL).candidates

    def test_paper_kernel_plans_carry_their_dse_config(self):
        dispatcher = Dispatcher(backends=("general",))
        plan = dispatcher.plan(GENERAL)
        assert plan.backend == "general"
        assert plan.config is not None

    def test_plans_are_cached_per_shape(self):
        cache = PlanCache()
        dispatcher = Dispatcher(cache=cache)
        first = dispatcher.plan(GENERAL)
        second = dispatcher.plan(GENERAL)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_naive_backend_always_enabled(self):
        dispatcher = Dispatcher(backends=("general",))
        assert "naive" in dispatcher.backends

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError):
            Dispatcher(backends=("special", "tensor-core"))

    def test_degrades_to_naive_when_nothing_plans(self, monkeypatch):
        dispatcher = Dispatcher()

        class Exploding:
            name = "boom"

            def predict(self, problem, model=None):
                raise ReproError("no plan for you")

        monkeypatch.setattr(
            dispatcher, "_candidates",
            lambda problem: iter([("general", Exploding(), None)]),
        )
        plan = dispatcher.build_plan(GENERAL)
        assert plan.backend == "naive"
        assert plan.source == "degraded"

    def test_batch_seconds_amortizes_launch_only(self):
        dispatcher = Dispatcher()
        plan = dispatcher.plan(GENERAL)
        t4 = plan.batch_seconds(4)
        assert t4 == pytest.approx(plan.launch_s + 4 * plan.busy_s)
        assert t4 < 4 * plan.breakdown.total


class TestExecution:
    def test_reference_executor_is_bit_exact(self):
        dispatcher = Dispatcher()
        plan = dispatcher.plan(GENERAL)
        request = make_request(GENERAL)
        output, fell = dispatcher.run_one(plan, request, executor="reference")
        assert not fell
        assert np.array_equal(
            output, conv2d_reference(request.image, request.filters))

    def test_kernel_executor_matches_reference(self):
        dispatcher = Dispatcher(backends=("general",))
        plan = dispatcher.plan(GENERAL)
        request = make_request(GENERAL)
        output, fell = dispatcher.run_one(plan, request, executor="kernel")
        assert not fell
        np.testing.assert_allclose(
            output, conv2d_reference(request.image, request.filters),
            rtol=1e-4, atol=1e-5)

    def test_unknown_executor_rejected(self):
        dispatcher = Dispatcher()
        plan = dispatcher.plan(GENERAL)
        with pytest.raises(ReproError):
            dispatcher.run_one(plan, make_request(GENERAL), executor="magic")

    def test_fallback_on_kernel_error(self):
        dispatcher = Dispatcher()
        plan = dispatcher.plan(GENERAL)

        class Broken:
            name = "broken"

            def run(self, image, filters, padding):
                raise RuntimeError("kernel exploded")

        broken_plan = KernelPlan(
            problem=GENERAL, backend=plan.backend, kernel=Broken(),
            breakdown=plan.breakdown, config=plan.config,
        )
        requests = [make_request(GENERAL, i) for i in range(3)]
        outputs, fell, seconds = dispatcher.execute(
            broken_plan, requests, executor="kernel")
        assert fell == [True, True, True]
        for request, output in zip(requests, outputs):
            assert np.array_equal(
                output, conv2d_reference(request.image, request.filters))
        # The batch is re-priced as a naive launch.
        naive = dispatcher.fallback_plan(GENERAL)
        assert seconds == pytest.approx(naive.batch_seconds(3))

    def test_partial_fallback_prices_both_launches(self):
        dispatcher = Dispatcher()
        plan = dispatcher.plan(GENERAL)
        requests = [make_request(GENERAL, i) for i in range(4)]
        requests[2].image.flat[0] = POISON
        flaky_plan = KernelPlan(
            problem=GENERAL, backend=plan.backend,
            kernel=FlakyMarkerKernel(), breakdown=plan.breakdown,
            config=plan.config,
        )
        _, fell, seconds = dispatcher.execute(
            flaky_plan, requests, executor="kernel")
        assert fell == [False, False, True, False]
        naive = dispatcher.fallback_plan(GENERAL)
        assert seconds == pytest.approx(
            plan.batch_seconds(3) + naive.batch_seconds(1))

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("problem", [SPECIAL, GENERAL, DEPTHWISE],
                             ids=["special", "general", "depthwise"])
    def test_reference_batch_is_one_reference_call(self, monkeypatch,
                                                   problem, jobs):
        dispatcher = Dispatcher(jobs=jobs)
        plan = dispatcher.plan(problem)
        requests = [make_request(problem, i) for i in range(5)]
        singles = [dispatcher.run_one(plan, r)[0] for r in requests]

        shapes = []
        real = dispatch.conv2d_reference

        def counting(image, filters, *args, **kwargs):
            shapes.append(np.shape(image))
            return real(image, filters, *args, **kwargs)

        monkeypatch.setattr(dispatch, "conv2d_reference", counting)
        outputs, fell, seconds = dispatcher.execute(plan, requests, jobs=jobs)
        assert shapes == [(5,) + problem.image_shape]
        assert fell == [False] * 5
        assert seconds == pytest.approx(plan.batch_seconds(5))
        for output, single in zip(outputs, singles):
            assert np.array_equal(output.view(np.uint32),
                                  single.view(np.uint32))

    def test_reference_batch_rejects_mixed_shapes(self):
        dispatcher = Dispatcher()
        plan = dispatcher.plan(GENERAL)
        requests = [make_request(GENERAL, 0), make_request(SPECIAL, 1)]
        with pytest.raises(ReproError):
            dispatcher.execute(plan, requests)

    def test_empty_batch_serves_nothing(self):
        dispatcher = Dispatcher()
        plan = dispatcher.plan(GENERAL)
        assert dispatcher.execute(plan, []) == ([], [], 0.0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mixed_batch_fallback_accounting(self, jobs):
        """dispatch_fallbacks_total and the naive surcharge must both
        equal the number of requests that actually fell back."""
        dispatcher = Dispatcher()
        plan = dispatcher.plan(GENERAL)
        requests = [make_request(GENERAL, i) for i in range(5)]
        for i in (1, 3):
            requests[i].image.flat[0] = POISON
        flaky_plan = KernelPlan(
            problem=GENERAL, backend=plan.backend,
            kernel=FlakyMarkerKernel(), breakdown=plan.breakdown,
            config=plan.config,
        )
        outputs, fell, seconds = dispatcher.execute(
            flaky_plan, requests, executor="kernel", jobs=jobs)
        assert fell == [False, True, False, True, False]
        # Counter and pricing agree with the per-request flags.
        fallbacks = dispatcher.registry.get("dispatch_fallbacks_total")
        assert fallbacks.total() == float(sum(fell)) == 2.0
        naive = dispatcher.fallback_plan(GENERAL)
        assert seconds == pytest.approx(
            plan.batch_seconds(3) + naive.batch_seconds(2))
        # Fallen-back requests still produce correct outputs.
        for request, output in zip(requests, outputs):
            assert np.array_equal(
                output, conv2d_reference(request.image, request.filters))
