"""Benchmarks of the simulation substrate itself: how fast the
functional executors and the tracing/timing pipeline run on the host.
These are the numbers a user of the library cares about when scaling
experiments (wall-clock per simulated kernel launch)."""

from unittest import mock

import numpy as np
import pytest

from repro.baselines.direct_naive import NaiveDirectKernel
from repro.baselines.implicit_gemm import DEFAULT_TILE_PALETTE, ImplicitGemmKernel
from repro.conv.tensors import ConvProblem, Padding
from repro.core.dse import (
    best_config,
    default_general_problem,
    explore_general,
)
from repro.core.general import (
    SMALL_IMAGE_CONFIGS,
    GeneralCaseKernel,
    _filter_load_batch,
    _flt_row_read_batch,
    _img_row_read_batch,
    _writeback_batch,
    palette,
)
from repro.core.special import SpecialCaseKernel
from repro.gpu.arch import KEPLER_K40M
from repro.gpu.memory.banks import SharedMemoryModel
from repro.gpu.memory.globalmem import GlobalMemoryModel
from repro.gpu.timing import TimingModel
from repro.gpu.trace import clear_access_caches, lane_batch
from repro.serve.dispatch import Dispatcher


@pytest.fixture(scope="module")
def special_instance():
    rng = np.random.default_rng(0)
    img = rng.standard_normal((256, 512)).astype(np.float32)
    flt = rng.standard_normal((4, 3, 3)).astype(np.float32)
    return img, flt


@pytest.fixture(scope="module")
def general_instance():
    rng = np.random.default_rng(1)
    img = rng.standard_normal((8, 36, 36)).astype(np.float32)
    flt = rng.standard_normal((16, 8, 3, 3)).astype(np.float32)
    return img, flt


def test_special_functional_execution(benchmark, special_instance):
    img, flt = special_instance
    kern = SpecialCaseKernel()
    out = benchmark(kern.run, img, flt)
    assert out.shape == (4, 254, 510)


def test_general_functional_execution(benchmark, general_instance):
    img, flt = general_instance
    kern = GeneralCaseKernel()
    out = benchmark(kern.run, img, flt)
    assert out.shape == (16, 34, 34)


def test_special_cost_tracing(benchmark):
    kern = SpecialCaseKernel()
    p = ConvProblem.square(2048, 3, channels=1, filters=32)
    cost = benchmark(kern.cost, p)
    assert cost.flops >= p.flops


def test_general_cost_tracing(benchmark):
    kern = GeneralCaseKernel()
    p = ConvProblem.square(224, 3, channels=64, filters=128)
    cost = benchmark(kern.cost, p)
    assert cost.flops >= p.flops


def test_implicit_gemm_cost_with_tile_selection(benchmark):
    kern = ImplicitGemmKernel()
    p = ConvProblem.square(128, 3, channels=64, filters=128)
    cost = benchmark(kern.cost, p)
    assert cost.flops >= p.flops


def test_end_to_end_prediction(benchmark):
    kern = GeneralCaseKernel()
    p = ConvProblem.square(128, 5, channels=64, filters=128)
    gflops = benchmark(kern.gflops, p)
    assert gflops > 0


def test_explore_general_warm(benchmark):
    """The Table 1 K=3 search on Kepler once its warp patterns are
    cached: the per-candidate price of cost fold plus timing model."""
    explore_general(3, KEPLER_K40M)
    ranked = benchmark(explore_general, 3, KEPLER_K40M)
    assert len(ranked) == 986


def test_best_config_full_warm(benchmark):
    """``best_config(..., full=True)`` for Table 1's K=3 row on Kepler
    once its warp patterns are cached: the bounded search over the same
    986 candidates, which prices only the ones that can still win, and
    answers the full ranking's winner."""
    problem = default_general_problem(3)
    ranked = explore_general(3, KEPLER_K40M)
    winner = benchmark(best_config, problem, KEPLER_K40M, case="general",
                       full=True)
    assert winner == ranked[0]


# Per-candidate pricing: what one floor or price of a search costs once
# its warp patterns are cached, on a serving-churn-sized shape.  A plan
# build prices several floors per backend it bounds (docs/SIMULATOR.md,
# "Floors and the bounded search").

CHURN_SHAPE = ConvProblem.square(40, 3, channels=8, filters=16)


def test_timing_evaluate(benchmark):
    """One ``TimingModel.evaluate``: the arithmetic every floor and
    price ends in."""
    model = TimingModel(KEPLER_K40M)
    cost = GeneralCaseKernel().cost(CHURN_SHAPE)
    breakdown = benchmark(model.evaluate, cost)
    assert breakdown == model.evaluate(cost)


def test_special_floor_evaluate(benchmark):
    """One special-case candidate's floor, priced."""
    model = TimingModel(KEPLER_K40M)
    kernel = SpecialCaseKernel()
    problem = ConvProblem.square(40, 3, channels=1, filters=16)
    floor = benchmark(lambda: model.evaluate(kernel.floor(problem)))
    assert floor.total <= kernel.predict(problem).total


def test_general_floor_evaluate(benchmark):
    """One general-case palette candidate's floor, priced."""
    model = TimingModel(KEPLER_K40M)
    kernel = GeneralCaseKernel(config=SMALL_IMAGE_CONFIGS[0])
    floor = benchmark(lambda: model.evaluate(kernel.floor(CHURN_SHAPE)))
    assert floor.total <= kernel.predict(CHURN_SHAPE).total


def test_implicit_gemm_tile_floor(benchmark):
    """One implicit-GEMM palette tile's floor, priced."""
    model = TimingModel(KEPLER_K40M)
    kernel = ImplicitGemmKernel(tiling=DEFAULT_TILE_PALETTE[2])
    floor = benchmark(lambda: model.evaluate(kernel.floor(CHURN_SHAPE)))
    assert floor.total <= kernel.predict(CHURN_SHAPE).total


def test_bounded_general_search(benchmark):
    """One bounded general search as a plan build runs it: the palette,
    every candidate's floor, and the prices that can still come in
    under naive's time."""
    limit = NaiveDirectKernel().predict(CHURN_SHAPE).total

    def search():
        return explore_general(3, KEPLER_K40M, CHURN_SHAPE,
                               palette(3, 2), limit=limit)

    search()
    winner = benchmark(search)
    assert winner.ranked.config == SMALL_IMAGE_CONFIGS[2]
    assert winner.breakdown.total <= limit


def clear_search_caches():
    """Forget every memory-model result and geometry batch a search
    reuses, as a fresh process starts."""
    clear_access_caches()
    for cached in (lane_batch, _img_row_read_batch, _flt_row_read_batch,
                   _writeback_batch, _filter_load_batch):
        cached.cache_clear()


def test_explore_general_cold(benchmark):
    """The same search from cold caches, as each end-to-end benchmark
    child prices it: the memory models and the geometry batches are
    rebuilt in the timed part (the clearing before each round is not
    timed)."""
    ranked = benchmark.pedantic(explore_general, args=(3, KEPLER_K40M),
                                setup=clear_search_caches, rounds=5)
    assert len(ranked) == 986


def churn_style_shapes():
    """32 distinct serving shapes: plain, stride 2, dilation 2 and
    depthwise in turn; K 3 and 5; H 16-64, C 1-16, F 4-16."""
    shapes = []
    for i in range(32):
        c = 1 + (7 * i) % 16
        axes = ({}, {"stride": 2}, {"dilation": 2}, {"groups": c})[i % 4]
        f = 4 + (5 * i) % 13
        if "groups" in axes:
            f = c * max(1, f // c)
        shapes.append(ConvProblem.square(
            16 + (13 * i) % 49, (3, 5)[(i // 4) % 2], channels=c, filters=f,
            padding=(Padding.VALID, Padding.SAME)[(i // 8) % 2], **axes))
    return shapes


def test_plan_build_warm(benchmark):
    """Serving plan builds (naive's price, then a walk that admits each
    backend under the lowest price so far and prices the ones that can
    still win) over 32 churn-style shapes once their warp patterns are
    cached."""
    dispatcher = Dispatcher()
    shapes = churn_style_shapes()
    assert len(set(shapes)) == 32

    def build_all():
        return [dispatcher.build_plan(problem) for problem in shapes]

    build_all()
    plans = benchmark(build_all)
    assert [plan.source for plan in plans] == ["cost-model"] * 32


# The cost benchmarks above hit the canonical-pattern cache on every
# lookup after their first round.  A search, a plan build or the
# interpreter meeting a pattern for the first time pays the memory
# models themselves; these cases time that cold path on every warp
# pattern the Table 1 K=3 winner's cost replays.

@pytest.fixture(scope="module")
def winner_patterns():
    """``(smem_calls, gmem_calls)``: the model arguments of every
    distinct pattern the K=3 winner's cost sends to the models."""
    problem = default_general_problem(3)
    winner = best_config(problem, KEPLER_K40M, case="general", full=True)
    kernel = GeneralCaseKernel(arch=KEPLER_K40M, config=winner.config)
    clear_access_caches()
    with mock.patch.object(SharedMemoryModel, "access", autospec=True,
                           side_effect=SharedMemoryModel.access) as smem, \
            mock.patch.object(GlobalMemoryModel, "access", autospec=True,
                              side_effect=GlobalMemoryModel.access) as gmem:
        kernel.cost(problem)
    return ([call.args[1:] for call in smem.call_args_list],
            [call.args[1:] for call in gmem.call_args_list])


def test_smem_model_cold_path(benchmark, winner_patterns):
    model = SharedMemoryModel(KEPLER_K40M)
    calls = winner_patterns[0]
    results = benchmark(lambda: [model.access(*args) for args in calls])
    assert len(results) == len(calls) > 0


def test_gmem_model_cold_path(benchmark, winner_patterns):
    model = GlobalMemoryModel(KEPLER_K40M)
    calls = winner_patterns[1]
    results = benchmark(lambda: [model.access(*args) for args in calls])
    assert len(results) == len(calls) > 0
