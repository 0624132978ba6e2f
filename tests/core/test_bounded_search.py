"""Floors and the bounded configuration search.

A kernel's floor is its cost's launch, FLOPs and barriers with none of
its shared- or constant-memory traffic; the paper kernels' floors also
carry the global-memory bytes their cost cannot go below (each request
row's distinct bytes, in the fold's order and multiplicity).  Every
traffic field of a floor is at or below the cost's, a floor consults no
memory model, and its modeled time never exceeds the price.  The
bounded search prices candidates in floor order and stops once no
unpriced candidate can win, so it must return exactly the full
ranking's winner, with the breakdown and cost that priced it, or
nothing when that winner takes longer than the limit.  A limit at or
below zero prices nothing, and a NaN limit is refused.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines.direct_naive import NaiveDirectKernel
from repro.baselines.fft_conv import FFTConvolution
from repro.baselines.im2col import Im2colKernel
from repro.baselines.implicit_gemm import DEFAULT_TILE_PALETTE, ImplicitGemmKernel
from repro.baselines.winograd import WinogradConvolution
from repro.conv.tensors import ConvProblem
from repro.core.bankwidth import DataType, matched_vector
from repro.core.config import GeneralCaseConfig
from repro.core.depthwise import DepthwiseKernel
from repro.core.dse import (
    DEFAULT_SPECIAL_PROBLEM,
    PricedConfig,
    RankedConfig,
    _bounded,
    default_general_problem,
    enumerate_general_configs,
    enumerate_special_configs,
    explore_general,
    explore_special,
)
from repro.core.general import GeneralCaseKernel, palette
from repro.core.special import SpecialCaseKernel
from repro.errors import ConfigurationError, LaunchConfigError, ReproError
from repro.gpu.arch import ARCHITECTURES, KEPLER_K40M
from repro.gpu.memory.banks import BankConflictPolicy, SharedMemoryModel
from repro.gpu.memory.constmem import ConstantMemoryModel
from repro.gpu.memory.globalmem import GlobalMemoryModel
from repro.gpu.timing import TimingModel
from repro.gpu.trace import KernelTracer
from repro.kernels import default_registry
from repro.obs import Registry, Tracer, set_registry, set_tracer
from repro.serve.trace import SHAPE_FAMILIES

PRESETS = list(ARCHITECTURES.values())
PRESET_IDS = list(ARCHITECTURES)


def _churn_style_shapes(count=32, seed=11):
    """Plain, strided, dilated and depthwise shapes in turn, H 16-64,
    K 3/5, C 1-16, F 4-16, as a cold serving engine plans them."""
    rng = np.random.default_rng(seed)
    shapes = []
    for i in range(count):
        h = int(rng.integers(16, 65))
        c = int(rng.integers(1, 17))
        f = int(rng.integers(4, 17))
        kind, kwargs = i % 4, {}
        if kind == 1:
            kwargs["stride"] = 2
        elif kind == 2:
            kwargs["dilation"] = 2
        elif kind == 3:
            c = f = kwargs["groups"] = max(c, 2)
        shapes.append(ConvProblem.square(h, (3, 5)[(i // 4) % 2],
                                         channels=c, filters=f, **kwargs))
    return shapes


#: Serving shapes (the mixed family includes the classic six), 32
#: churn-style shapes, and a plain and a strided shape for every filter
#: size 1-7, so every ``palette(K, n)`` is exercised.
SERVING_SHAPES = list(dict.fromkeys(
    list(SHAPE_FAMILIES["mixed"]) + _churn_style_shapes() + [
        ConvProblem.square(24 + 4 * k, k, channels=c, filters=12, **kw)
        for k in range(1, 8) for c in (1, 6)
        for kw in ({}, {"stride": 2})]))

#: Outputs 1x1 to 4x4, plain and stride 2, K 1 and 3, C 2 and 6.  The
#: general kernel's filter maps are then fewer bytes apart than its
#: writeback lanes span, so lanes alias: a request's distinct bytes are
#: below the bytes it asks for, and a floor of requested bytes would
#: exceed the price.
TINY_OUTPUT_SHAPES = [
    ConvProblem.square((out - 1) * s + k, k, channels=c, filters=8, stride=s)
    for out in range(1, 5) for s in (1, 2) for k in (1, 3) for c in (2, 6)]

TABLE1_PROBLEMS = [default_general_problem(k) for k in (3, 5, 7)]

#: The kernel variants the ablations build: unmatched vectors, the
#: short data types and the paper's bank policy.
VARIANTS = {
    "unmatched": {"matched": False},
    "half": {"dtype": DataType.HALF},
    "char": {"dtype": DataType.CHAR},
    "paper": {"bank_policy": BankConflictPolicy.PAPER},
}

#: The mixed serving family, a plain and a strided shape for every
#: filter size 1-7, and the tiny outputs whose writeback lanes alias.
VARIANT_SHAPES = list(dict.fromkeys(
    list(SHAPE_FAMILIES["mixed"]) + [
        ConvProblem.square(24 + 4 * k, k, channels=c, filters=12, **kw)
        for k in range(1, 8) for c in (1, 6)
        for kw in ({}, {"stride": 2})] + TINY_OUTPUT_SHAPES))


def _special_problem(problem):
    """The problem a special-case search prices for a serving shape."""
    if problem.groups == problem.channels > 1:
        return DepthwiseKernel.group_problem(problem)
    return problem


def _outcome(fn):
    """``fn()``, or the type and message of the error it raised."""
    try:
        return fn()
    except ReproError as exc:
        return (type(exc), str(exc))


def _check_floor(kernel, problem, model):
    """The floor's frame equals the cost's, each of its global-memory
    byte counts is at or below the cost's, it has no shared- or
    constant-memory traffic, and its time is no larger; both raise the
    same error or neither does.  Returns whether the candidate is
    valid."""
    priced = _outcome(lambda: model.evaluate(kernel.cost(problem)))
    floored = _outcome(lambda: model.evaluate(kernel.floor(problem)))
    if isinstance(priced, tuple):
        assert floored == priced, (kernel.name, problem.describe())
        return False
    assert not isinstance(floored, tuple), (kernel.name, floored)
    cost, floor = kernel.cost(problem), kernel.floor(problem)
    assert floor.launch == cost.launch
    assert floor.name == cost.name
    assert floor.ledger.flops == cost.ledger.flops
    assert floor.ledger.syncthreads == cost.ledger.syncthreads
    assert floor.launches == cost.launches
    assert floor.software_prefetch == cost.software_prefetch
    assert not floor.ledger.sites
    for field in ("gmem_read_bytes_moved", "gmem_write_bytes_moved",
                  "gmem_l2_bytes"):
        assert getattr(floor.ledger, field) <= getattr(cost.ledger, field), (
            kernel.name, problem.describe(), field)
    assert floor.ledger.smem_cycles == floor.ledger.cmem_cycles == 0
    assert floored.total <= priced.total, (kernel.name, problem.describe())
    return True


class TestFloorIsALowerBound:
    @pytest.mark.parametrize("arch", PRESETS, ids=PRESET_IDS)
    def test_table1_candidates(self, arch):
        n = matched_vector(arch).n
        model = TimingModel(arch)
        valid = 0
        for k, problem in zip((3, 5, 7), TABLE1_PROBLEMS):
            for cfg in enumerate_general_configs(k, n, arch):
                valid += _check_floor(
                    GeneralCaseKernel(arch=arch, config=cfg), problem, model)
        for cfg in enumerate_special_configs():
            valid += _check_floor(SpecialCaseKernel(arch=arch, config=cfg),
                                  DEFAULT_SPECIAL_PROBLEM, model)
        assert valid > 400

    @pytest.mark.parametrize("arch", PRESETS, ids=PRESET_IDS)
    def test_serving_candidates(self, arch):
        n = matched_vector(arch).n
        model = TimingModel(arch)
        outcomes = {True: 0, False: 0}
        for problem in SERVING_SHAPES:
            for cfg in palette(problem.kernel_size, n):
                outcomes[_check_floor(GeneralCaseKernel(arch=arch, config=cfg),
                                      problem, model)] += 1
            for cfg in enumerate_special_configs():
                outcomes[_check_floor(SpecialCaseKernel(arch=arch, config=cfg),
                                      _special_problem(problem), model)] += 1
        # Both sides of the raise-alike check are exercised.
        assert outcomes[True] > 100 and outcomes[False] > 100

    @pytest.mark.parametrize("variant", list(VARIANTS))
    @pytest.mark.parametrize("arch", PRESETS, ids=PRESET_IDS)
    def test_variant_candidates(self, arch, variant):
        kwargs = VARIANTS[variant]
        n = GeneralCaseKernel(arch=arch, **kwargs).n
        model = TimingModel(arch)
        outcomes = {True: 0, False: 0}
        for problem in VARIANT_SHAPES:
            for cfg in palette(problem.kernel_size, n):
                outcomes[_check_floor(
                    GeneralCaseKernel(arch=arch, config=cfg, **kwargs),
                    problem, model)] += 1
            for cfg in enumerate_special_configs():
                outcomes[_check_floor(
                    SpecialCaseKernel(arch=arch, config=cfg, **kwargs),
                    _special_problem(problem), model)] += 1
        # Both sides of the raise-alike check are exercised.
        assert outcomes[True] > 100 and outcomes[False] > 100

    @pytest.mark.parametrize("arch", PRESETS, ids=PRESET_IDS)
    def test_tiny_outputs(self, arch):
        n = matched_vector(arch).n
        model = TimingModel(arch)
        valid = aliased = 0
        for problem in TINY_OUTPUT_SHAPES:
            for cfg in palette(problem.kernel_size, n):
                kernel = GeneralCaseKernel(arch=arch, config=cfg)
                if _check_floor(kernel, problem, model):
                    valid += 1
                    site = kernel.cost(problem).ledger.sites[
                        "gm.store_out[gmem.write]"]
                    aliased += site.unique_bytes < site.request_bytes
            single = ConvProblem.square(problem.height, problem.kernel_size,
                                        channels=1, filters=8,
                                        stride=problem.stride)
            for cfg in enumerate_special_configs():
                valid += _check_floor(SpecialCaseKernel(arch=arch, config=cfg),
                                      single, model)
        # Writeback lanes alias on every preset (Fermi fits the general
        # palette only at K=1).
        assert valid > 200 and aliased

    @pytest.mark.parametrize("arch", PRESETS, ids=PRESET_IDS)
    def test_portfolio_candidates(self, arch):
        # Every other kernel a plan build can bound: im2col, each
        # implicit-GEMM palette tile (and the palette kernel, whose floor
        # is its selected tile's), FFT and both Winograd tiles.
        kernels = [Im2colKernel(arch=arch), FFTConvolution(arch=arch),
                   WinogradConvolution(arch=arch),
                   WinogradConvolution(arch=arch, tile=4),
                   ImplicitGemmKernel(arch=arch)] + [
            ImplicitGemmKernel(arch=arch, tiling=t)
            for t in DEFAULT_TILE_PALETTE]
        model = TimingModel(arch)
        outcomes = {True: 0, False: 0}
        for problem in SERVING_SHAPES:
            for kernel in kernels:
                outcomes[_check_floor(kernel, problem, model)] += 1
        # Both sides of the raise-alike check are exercised: the
        # implicit GEMM refuses grouped problems, Winograd K != 3.
        assert outcomes[True] > 300 and outcomes[False] > 100

    @pytest.mark.parametrize("cfg,message", [
        (GeneralCaseConfig(w=64, h=8, ftb=64, wt=4, ft=16, csh=4),
         "50720 bytes of shared memory/block exceeds limit"),
        (GeneralCaseConfig(w=16, h=4, ftb=32, wt=4, ft=16, csh=4),
         "266 registers/thread exceeds limit 255"),
    ], ids=["smem", "registers"])
    def test_invalid_launch_raises_from_evaluate(self, cfg, message):
        # Dilation widens the staged footprint past what the enumeration
        # (at dilation 1) checked: ``cost`` raises in its launch
        # validation, the floor when it is evaluated, alike.
        arch = ARCHITECTURES["kepler"]
        kernel = GeneralCaseKernel(arch=arch, config=cfg)
        problem = ConvProblem.square(64, 5, channels=8, filters=32,
                                     dilation=3)
        with pytest.raises(LaunchConfigError, match=message) as priced:
            kernel.cost(problem)
        floor = kernel.floor(problem)
        with pytest.raises(LaunchConfigError) as floored:
            TimingModel(arch).evaluate(floor)
        assert str(floored.value) == str(priced.value)


def _paper_candidates(arch):
    """Every special and general candidate the property tests check,
    as ``(kernel, problem)`` pairs."""
    n = matched_vector(arch).n
    for k, problem in zip((3, 5, 7), TABLE1_PROBLEMS):
        for cfg in enumerate_general_configs(k, n, arch):
            yield GeneralCaseKernel(arch=arch, config=cfg), problem
    for cfg in enumerate_special_configs():
        yield SpecialCaseKernel(arch=arch, config=cfg), DEFAULT_SPECIAL_PROBLEM
    for problem in SERVING_SHAPES + TINY_OUTPUT_SHAPES:
        for cfg in palette(problem.kernel_size, n):
            yield GeneralCaseKernel(arch=arch, config=cfg), problem
        for cfg in enumerate_special_configs():
            yield (SpecialCaseKernel(arch=arch, config=cfg),
                   _special_problem(problem))


class TestFloorMakesNoLookup:
    @pytest.mark.parametrize("arch", PRESETS, ids=PRESET_IDS)
    def test_no_memory_model_call(self, arch, monkeypatch):
        def lookup(*args, **kwargs):
            raise AssertionError("a memory model was consulted")

        for model in (GlobalMemoryModel, SharedMemoryModel,
                      ConstantMemoryModel):
            monkeypatch.setattr(model, "access", lookup)
        monkeypatch.setattr(KernelTracer, "_lookup", lookup)
        floors = 0
        for kernel, problem in _paper_candidates(arch):
            try:
                kernel.floor(problem)
            except ReproError:
                continue
            floors += 1
        assert floors > 1000
        # The patch does see the price's lookups.
        with pytest.raises(AssertionError, match="consulted"):
            SpecialCaseKernel(arch=arch).cost(DEFAULT_SPECIAL_PROBLEM)


def _limits(arch, problem, winner_s):
    naive_s = NaiveDirectKernel(arch=arch).predict(problem).total
    return (math.inf, winner_s, math.nextafter(winner_s, 0.0),
            math.nextafter(winner_s, math.inf), naive_s)


def _check_bounded(search, kernel_cls, arch, problem):
    """``search(limit=L)`` is ``None`` iff the winner takes longer than
    ``L``; otherwise it is the full ranking's first entry, with the
    winner's own cost and ``predict``.  A full ranking that raises makes
    every bounded search raise the same.  Returns how many limits
    bounded the search out."""
    full = _outcome(search)
    if isinstance(full, tuple):
        for limit in (math.inf, 1e-9):
            assert _outcome(lambda: search(limit=limit)) == full
        return 0
    assert full, problem.describe()
    winner = kernel_cls(arch=arch, config=full[0].config)
    winner_bd = winner.predict(problem)
    empty = 0
    for limit in _limits(arch, problem, winner_bd.total):
        bounded = search(limit=limit)
        if winner_bd.total > limit:
            assert bounded is None, (problem.describe(), limit)
            empty += 1
        else:
            assert bounded == (full[0], winner_bd, winner.cost(problem)), (
                problem.describe(), limit)
    return empty


@pytest.fixture
def scoped_obs():
    """Fresh process-wide registry and tracer for one test."""
    registry, tracer = Registry(), Tracer()
    old_registry, old_tracer = set_registry(registry), set_tracer(tracer)
    try:
        yield registry, tracer
    finally:
        set_registry(old_registry)
        set_tracer(old_tracer)


class TestBoundedSearchEqualsFullRanking:
    @pytest.mark.parametrize("arch", PRESETS, ids=PRESET_IDS)
    def test_table1_searches(self, scoped_obs, arch):
        for k, problem in zip((3, 5, 7), TABLE1_PROBLEMS):
            _check_bounded(
                lambda limit=None: explore_general(k, arch, limit=limit),
                GeneralCaseKernel, arch, problem)
        _check_bounded(lambda limit=None: explore_special(arch, limit=limit),
                       SpecialCaseKernel, arch, DEFAULT_SPECIAL_PROBLEM)

    @pytest.mark.parametrize("arch", PRESETS, ids=PRESET_IDS)
    def test_serving_searches(self, scoped_obs, arch):
        n = matched_vector(arch).n
        searches = empty = 0
        for problem in SERVING_SHAPES:
            k = problem.kernel_size
            configs = palette(k, n)
            if problem.groups == 1 and _outcome(
                    lambda: explore_general(k, arch, problem, configs)) != []:
                searches += 1
                empty += _check_bounded(
                    lambda limit=None: explore_general(
                        k, arch, problem, configs, limit=limit),
                    GeneralCaseKernel, arch, problem)
            special = _special_problem(problem)
            if special.channels == 1 and explore_special(arch, special):
                searches += 1
                empty += _check_bounded(
                    lambda limit=None: explore_special(arch, special,
                                                       limit=limit),
                    SpecialCaseKernel, arch, special)
        assert searches > 20
        # The winner's own time just below it, and naive's time on
        # some shapes, bound a search out.
        assert empty > searches

    def test_no_valid_candidate(self, scoped_obs):
        # The general kernel refuses every grouped problem.
        problem = ConvProblem.square(32, 3, channels=4, filters=8, groups=2)
        assert explore_general(3, problem=problem) == []
        for limit in (math.inf, 1.0):
            with pytest.raises(ConfigurationError):
                explore_general(3, problem=problem, limit=limit)


class TestBoundedSearchTelemetry:
    def test_priced_plus_pruned_is_every_candidate(self, scoped_obs):
        registry, tracer = scoped_obs
        problem = default_general_problem(3)
        configs = enumerate_general_configs(3, 2)
        winner = explore_general(3, configs=configs, limit=math.inf).ranked
        priced = registry.get("dse_candidates_total").total()
        pruned = registry.get("dse_candidates_pruned_total").value(
            case="general")
        assert priced + pruned == len(configs)
        assert priced > 0 and pruned > 0
        (span,) = tracer.by_category("dse")
        assert span.args["limit"] == math.inf
        assert span.args["pruned"] == pruned
        assert span.args["candidates"] == priced
        assert span.args["winner"] == repr(winner.config)
        assert span.args["problem"] == problem.describe()

    def test_bounded_out_search_has_no_winner(self, scoped_obs):
        registry, tracer = scoped_obs
        assert explore_special(limit=1e-9) is None
        (span,) = tracer.by_category("dse")
        assert span.args["ok"] == 0 and span.args["limit"] == 1e-9
        assert span.args["pruned"] == len(enumerate_special_configs())
        assert "winner" not in span.args
        assert registry.get("dse_candidates_total") is not None
        assert registry.get("dse_candidates_total").total() == 0

    def test_full_ranking_prices_everything(self, scoped_obs):
        registry, tracer = scoped_obs
        ranked = explore_special()
        (span,) = tracer.by_category("dse")
        assert span.args["limit"] is None and span.args["pruned"] == 0
        assert span.args["ok"] == len(ranked) == 16
        assert registry.get("dse_candidates_pruned_total") is None


class _StubPricer:
    """Exact synthetic floors and prices: a candidate is ``(floor s,
    price s)``.  Equal floors and prices reach the stopping rule's
    boundaries, which no real kernel (all have memory traffic) does."""

    flops = 1e9

    def __init__(self):
        self.priced = []

    def floor(self, kernel):
        return kernel[0]

    def price(self, cfg, kernel):
        self.priced.append(cfg)
        return PricedConfig(
            RankedConfig(config=cfg, gflops=self.flops / kernel[1] / 1e9,
                         occupancy=0.5, bound_by="compute"),
            SimpleNamespace(total=kernel[1]), None)


def _stub_search(candidates, limit):
    pricer = _StubPricer()
    winner, pruned = _bounded(range(len(candidates)),
                              lambda arch, config: candidates[config],
                              None, pricer, limit)
    return ([] if winner is None else [winner.ranked.config],
            pricer.priced, pruned)


class TestStoppingRule:
    def test_a_tie_goes_to_the_earlier_candidate(self):
        # Index 1 has the lower floor, so it is priced first; index 0
        # ties it and must still be priced, and win.
        assert _stub_search([(2.0, 2.0), (1.0, 2.0)], math.inf) == (
            [0], [1, 0], 0)

    def test_a_winner_exactly_at_the_limit_is_returned(self):
        assert _stub_search([(2.0, 2.0), (3.0, 3.0)], 2.0) == ([0], [0], 1)
        assert _stub_search([(2.0, 2.0)], math.nextafter(2.0, 0.0)) == (
            [], [], 1)

    def test_stops_at_the_first_ceiling_below_the_best(self):
        # Priced in floor order: 1 (price 4), 2 (price 2), then 0's
        # ceiling (floor 3) is below the best's (price 2): pruned.
        assert _stub_search([(3.0, 3.5), (1.0, 4.0), (1.5, 2.0)],
                            math.inf) == ([2], [1, 2], 1)


LIMITS = [0.0, -1.0, math.nan, math.inf]
LIMIT_IDS = ["zero", "negative", "nan", "inf"]


class TestLimitValues:
    """A limit at or below zero prices nothing and answers bounded, since
    every price is positive; a NaN limit raises a ConfigurationError
    that names it; an infinite one finds the winner."""

    PLAIN = ConvProblem.square(32, 3, channels=4, filters=8)
    SINGLE = ConvProblem.square(32, 3, channels=1, filters=8)
    DEPTHWISE = ConvProblem.square(32, 3, channels=4, filters=4, groups=4)

    def _searches(self):
        arch = KEPLER_K40M
        configs = palette(3, matched_vector(arch).n)
        return {
            "special": lambda limit: explore_special(arch, self.SINGLE,
                                                     limit=limit),
            "general": lambda limit: explore_general(
                3, arch, self.PLAIN, configs, limit=limit),
            "implicit-gemm": lambda limit: ImplicitGemmKernel(
                arch=arch).search(self.PLAIN, limit),
        }

    @pytest.mark.parametrize("limit", LIMITS, ids=LIMIT_IDS)
    def test_searches(self, scoped_obs, limit):
        registry, _ = scoped_obs
        for case, search in self._searches().items():
            if math.isnan(limit):
                with pytest.raises(ConfigurationError, match="NaN"):
                    search(limit)
                continue
            winner = search(limit)
            priced = registry.get("dse_candidates_total").value(
                case=case, outcome="ok")
            pruned = registry.get("dse_candidates_pruned_total").value(
                case=case)
            if limit > 0:
                assert isinstance(winner, PricedConfig), case
                assert priced > 0, case
            else:
                assert winner is None, case
                assert priced == 0 and pruned > 0, case

    @pytest.mark.parametrize("limit", LIMITS, ids=LIMIT_IDS)
    def test_admit_one(self, scoped_obs, limit):
        registry, _ = scoped_obs
        kernels = default_registry()
        outcome = ("error" if math.isnan(limit)
                   else "admitted" if limit > 0 else "bounded")
        for name in kernels.names():
            problem = {"special": self.SINGLE,
                       "depthwise": self.DEPTHWISE}.get(name, self.PLAIN)
            answered, entry = kernels.admit_one(name, problem, KEPLER_K40M,
                                                limit)
            assert answered == outcome, name
            assert registry.get("kernel_backend_candidates_total").value(
                backend=name, outcome=outcome) == 1, name
            assert (entry is not None) == (outcome == "admitted"), name
            if outcome == "error":
                with pytest.raises(ConfigurationError, match="NaN"):
                    kernels.get(name).admit(problem, KEPLER_K40M, limit)
