"""Tests for the design-space explorer (paper Sec. 5 / Table 1)."""

import pytest

from repro.conv.tensors import ConvProblem
from repro.core.bankwidth import matched_vector
from repro.core.config import (
    TABLE1_CONFIGS, GeneralCaseConfig, SpecialCaseConfig,
)
from repro.core.dse import (
    DEFAULT_SPECIAL_PROBLEM,
    best_config,
    default_general_problem,
    enumerate_general_configs,
    enumerate_special_configs,
    explore_general,
    explore_special,
    reproduce_table1,
)
from repro.core.depthwise import DepthwiseKernel
from repro.core.general import GeneralCaseKernel, palette
from repro.core.special import SpecialCaseKernel
from repro.errors import ConfigurationError, LaunchConfigError, ResourceError
from repro.gpu.arch import ARCHITECTURES, FERMI_M2090, KEPLER_K40M
from repro.gpu.timing import TimingModel
from repro.obs import Registry, Tracer, set_registry, set_tracer
from repro.serve.trace import SHAPE_FAMILIES


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


class TestEnumeration:
    def test_special_grid_size(self):
        assert len(enumerate_special_configs()) == 16

    def test_general_survivors_satisfy_constraints(self):
        configs = enumerate_general_configs(3, 2, KEPLER_K40M)
        assert len(configs) > 100
        for cfg in configs[:50]:
            cfg.validate(3, 2)
            assert cfg.smem_bytes(3, 2) <= KEPLER_K40M.smem_per_block_max

    def test_paper_table1_configs_survive_enumeration(self):
        for k in (3, 5, 7):
            configs = enumerate_general_configs(k, 2, KEPLER_K40M)
            assert TABLE1_CONFIGS[k] in configs

    def test_larger_k_prunes_more(self):
        n3 = len(enumerate_general_configs(3, 2, KEPLER_K40M))
        n7 = len(enumerate_general_configs(7, 2, KEPLER_K40M))
        assert n7 <= n3


class TestSpecialExploration:
    def test_ranked_descending(self):
        ranked = explore_special()
        gflops = [r.gflops for r in ranked]
        assert gflops == sorted(gflops, reverse=True)

    def test_paper_block_near_top(self):
        """The paper found W=256, H=8; our model must agree it is
        close to the best explored configuration (the landscape is
        flat; a 10% band allows for the model/hardware differences)."""
        ranked = explore_special()
        best = ranked[0].gflops
        paper = next(
            r for r in ranked
            if r.config == SpecialCaseConfig(block_w=256, block_h=8)
        )
        assert paper.gflops >= 0.90 * best


class TestGeneralExploration:
    def test_explore_subset_ranks(self):
        configs = enumerate_general_configs(3, 2, KEPLER_K40M)[:40]
        ranked = explore_general(3, configs=configs)
        assert ranked
        assert ranked[0].gflops >= ranked[-1].gflops

    def test_paper_config_close_to_explored_best(self):
        """Table 1 reproduction: the paper's config must be competitive
        (within 20%) with our model's best — the models differ, exact
        agreement is not expected."""
        rows = reproduce_table1(kernel_sizes=(3,))
        row = rows[0]
        assert row.paper_gflops >= 0.8 * row.ours_gflops

    def test_custom_problem(self):
        p = ConvProblem.square(64, 3, channels=32, filters=64)
        configs = enumerate_general_configs(3, 2, KEPLER_K40M)[:20]
        ranked = explore_general(3, problem=p, configs=configs)
        assert all(r.gflops > 0 for r in ranked)

    def test_default_problem_shape(self):
        p = default_general_problem(5)
        assert p.kernel_size == 5 and p.channels == 64


class TestBestConfig:
    def test_single_channel_selects_special_case(self):
        from repro.core.config import SpecialCaseConfig as SCC

        p = ConvProblem.square(64, 3, channels=1, filters=8)
        ranked = best_config(p)
        assert isinstance(ranked.config, SCC)

    def test_multi_channel_selects_general_case(self):
        from repro.core.config import GeneralCaseConfig as GCC

        p = ConvProblem.square(32, 3, channels=8, filters=16)
        ranked = best_config(p)
        assert isinstance(ranked.config, GCC)
        assert ranked.gflops > 0

    def test_case_can_be_forced(self):
        from repro.core.config import GeneralCaseConfig as GCC

        p = ConvProblem.square(64, 3, channels=1, filters=8)
        ranked = best_config(p, case="general")
        assert isinstance(ranked.config, GCC)

    def test_matches_explored_best(self):
        p = ConvProblem.square(64, 3, channels=1, filters=8)
        assert best_config(p).config == explore_special(
            KEPLER_K40M, problem=p)[0].config

    def test_unknown_case_rejected(self):
        p = ConvProblem.square(32, 3, channels=2, filters=4)
        with pytest.raises(ConfigurationError):
            best_config(p, case="winograd")

    def test_special_case_requires_single_channel(self):
        p = ConvProblem.square(32, 3, channels=4, filters=4)
        with pytest.raises(ConfigurationError):
            best_config(p, case="special")

    def test_quick_palette_is_valid(self):
        # Its wall-clock bound lives in benchmarks/bench_table1_dse.py.
        p = ConvProblem.square(48, 5, channels=4, filters=8)
        ranked = best_config(p)
        ranked.config.validate(p.kernel_size, 2)


def _full_ranking_winner(problem, arch, full):
    """The first entry of the full ranking ``best_config(problem, arch,
    full=full)`` picks from (its automatic case), or None when the
    ranking is empty."""
    if problem.groups == problem.channels > 1:
        ranked = explore_special(arch, DepthwiseKernel.group_problem(problem))
    elif problem.channels == 1:
        ranked = explore_special(arch, problem)
    else:
        k = problem.kernel_size
        configs = None if full else palette(k, matched_vector(arch).n)
        ranked = explore_general(k, arch, problem, configs)
    return ranked[0] if ranked else None


class TestBestConfigIsTheFullRankingsWinner:
    """``best_config`` runs the bounded search, which must answer the
    full ranking's first entry, field for field, or raise when the
    ranking is empty."""

    PROBLEMS = ([default_general_problem(k) for k in (3, 5, 7)]
                + list(SHAPE_FAMILIES["mixed"]))

    @pytest.mark.parametrize("full", [False, True], ids=["palette", "full"])
    @pytest.mark.parametrize("arch", list(ARCHITECTURES.values()),
                             ids=list(ARCHITECTURES))
    def test_every_field(self, scoped_obs, arch, full):
        found = 0
        for problem in self.PROBLEMS:
            want = _full_ranking_winner(problem, arch, full)
            if want is None:
                with pytest.raises(ConfigurationError):
                    best_config(problem, arch, full=full)
                continue
            got = best_config(problem, arch, full=full)
            assert (type(got.config), got.config, got.gflops.hex(),
                    got.occupancy.hex(), got.bound_by) == (
                type(want.config), want.config, want.gflops.hex(),
                want.occupancy.hex(), want.bound_by), problem.describe()
            found += 1
        # Fermi's 63 registers per thread fit no palette configuration,
        # so there only the five special and depthwise searches find one.
        assert found == (5 if arch is FERMI_M2090 and not full else 14)


def _independent_ranking(kernel_cls, configs, problem, arch):
    """Each candidate's cost evaluated on its own, straight through the
    timing model rather than the ``predict`` the search calls, then
    stable-sorted best first: the per-candidate loop the search replaced."""
    rows = []
    for cfg in configs:
        try:
            breakdown = TimingModel(arch).evaluate(
                kernel_cls(arch=arch, config=cfg).cost(problem))
        except (ConfigurationError, LaunchConfigError, ResourceError):
            continue
        rows.append((cfg, breakdown.gflops(problem.flops),
                     breakdown.occupancy_fraction, breakdown.bound_by))
    rows.sort(key=lambda row: row[1], reverse=True)
    return rows


def _rows(ranked):
    return [(r.config, r.gflops, r.occupancy, r.bound_by) for r in ranked]


class TestSearchTelemetry:
    """One wall span per search, one counter increment per candidate."""

    #: One config each that validation and the launch check reject.
    BAD_GENERAL = (GeneralCaseConfig(w=16, h=4, ftb=16, wt=16, ft=3, csh=1),
                   GeneralCaseConfig(w=64, h=8, ftb=128, wt=4, ft=2, csh=4))

    def test_each_search_adds_one_span_matching_its_ranking(self, scoped_obs):
        _, tracer = scoped_obs
        configs = enumerate_general_configs(3, 2, KEPLER_K40M)[:30]
        searches = [
            (lambda: explore_general(3, configs=configs),
             default_general_problem(3), len(configs)),
            (explore_special, DEFAULT_SPECIAL_PROBLEM,
             len(enumerate_special_configs())),
        ]
        for search, problem, candidates in searches:
            before = len(tracer.by_category("dse"))
            ranked = search()
            spans = tracer.by_category("dse")
            assert len(spans) == before + 1
            args = spans[-1].args
            assert args["problem"] == problem.describe()
            assert args["candidates"] == candidates
            assert args["ok"] == len(ranked)
            assert sum(args["rejected"].values()) == candidates - len(ranked)
            assert args["winner"] == repr(ranked[0].config)
            assert args["gflops"] == ranked[0].gflops
            assert args["bound_by"] == ranked[0].bound_by
        assert [s.name for s in tracer.by_category("dse")] == [
            "dse:general", "dse:special"]

    def test_rejected_candidates_show_in_span_and_counter(self, scoped_obs):
        registry, tracer = scoped_obs
        valid = enumerate_general_configs(3, 2, KEPLER_K40M)[:4]
        configs = valid[:2] + [self.BAD_GENERAL[0]] + valid[2:]
        ranked = explore_general(3, configs=configs)
        assert _rows(ranked) == _independent_ranking(
            GeneralCaseKernel, valid, default_general_problem(3), KEPLER_K40M)
        (span,) = tracer.by_category("dse")
        assert span.args["candidates"] == 5 and span.args["ok"] == 4
        assert span.args["rejected"] == {"ConfigurationError": 1}
        counter = registry.get("dse_candidates_total")
        assert counter.value(case="general", outcome="ok") == 4
        assert counter.value(case="general", outcome="rejected") == 1

    def test_rejections_are_counted_by_exception_name(self, scoped_obs):
        registry, tracer = scoped_obs
        assert explore_general(3, configs=list(self.BAD_GENERAL)) == []
        (span,) = tracer.by_category("dse")
        assert span.args["rejected"] == {"ConfigurationError": 1,
                                         "LaunchConfigError": 1}
        assert span.args["ok"] == 0
        assert "winner" not in span.args
        counter = registry.get("dse_candidates_total")
        assert counter.value(case="general", outcome="rejected") == 2
        assert counter.value(case="general", outcome="ok") == 0


class TestRankingMatchesIndependentEvaluation:
    """The search prices every candidate through its inherited
    ``predict``; the rankings must equal evaluating each candidate's cost
    alone, bit for bit."""

    @pytest.mark.parametrize("k", [3, 5, 7])
    @pytest.mark.parametrize("arch", [KEPLER_K40M, FERMI_M2090],
                             ids=["kepler", "fermi"])
    def test_general(self, scoped_obs, arch, k):
        configs = enumerate_general_configs(k, matched_vector(arch).n, arch)
        assert _rows(explore_general(k, arch)) == _independent_ranking(
            GeneralCaseKernel, configs, default_general_problem(k), arch)

    @pytest.mark.parametrize("arch", list(ARCHITECTURES.values()),
                             ids=list(ARCHITECTURES))
    def test_special(self, scoped_obs, arch):
        assert _rows(explore_special(arch)) == _independent_ranking(
            SpecialCaseKernel, enumerate_special_configs(),
            DEFAULT_SPECIAL_PROBLEM, arch)
