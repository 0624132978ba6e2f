"""Tests for the chaos spec grammar and fault-plan model."""

import pytest

from repro.chaos import FaultKind, FaultPlan, FaultSpec
from repro.errors import ChaosError, ReproError


class TestGrammar:
    def test_bare_kind_parses(self):
        plan = FaultPlan.parse("crash")
        assert len(plan) == 1
        assert plan.specs[0].kind is FaultKind.REPLICA_CRASH
        assert plan.specs[0].times == 1

    def test_full_clause_parses(self):
        plan = FaultPlan.parse(
            "seed=7;crash:replica=1,times=2,after=5;slow:factor=8")
        assert plan.seed == 7
        crash, slow = plan.specs
        assert crash.replica == 1 and crash.times == 2 and crash.after == 5
        assert slow.kind is FaultKind.SLOW_REPLICA and slow.factor == 8.0

    def test_every_kind_value_is_parseable(self):
        for kind in FaultKind:
            plan = FaultPlan.parse(kind.value)
            assert plan.specs[0].kind is kind

    def test_seed_argument_overrides_seed_clause(self):
        assert FaultPlan.parse("seed=7;crash", seed=42).seed == 42

    def test_describe_round_trips(self):
        spec = "seed=3;crash:replica=1,times=2,after=5;slow:replica=0,factor=8"
        plan = FaultPlan.parse(spec)
        assert FaultPlan.parse(plan.describe()) == plan

    def test_unknown_kind_names_the_valid_kinds(self):
        with pytest.raises(ChaosError, match="cache-corrupt"):
            FaultPlan.parse("explode")

    def test_unknown_key_rejected(self):
        with pytest.raises(ChaosError, match="replica"):
            FaultPlan.parse("crash:bogus=1")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ChaosError, match="expected a number"):
            FaultPlan.parse("crash:times=lots")

    def test_empty_spec_rejected(self):
        for bad in ("", "  ", ";;", "seed=4"):
            with pytest.raises(ChaosError):
                FaultPlan.parse(bad)

    def test_chaos_error_is_a_repro_error(self):
        assert issubclass(ChaosError, ReproError)


class TestSpecValidation:
    def test_bounds_enforced(self):
        with pytest.raises(ChaosError, match="times"):
            FaultSpec(kind=FaultKind.REPLICA_CRASH, times=0)
        with pytest.raises(ChaosError, match="after"):
            FaultSpec(kind=FaultKind.REPLICA_CRASH, after=-1)
        with pytest.raises(ChaosError, match="factor"):
            FaultSpec(kind=FaultKind.SLOW_REPLICA, factor=1.0)
        with pytest.raises(ChaosError, match="nth"):
            FaultSpec(kind=FaultKind.BUILD_FAIL, nth=0)
        with pytest.raises(ChaosError, match="replica"):
            FaultSpec(kind=FaultKind.REPLICA_CRASH, replica=-2)

