"""Tests for the LRU kernel-plan cache."""

import pytest

from repro.serve import plan_cache
from repro.serve.plan_cache import PlanCache


class TestHitMiss:
    def test_empty_lookup_is_a_miss(self):
        cache = PlanCache()
        assert cache.lookup("k") is None
        assert cache.misses == 1 and cache.hits == 0

    def test_put_then_lookup_is_a_hit(self):
        cache = PlanCache()
        cache.put("k", "plan")
        assert cache.lookup("k") == "plan"
        assert cache.hits == 1 and cache.misses == 0

    def test_hit_rate(self):
        cache = PlanCache()
        cache.put("k", "plan")
        cache.lookup("k")
        cache.lookup("k")
        cache.lookup("other")
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_hit_rate_zero_before_any_lookup(self):
        assert PlanCache().hit_rate == 0.0

    def test_contains_does_not_count(self):
        cache = PlanCache()
        cache.put("k", "plan")
        assert "k" in cache and "other" not in cache
        assert cache.hits == 0 and cache.misses == 0

    def test_get_or_build_builds_once(self):
        cache = PlanCache()
        calls = []

        def build():
            calls.append(1)
            return "plan"

        assert cache.get_or_build("k", build) == "plan"
        assert cache.get_or_build("k", build) == "plan"
        assert len(calls) == 1
        assert cache.misses == 1 and cache.hits == 1


class TestLRUEviction:
    @pytest.fixture(autouse=True)
    def two_entries(self, monkeypatch):
        monkeypatch.setattr(plan_cache, "CAPACITY", 2)

    def test_evicts_least_recently_used(self):
        cache = PlanCache()
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)           # evicts "a"
        assert "a" not in cache
        assert "b" in cache and "c" in cache
        assert cache.evictions == 1

    def test_lookup_refreshes_recency(self):
        cache = PlanCache()
        cache.put("a", 1)
        cache.put("b", 2)
        cache.lookup("a")           # "b" becomes the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "b" not in cache

    def test_put_refreshes_recency(self):
        cache = PlanCache()
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)          # refresh, not insert
        cache.put("c", 3)
        assert cache.lookup("a") == 10
        assert "b" not in cache
        assert len(cache) == 2

    def test_capacity_one(self, monkeypatch):
        monkeypatch.setattr(plan_cache, "CAPACITY", 1)
        cache = PlanCache()
        cache.put("a", 1)
        cache.put("b", 2)
        assert len(cache) == 1 and "b" in cache


class TestStats:
    def test_stats_dict(self):
        cache = PlanCache()
        cache.put("a", 1)
        cache.lookup("a")
        cache.lookup("b")
        stats = cache.stats()
        assert stats == {
            "capacity": 128, "entries": 1, "hits": 1, "misses": 1,
            "evictions": 0, "hit_rate": 0.5,
        }

    def test_clear_keeps_counters(self):
        cache = PlanCache()
        cache.put("a", 1)
        cache.lookup("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1


class TestRegistryGauges:
    def test_hit_rate_gauge_tracks_lookups(self):
        from repro.obs.metrics import Registry

        registry = Registry()
        cache = PlanCache(registry=registry)
        gauge = registry.get("plan_cache_hit_rate")
        assert gauge is not None and gauge.value() == 0.0
        cache.put("a", 1)
        cache.lookup("a")
        assert gauge.value() == 1.0
        cache.lookup("b")
        assert gauge.value() == 0.5

    def test_eviction_counter_in_registry(self, monkeypatch):
        from repro.obs.metrics import Registry

        monkeypatch.setattr(plan_cache, "CAPACITY", 1)
        registry = Registry()
        cache = PlanCache(registry=registry)
        cache.put("a", 1)
        cache.put("b", 2)
        assert registry.get("plan_cache_evictions_total").total() == 1
