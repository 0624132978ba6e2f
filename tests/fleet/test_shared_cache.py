"""Tests for the shared plan-cache tier and versioned invalidation."""

import dataclasses

import pytest

from repro.fleet import SharedPlanCache, cache_version_token
from repro.fleet import shared_cache
from repro.gpu.arch import KEPLER_K40M, MAXWELL_GM204
from repro.obs.metrics import Registry


class TestVersionToken:
    def test_stable_for_same_inputs(self):
        assert (cache_version_token(KEPLER_K40M, ["fft", "naive"])
                == cache_version_token(KEPLER_K40M, ["fft", "naive"]))

    def test_backend_order_insensitive(self):
        assert (cache_version_token(KEPLER_K40M, ["naive", "fft"])
                == cache_version_token(KEPLER_K40M, ["fft", "naive"]))

    def test_arch_preset_changes_token(self):
        assert (cache_version_token(KEPLER_K40M)
                != cache_version_token(MAXWELL_GM204))

    def test_field_edit_changes_token(self):
        # An in-place re-tune of a preset invalidates as reliably as a
        # rename: the token digests every dataclass field.
        retuned = dataclasses.replace(KEPLER_K40M, smem_bank_width=4)
        assert (cache_version_token(KEPLER_K40M)
                != cache_version_token(retuned))

    def test_backend_portfolio_changes_token(self):
        assert (cache_version_token(KEPLER_K40M, ["fft"])
                != cache_version_token(KEPLER_K40M, ["fft", "winograd"]))


class TestSharedPlanCache:
    def test_get_or_build_builds_once(self):
        cache = SharedPlanCache()
        built = []

        def build():
            built.append(1)
            return "plan"

        assert cache.get_or_build("tok", ("k",), build) == "plan"
        assert cache.get_or_build("tok", ("k",), build) == "plan"
        assert len(built) == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_version_token_partitions_entries(self):
        cache = SharedPlanCache()
        cache.publish("v1", ("k",), "old")
        assert cache.lookup("v1", ("k",)) == "old"
        assert cache.lookup("v2", ("k",)) is None

    def test_invalidate_drops_everything(self):
        registry = Registry()
        cache = SharedPlanCache(registry=registry)
        cache.publish("tok", ("a",), 1)
        cache.publish("tok", ("b",), 2)
        assert cache.invalidate("preset-change") == 2
        assert len(cache) == 0
        assert cache.lookup("tok", ("a",)) is None
        counter = registry.get("fleet_shared_cache_invalidations_total")
        assert counter.value(reason="preset-change") == 1

    def test_lru_eviction_at_capacity(self, monkeypatch):
        monkeypatch.setattr(shared_cache, "CAPACITY", 2)
        cache = SharedPlanCache()
        cache.publish("tok", ("a",), 1)
        cache.publish("tok", ("b",), 2)
        cache.lookup("tok", ("a",))          # refresh a; b is now LRU
        cache.publish("tok", ("c",), 3)
        assert cache.lookup("tok", ("b",)) is None
        assert cache.lookup("tok", ("a",)) == 1
        assert cache.stats()["evictions"] == 1

    def test_stats_keys(self):
        stats = SharedPlanCache().stats()
        assert set(stats) == {
            "capacity", "entries", "hits", "misses", "publishes",
            "evictions", "invalidations", "corruptions",
            "version_skews", "hit_rate",
        }
        assert stats["capacity"] == 1024

    def test_entries_gauge_tracks_population(self):
        registry = Registry()
        cache = SharedPlanCache(registry=registry)
        cache.publish("tok", ("a",), 1)
        assert registry.get("fleet_shared_cache_entries").value() == 1
        cache.invalidate()
        assert registry.get("fleet_shared_cache_entries").value() == 0
