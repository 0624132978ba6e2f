"""LRU cache of kernel plans, keyed by (problem shape, architecture).

Planning a shape is the expensive part of serving: it runs the
design-space explorer (:func:`repro.core.dse.best_config`) for the
paper's kernels and prices every candidate backend through the traced
cost + timing models.  Real workloads repeat a handful of layer shapes
millions of times, so the cache pays that cost once per shape and the
hit/miss/eviction counters feed the engine's stats surface.

The counters are registry-backed (``plan_cache_hits_total`` /
``plan_cache_misses_total`` / ``plan_cache_evictions_total`` plus a
``plan_cache_entries`` gauge): by default each cache owns a private
:class:`~repro.obs.metrics.Registry`, and the serving engine passes its
own so one scrape covers the whole stack.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional, Tuple

from repro.obs.metrics import Registry

__all__ = ["PlanCache"]

#: Plans one cache holds before the least recently used is evicted.
CAPACITY = 128


class PlanCache:
    """Bounded LRU mapping of plan keys to planned backends."""

    def __init__(self, registry: Optional[Registry] = None):
        self.registry = registry if registry is not None else Registry()
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self._hits = self.registry.counter(
            "plan_cache_hits_total", "Plan-cache lookups served from cache")
        self._misses = self.registry.counter(
            "plan_cache_misses_total", "Plan-cache lookups that missed")
        self._evictions = self.registry.counter(
            "plan_cache_evictions_total", "LRU evictions from the plan cache")
        self._entries_gauge = self.registry.gauge(
            "plan_cache_entries", "Plans currently cached")
        self._hit_rate_gauge = self.registry.gauge(
            "plan_cache_hit_rate",
            "Hits over lookups since the cache was created")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        # Peek without touching recency or the counters.
        return key in self._entries

    # Counter-backed views keep the pre-registry attribute contract.
    @property
    def hits(self) -> int:
        return int(round(self._hits.total()))

    @property
    def misses(self) -> int:
        return int(round(self._misses.total()))

    @property
    def evictions(self) -> int:
        return int(round(self._evictions.total()))

    def lookup(self, key: Tuple) -> Optional[object]:
        """Return the cached plan (refreshing recency) or None on a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self._misses.inc_key(())
        else:
            self._entries.move_to_end(key)
            self._hits.inc_key(())
        # hit_rate's ratio, read from the two counters' one series: the
        # counts are whole numbers, which the properties only round.
        hits = self._hits.value()
        self._hit_rate_gauge.set_key((), hits / (hits + self._misses.value()))
        return entry

    def put(self, key: Tuple, plan: object) -> None:
        """Insert (or refresh) a plan, evicting the LRU entry if full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = plan
        while len(self._entries) > CAPACITY:
            self._entries.popitem(last=False)
            self._evictions.inc()
        self._entries_gauge.set(len(self._entries))

    def get_or_build(self, key: Tuple, build: Callable[[], object]) -> object:
        """The memoization entry point the dispatcher uses."""
        plan = self.lookup(key)
        if plan is None:
            plan = build()
            self.put(key, plan)
        return plan

    def clear(self) -> None:
        self._entries.clear()
        self._entries_gauge.set(0)

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "capacity": CAPACITY,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }
