"""The fleet's shared plan-cache tier with versioned invalidation.

Every replica keeps its own LRU :class:`~repro.serve.plan_cache.PlanCache`
(the *local* tier, hot because the router pins shapes to replicas); the
fleet keeps one :class:`SharedPlanCache` above them (the *shared* tier).
A shape that misses locally — a cold replica, a spilled request, an LRU
eviction — is looked up here before the design-space explorer runs, so
the fleet pays the planning cost for a shape once, not once per replica.

Entries are keyed by ``(version token, plan key)``.  The token (see
:func:`cache_version_token`) digests everything a cached plan depends
on: the package version, the architecture preset's resource parameters,
and the enabled backend portfolio.  Change any of those — a new arch
preset, a different ``--backends`` subset, an upgrade that retunes the
cost model — and old entries become unreachable instead of silently
serving stale plans.  :meth:`SharedPlanCache.invalidate` additionally
drops everything on demand (e.g. an operator rolling a config change).

The shared tier is also the fleet's one *trusted-at-a-distance* store:
a corrupted entry would poison every replica at once.  So each entry
carries a content checksum (BLAKE2 over the plan's pickled bytes),
validated on every lookup; a mismatch **quarantines** the entry — it is
dropped, counted (``fleet_shared_cache_corruptions_total``), and
rebuilt by the next ``get_or_build`` — never served.  An installed
:class:`~repro.chaos.injector.FaultInjector` exercises exactly these
paths: ``cache-corrupt`` tampers a stored checksum, ``version-skew``
makes a lookup surface as stale (dropped and counted under
``fleet_shared_cache_skew_total``).
"""

from __future__ import annotations

import hashlib
import pickle
from collections import OrderedDict
from dataclasses import fields, is_dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.chaos.plan import FaultKind
from repro.gpu.arch import GPUArchitecture
from repro.obs.metrics import Registry

__all__ = ["SharedPlanCache", "cache_version_token", "plan_checksum"]

#: Plans the shared tier holds before the least recently used is evicted.
CAPACITY = 1024


def plan_checksum(plan: object) -> Optional[str]:
    """Content digest of a plan, or None when it cannot be pickled.

    Unpicklable plans skip validation (there are no bytes to rot in
    transit for an object that never leaves this process).
    """
    try:
        blob = pickle.dumps(plan)
    except Exception:
        return None
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def cache_version_token(
    arch: GPUArchitecture,
    backends: Optional[Sequence[str]] = None,
) -> str:
    """Digest of everything a cached plan's validity depends on.

    Walks the architecture preset's dataclass fields rather than just
    its name, so editing a preset in place (say, re-tuning Pascal's
    bank width) invalidates as reliably as renaming it.
    """
    import repro

    parts = ["repro=%s" % getattr(repro, "__version__", "?")]
    if is_dataclass(arch):
        for f in sorted(fields(arch), key=lambda f: f.name):
            parts.append("%s=%r" % (f.name, getattr(arch, f.name, None)))
    else:
        parts.append("arch=%r" % (getattr(arch, "name", arch),))
    parts.append("backends=%s" % ",".join(sorted(backends or ())))
    blob = "|".join(parts)
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=8).hexdigest()


class SharedPlanCache:
    """Bounded LRU of kernel plans shared by every replica in a fleet."""

    def __init__(self, registry: Optional[Registry] = None):
        self.registry = registry if registry is not None else Registry()
        self._entries: "OrderedDict[Tuple[str, Tuple], object]" = OrderedDict()
        self._hits = self.registry.counter(
            "fleet_shared_cache_hits_total",
            "Shared-tier lookups served from cache")
        self._misses = self.registry.counter(
            "fleet_shared_cache_misses_total",
            "Shared-tier lookups that missed")
        self._publishes = self.registry.counter(
            "fleet_shared_cache_publishes_total",
            "Plans published into the shared tier")
        self._invalidations = self.registry.counter(
            "fleet_shared_cache_invalidations_total",
            "Explicit whole-tier invalidations, by reason",
            labelnames=("reason",))
        self._evictions = self.registry.counter(
            "fleet_shared_cache_evictions_total",
            "LRU evictions from the shared tier")
        self._entries_gauge = self.registry.gauge(
            "fleet_shared_cache_entries", "Plans currently in the shared tier")
        self._corruptions = self.registry.counter(
            "fleet_shared_cache_corruptions_total",
            "Entries quarantined after a read-side checksum mismatch")
        self._skews = self.registry.counter(
            "fleet_shared_cache_skew_total",
            "Entries dropped as version-skewed on lookup")
        self._chaos = None

    # ------------------------------------------------------------------
    def install_chaos(self, injector) -> None:
        """Attach a fault injector (cache-corrupt / version-skew hooks)."""
        self._chaos = injector

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, token: str, key: Tuple) -> Optional[object]:
        """Return the shared plan for (token, key), or None on a miss.

        A plan published under a different version token never hits —
        that is the versioned-invalidation contract.  Every hit is
        checksum-validated before it is served: an entry whose stored
        digest no longer matches its content is quarantined (dropped
        and counted) and reported as a miss, so the caller rebuilds.
        """
        full_key = (token, key)
        entry = self._entries.get(full_key)
        if entry is None:
            self._misses.inc()
            return None
        plan, checksum = entry
        if (self._chaos is not None
                and self._chaos.take(FaultKind.VERSION_SKEW) is not None):
            # Injected skew: the entry surfaces under a token that no
            # longer describes this fleet — unreachable, by contract.
            del self._entries[full_key]
            self._skews.inc()
            self._misses.inc()
            self._entries_gauge.set(len(self._entries))
            return None
        if checksum is not None and plan_checksum(plan) != checksum:
            del self._entries[full_key]
            self._corruptions.inc()
            self._misses.inc()
            self._entries_gauge.set(len(self._entries))
            return None
        self._entries.move_to_end(full_key)
        self._hits.inc()
        return plan

    def publish(self, token: str, key: Tuple, plan: object) -> None:
        """Insert (or refresh) a plan under the given version token."""
        full_key = (token, key)
        checksum = plan_checksum(plan)
        if (self._chaos is not None
                and self._chaos.take(FaultKind.CACHE_CORRUPT) is not None):
            # Injected rot: damage the stored digest so the read-side
            # validation must catch it (the plan object itself is left
            # alone — a corrupted entry must never be *served*).
            checksum = "corrupt!" + (checksum or "")
        if full_key in self._entries:
            self._entries.move_to_end(full_key)
        self._entries[full_key] = (plan, checksum)
        self._publishes.inc()
        while len(self._entries) > CAPACITY:
            self._entries.popitem(last=False)
            self._evictions.inc()
        self._entries_gauge.set(len(self._entries))

    def get_or_build(self, token: str, key: Tuple,
                     build: Callable[[], object]) -> object:
        """Shared-tier memoization: lookup, else build and publish."""
        plan = self.lookup(token, key)
        if plan is None:
            plan = build()
            self.publish(token, key, plan)
        return plan

    def invalidate(self, reason: str = "manual") -> int:
        """Drop every entry; returns the number invalidated."""
        dropped = len(self._entries)
        self._entries.clear()
        self._invalidations.inc(reason=reason)
        self._entries_gauge.set(0)
        return dropped

    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        return int(round(self._hits.total()))

    @property
    def misses(self) -> int:
        return int(round(self._misses.total()))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "capacity": CAPACITY,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "publishes": int(round(self._publishes.total())),
            "evictions": int(round(self._evictions.total())),
            "invalidations": int(round(self._invalidations.total())),
            "corruptions": int(round(self._corruptions.total())),
            "version_skews": int(round(self._skews.total())),
            "hit_rate": self.hit_rate,
        }
