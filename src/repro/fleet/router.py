"""Shape-affinity routing: hash problem shapes to engine replicas.

The whole point of running N replicas instead of one bigger engine is
that each replica's plan cache (and batcher) stays *hot* for the shapes
it owns: planning a shape runs the design-space explorer, so scattering
the same shape across replicas multiplies that cost by N and dilutes
batching.  The router therefore assigns every
:class:`~repro.conv.tensors.ConvProblem` a stable home replica by
hashing its shape with a seeded BLAKE2 digest — *not* Python's
``hash()``, whose string salting varies per process and would break
the fleet's cross-process determinism guarantee.

Routing degrades under load in priority order (see
:mod:`repro.fleet.admission` for the class semantics):

* the affinity replica has room (or the request is ``critical``) —
  routed home, an **affinity hit**;
* the affinity replica is full and the class may spill (``standard``) —
  routed to the least-loaded replica with room, a **spill**;
* nowhere has room (or the class never spills, ``batch``) — the router
  returns ``None`` and the admission controller sheds the request.
"""

from __future__ import annotations

import functools
import hashlib
from typing import List, Optional

from repro.conv.tensors import ConvProblem
from repro.errors import ReproError
from repro.obs.metrics import Registry

__all__ = ["FleetRouter", "shape_hash"]


#: Distinct ``(problem, salt)`` pairs :func:`shape_hash` remembers.
SHAPE_HASH_MEMO = 4096


@functools.lru_cache(maxsize=SHAPE_HASH_MEMO)
def shape_hash(problem: ConvProblem, salt: str = "") -> int:
    """A process-stable 64-bit hash of a problem shape.

    Deterministic across processes and Python versions (unlike
    ``hash()`` on anything containing a string), so a trace routes
    identically in every process and in CI.  Memoized per
    ``(problem, salt)``: the router hashes every arrival, and a trace
    repeats a few shapes.

    Generalized axes (stride, dilation, groups, layout) extend the
    hashed blob only when non-default, so every default-axis shape
    keeps the exact replica assignment it had before the axes existed.
    """
    axes = ""
    if not problem.has_default_axes:
        axes = "|s%d|d%d|g%d|%s" % (
            problem.stride, problem.dilation, problem.groups,
            problem.layout.value,
        )
    blob = "%d|%d|%d|%d|%d|%s%s|%s" % (
        problem.height, problem.width, problem.channels, problem.filters,
        problem.kernel_size, problem.padding.value, axes, salt,
    )
    digest = hashlib.blake2b(blob.encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class FleetRouter:
    """Stable shape-to-replica assignment with load-aware spilling."""

    def __init__(self, n_replicas: int,
                 registry: Optional[Registry] = None):
        if n_replicas < 1:
            raise ReproError("a fleet needs at least 1 replica, got %d"
                             % n_replicas)
        self.n_replicas = n_replicas
        self.registry = registry if registry is not None else Registry()
        self._affinity_hits = self.registry.counter(
            "fleet_router_affinity_hits_total",
            "Requests routed to their shape-affinity replica")
        self._spills = self.registry.counter(
            "fleet_router_spills_total",
            "Requests routed off-affinity to the least-loaded replica")

    # ------------------------------------------------------------------
    def affinity(self, problem: ConvProblem) -> int:
        """The replica this shape calls home."""
        return shape_hash(problem) % self.n_replicas

    def route(
        self,
        problem: ConvProblem,
        depths: List[int],
        queue_depth: int,
        priority: str = "standard",
    ) -> Optional[int]:
        """Pick a replica for one request, or ``None`` to shed.

        ``depths`` is the per-replica modeled queue occupancy at the
        request's arrival time; ``queue_depth`` is the admission bound.
        """
        if len(depths) != self.n_replicas:
            raise ReproError(
                "got %d queue depths for %d replicas"
                % (len(depths), self.n_replicas))
        target = self.affinity(problem)
        if priority == "critical" or depths[target] < queue_depth:
            self._affinity_hits.inc_key(())
            return target
        if priority == "batch":
            # Batch-class work never spills: chasing a cold replica's
            # queue would evict cache-hot interactive capacity for work
            # that tolerates shedding.
            return None
        spill = min(range(self.n_replicas), key=lambda r: (depths[r], r))
        if depths[spill] < queue_depth:
            self._spills.inc_key(())
            return spill
        return None

    # ------------------------------------------------------------------
    @property
    def affinity_hits(self) -> int:
        return int(round(self._affinity_hits.total()))

    @property
    def spills(self) -> int:
        return int(round(self._spills.total()))

    @property
    def affinity_hit_rate(self) -> float:
        """Affinity hits over routed requests (1.0 before any routing)."""
        routed = self.affinity_hits + self.spills
        return self.affinity_hits / routed if routed else 1.0

    def stats(self) -> dict:
        return {
            "replicas": self.n_replicas,
            "affinity_hits": self.affinity_hits,
            "spills": self.spills,
            "affinity_hit_rate": self.affinity_hit_rate,
        }
