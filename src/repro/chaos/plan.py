"""Deterministic fault plans: what breaks, where, and how often.

A :class:`FaultPlan` is a *seeded, declarative* description of every
fault a chaos run will inject — nothing fires at random wall-clock
whim, so the same plan over the same trace produces the same failures,
the same recoveries, and the same final telemetry on every run.  That
determinism is what turns chaos testing from a flaky stress tool into a
CI gate: the recovery machinery is exercised by *exactly* reproducible
partial failures.

Fault kinds (:class:`FaultKind`):

* ``crash`` — a replica fails its shard attempt mid-flight; every
  response from the attempt is lost and the fleet must fail the shard
  over to survivors.
* ``wedge`` — a replica's worker wedges (the modeled analogue of a
  pool-task timeout); same recovery path as a crash, distinct reason.
* ``slow`` — a straggler: the replica completes but its modeled clock
  is inflated by ``factor`` (hedged dispatch exists for this).
* ``cache-corrupt`` — a shared-plan-cache entry's stored bytes rot;
  the read-side checksum must quarantine and rebuild, never serve it.
* ``version-skew`` — a shared-cache entry surfaces under a stale
  version token and must be treated as unreachable.
* ``build-fail`` — a backend's plan construction fails transiently;
  bounded retry with backoff must recover.
* ``obs-drop`` — a replica attempt's telemetry is dropped before the
  fleet folds it; serving must continue and the loss must be counted.

Spec grammar (``FleetEngine(chaos=...)`` and every ``--chaos`` flag
accept it)::

    spec    := clause (";" clause)*
    clause  := "seed=" INT | fault
    fault   := KIND [":" key "=" value ("," key "=" value)*]
    keys    := replica | times | after | factor | nth

Examples::

    crash:replica=1
    seed=7;crash:replica=1,times=2;slow:replica=0,factor=8
    cache-corrupt:nth=2;build-fail:times=2;obs-drop

``times`` is how many attempts/events the fault fires on (consecutive),
``after`` is how many requests a crashing replica serves before dying
(the mid-flight point), ``factor`` is the straggler slowdown, and
``nth`` is the 1-based event index (publish/lookup/build) at which an
event-gated fault starts firing.  A fault with no ``replica=`` is
pinned to a seeded-random replica when the plan is installed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ChaosError

__all__ = ["FaultKind", "FaultSpec", "FaultPlan"]


class FaultKind(enum.Enum):
    """Every fault the injector knows how to fire."""

    REPLICA_CRASH = "crash"
    WORKER_WEDGE = "wedge"
    SLOW_REPLICA = "slow"
    CACHE_CORRUPT = "cache-corrupt"
    VERSION_SKEW = "version-skew"
    BUILD_FAIL = "build-fail"
    OBS_DROP = "obs-drop"


#: Kinds that target one replica's shard attempt (acted out by that
#: attempt); the rest are event-gated fleet-side faults.
REPLICA_KINDS = (
    FaultKind.REPLICA_CRASH,
    FaultKind.WORKER_WEDGE,
    FaultKind.SLOW_REPLICA,
    FaultKind.OBS_DROP,
)

_KINDS_BY_VALUE = {kind.value: kind for kind in FaultKind}

_SPEC_KEYS = ("replica", "times", "after", "factor", "nth")


@dataclass(frozen=True)
class FaultSpec:
    """One declared fault: a kind plus its firing parameters."""

    kind: FaultKind
    replica: Optional[int] = None
    times: int = 1
    after: int = 0
    factor: float = 4.0
    nth: int = 1

    def __post_init__(self):
        if not isinstance(self.kind, FaultKind):
            raise ChaosError("unknown fault kind %r; kinds: %s"
                             % (self.kind, ", ".join(sorted(_KINDS_BY_VALUE))))
        if self.times < 1:
            raise ChaosError("fault %s: times must be >= 1, got %d"
                             % (self.kind.value, self.times))
        if self.after < 0:
            raise ChaosError("fault %s: after must be >= 0, got %d"
                             % (self.kind.value, self.after))
        if self.factor <= 1.0:
            raise ChaosError("fault %s: factor must be > 1.0, got %g"
                             % (self.kind.value, self.factor))
        if self.nth < 1:
            raise ChaosError("fault %s: nth must be >= 1, got %d"
                             % (self.kind.value, self.nth))
        if self.replica is not None and self.replica < 0:
            raise ChaosError("fault %s: replica must be >= 0, got %d"
                             % (self.kind.value, self.replica))

    def describe(self) -> str:
        parts = []
        if self.replica is not None:
            parts.append("replica=%d" % self.replica)
        if self.times != 1:
            parts.append("times=%d" % self.times)
        if self.after:
            parts.append("after=%d" % self.after)
        if self.kind is FaultKind.SLOW_REPLICA:
            parts.append("factor=%g" % self.factor)
        if self.nth != 1:
            parts.append("nth=%d" % self.nth)
        return self.kind.value + (":" + ",".join(parts) if parts else "")


def _parse_fault(clause: str) -> FaultSpec:
    head, sep, tail = clause.partition(":")
    kind = _KINDS_BY_VALUE.get(head.strip())
    if kind is None:
        raise ChaosError(
            "unknown fault kind %r in chaos spec; kinds: %s"
            % (head.strip(), ", ".join(sorted(_KINDS_BY_VALUE))))
    kwargs = {}
    if sep:
        for item in tail.split(","):
            item = item.strip()
            if not item:
                continue
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or key not in _SPEC_KEYS:
                raise ChaosError(
                    "bad chaos parameter %r for %s; keys: %s"
                    % (item, kind.value, ", ".join(_SPEC_KEYS)))
            try:
                kwargs[key] = (float(value) if key == "factor"
                               else int(value))
            except ValueError:
                raise ChaosError(
                    "bad chaos value %r for %s.%s (expected a number)"
                    % (value.strip(), kind.value, key))
    return FaultSpec(kind=kind, **kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of declared faults — the whole chaos run, upfront."""

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))

    @classmethod
    def parse(cls, spec: str, seed: Optional[int] = None) -> "FaultPlan":
        """Parse the chaos spec grammar (see the module docstring).

        An explicit ``seed`` argument overrides a ``seed=`` clause in
        the spec string.
        """
        if not isinstance(spec, str) or not spec.strip():
            raise ChaosError("empty chaos spec")
        plan_seed = 0
        specs = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if clause.startswith("seed="):
                try:
                    plan_seed = int(clause[len("seed="):])
                except ValueError:
                    raise ChaosError("bad chaos seed %r"
                                     % clause[len("seed="):])
                continue
            specs.append(_parse_fault(clause))
        if not specs:
            raise ChaosError("chaos spec %r declares no faults" % spec)
        if seed is not None:
            plan_seed = seed
        return cls(seed=plan_seed, specs=tuple(specs))

    def describe(self) -> str:
        """Round-trippable spec string for this plan."""
        clauses = ["seed=%d" % self.seed]
        clauses.extend(spec.describe() for spec in self.specs)
        return ";".join(clauses)

    def __len__(self) -> int:
        return len(self.specs)
