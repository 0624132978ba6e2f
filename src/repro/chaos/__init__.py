"""repro.chaos — deterministic fault injection for the serving fleet.

A :class:`FaultPlan` declares every fault upfront (seeded, so two runs
inject identically); a :class:`FaultInjector` installed on a fleet
(``FleetEngine(chaos=...)`` or ``repro serve --chaos``) fires them
against the recovery machinery: circuit breakers, shard failover,
shared-cache quarantine, plan-build retry.  ``repro chaos`` runs the
canned fault matrix (:mod:`repro.chaos.matrix`) and reports recovery
outcomes — that matrix, not hope, is what guards the fleet's
exactly-once and bit-identical-under-chaos contracts in CI.  See
docs/RESILIENCE.md.

The matrix runner lives in :mod:`repro.chaos.matrix` and is imported
lazily (it depends on :mod:`repro.fleet`, which itself imports this
package to resolve ``chaos=`` arguments).
"""

from repro.chaos.injector import FaultInjector
from repro.chaos.plan import FaultKind, FaultPlan, FaultSpec

__all__ = [
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
]
