"""Replica health: circuit breakers, failure accounting, degradation.

Every replica gets a :class:`CircuitBreaker` on the fleet's *virtual*
clock (the same modeled-seconds unit the engines keep), so breaker
behavior is exactly reproducible — no wall-clock racing:

* **closed** — traffic flows; consecutive failures are counted and
  reset on any success.
* **open** — tripped after ``failure_threshold`` consecutive failures;
  the replica receives no new shards until
  :data:`BREAKER_COOLDOWN_S` virtual seconds pass.
* **half-open** — after the cool-down, one probe shard is allowed:
  success closes the breaker, failure re-opens it (and restarts the
  cool-down).

The :class:`HealthTracker` owns one breaker per replica plus the obs
series operators page on:

* ``fleet_replica_failures_total{replica,reason}`` — every failed
  shard attempt, by reason (``crash`` / ``wedge`` / ``error``, the
  last for a shard that raised);
* ``fleet_failovers_total{reason}`` — shards re-routed off a failed or
  breaker-opened replica;
* ``fleet_breaker_transitions_total{replica,to}`` — breaker state
  changes;
* ``fleet_breaker_state{replica}`` gauge — 0 closed, 1 half-open,
  2 open;
* ``fleet_hedges_total`` / ``fleet_obs_dropped_total`` — hedged
  straggler dispatches and tolerated telemetry losses.

A shard that raised also leaves its ``"<type>: <message>"`` text as the
replica's latest error, shown under ``last_errors`` in :meth:`stats`
once any replica has one.

The **degradation level** summarizes all of it for the SLO surface:
``healthy`` (no open breakers, nothing failed over in the last replay),
``degraded`` (failovers happened or a minority of breakers are open),
``critical`` (half or more of the replicas are breaker-open).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.obs.metrics import Registry

__all__ = ["CircuitBreaker", "HealthTracker", "DEGRADATION_LEVELS"]

#: Degradation levels, best to worst.
DEGRADATION_LEVELS = ("healthy", "degraded", "critical")

_STATE_VALUES = {"closed": 0, "half-open": 1, "open": 2}

#: Consecutive failures that trip a breaker, unless the fleet's
#: ``FleetConfig.breaker_threshold`` says otherwise.
BREAKER_THRESHOLD = 3

#: Virtual seconds an open breaker waits before its half-open probe.
BREAKER_COOLDOWN_S = 0.05


class CircuitBreaker:
    """Consecutive-failure breaker on a caller-supplied virtual clock."""

    def __init__(self, failure_threshold: int = BREAKER_THRESHOLD):
        if failure_threshold < 1:
            raise ReproError(
                "breaker failure threshold must be >= 1, got %d"
                % failure_threshold)
        self.failure_threshold = failure_threshold
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at_s = 0.0

    # ------------------------------------------------------------------
    def state(self, now_s: float) -> str:
        """The breaker state at virtual time ``now_s``.

        An open breaker whose cool-down has elapsed reports (and
        becomes) half-open — the transition is lazy but deterministic,
        because it depends only on ``now_s``.
        """
        if (self._state == "open"
                and now_s >= self._opened_at_s + BREAKER_COOLDOWN_S):
            self._state = "half-open"
        return self._state

    def allow(self, now_s: float) -> bool:
        """May this replica receive a shard at ``now_s``?

        Closed and half-open allow (half-open is the probe); open
        refuses.
        """
        return self.state(now_s) != "open"

    def record_success(self, now_s: float) -> Optional[str]:
        """A shard attempt succeeded; returns a new state or None."""
        prior = self.state(now_s)
        self._consecutive_failures = 0
        if prior != "closed":
            self._state = "closed"
            return "closed"
        return None

    def record_failure(self, now_s: float) -> Optional[str]:
        """A shard attempt failed; returns a new state or None."""
        prior = self.state(now_s)
        self._consecutive_failures += 1
        if prior == "half-open":
            # The probe failed: straight back to open, fresh cool-down.
            self._state = "open"
            self._opened_at_s = now_s
            return "open"
        if (prior == "closed"
                and self._consecutive_failures >= self.failure_threshold):
            self._state = "open"
            self._opened_at_s = now_s
            return "open"
        return None


class HealthTracker:
    """Per-replica breakers plus the fleet's failure/recovery series."""

    def __init__(
        self,
        n_replicas: int,
        registry: Optional[Registry] = None,
        failure_threshold: int = BREAKER_THRESHOLD,
    ):
        if n_replicas < 1:
            raise ReproError("health tracker needs at least 1 replica")
        self.n_replicas = n_replicas
        self.registry = registry if registry is not None else Registry()
        self.breakers: List[CircuitBreaker] = [
            CircuitBreaker(failure_threshold=failure_threshold)
            for _ in range(n_replicas)
        ]
        self._failures = self.registry.counter(
            "fleet_replica_failures_total",
            "Failed shard attempts, by replica and reason",
            labelnames=("replica", "reason"))
        self._failovers = self.registry.counter(
            "fleet_failovers_total",
            "Shards re-routed off a failed or breaker-open replica, "
            "by reason",
            labelnames=("reason",))
        self._transitions = self.registry.counter(
            "fleet_breaker_transitions_total",
            "Circuit-breaker state transitions, by replica and new state",
            labelnames=("replica", "to"))
        self._state_gauge = self.registry.gauge(
            "fleet_breaker_state",
            "Breaker state by replica: 0 closed, 1 half-open, 2 open",
            labelnames=("replica",))
        self._hedges = self.registry.counter(
            "fleet_hedges_total",
            "Hedged dispatches of straggler-replica shards")
        self._obs_dropped = self.registry.counter(
            "fleet_obs_dropped_total",
            "Replica telemetry snapshots dropped and tolerated")
        self._failovers_last_replay = 0
        self._last_errors: Dict[int, str] = {}

    # ------------------------------------------------------------------
    def begin_replay(self) -> None:
        """Reset the per-replay failover count (degradation input)."""
        self._failovers_last_replay = 0

    def allow(self, replica: int, now_s: float) -> bool:
        return self.breakers[replica].allow(now_s)

    def record_success(self, replica: int, now_s: float) -> None:
        transition = self.breakers[replica].record_success(now_s)
        self._note_transition(replica, transition, now_s)

    def record_failure(self, replica: int, reason: str,
                       now_s: float) -> None:
        self._failures.inc(replica=replica, reason=reason)
        transition = self.breakers[replica].record_failure(now_s)
        self._note_transition(replica, transition, now_s)

    def record_error(self, replica: int, error: BaseException) -> None:
        """Keep the text of the exception a replica's shard raised."""
        self._last_errors[replica] = "%s: %s" % (type(error).__name__, error)

    def record_failover(self, reason: str) -> None:
        self._failovers.inc(reason=reason)
        self._failovers_last_replay += 1

    def record_hedge(self) -> None:
        self._hedges.inc()

    def record_obs_drop(self) -> None:
        self._obs_dropped.inc()

    def _note_transition(self, replica: int, transition: Optional[str],
                         now_s: float) -> None:
        if transition is not None:
            self._transitions.inc(replica=replica, to=transition)
        self._state_gauge.set(
            _STATE_VALUES[self.breakers[replica].state(now_s)],
            replica=replica)

    # ------------------------------------------------------------------
    def states(self, now_s: float) -> Dict[int, str]:
        return {replica: breaker.state(now_s)
                for replica, breaker in enumerate(self.breakers)}

    def open_count(self, now_s: float) -> int:
        return sum(1 for state in self.states(now_s).values()
                   if state == "open")

    def degradation(self, now_s: float) -> str:
        """The fleet's current level: healthy / degraded / critical."""
        open_breakers = self.open_count(now_s)
        if open_breakers * 2 >= self.n_replicas:
            return "critical"
        if open_breakers or self._failovers_last_replay:
            return "degraded"
        return "healthy"

    @property
    def failovers(self) -> int:
        return int(round(self._failovers.total()))

    @property
    def failures(self) -> int:
        return int(round(self._failures.total()))

    @property
    def hedges(self) -> int:
        return int(round(self._hedges.total()))

    @property
    def obs_dropped(self) -> int:
        return int(round(self._obs_dropped.total()))

    def stats(self, now_s: float) -> dict:
        """JSON-serializable health snapshot for the SLO surface."""
        snap = {
            "degradation": self.degradation(now_s),
            "breakers": {str(replica): state
                         for replica, state in self.states(now_s).items()},
            "failures": self.failures,
            "failures_by_reason": {
                "%s/%s" % (labels["replica"], labels["reason"]):
                    int(round(value))
                for labels, value in self._failures.series()
            },
            "failovers": self.failovers,
            "failovers_by_reason": {
                labels["reason"]: int(round(value))
                for labels, value in self._failovers.series()
            },
            "hedges": self.hedges,
            "obs_dropped": self.obs_dropped,
        }
        if self._last_errors:
            snap["last_errors"] = {
                str(replica): text
                for replica, text in sorted(self._last_errors.items())
            }
        return snap
