"""Admission control: bounded queues, priority classes, load shedding.

The fleet runs on the same virtual clock as the engines it fronts, so
"queue depth" has an exact, reproducible meaning: a request admitted at
virtual time ``t`` occupies its replica's batcher for at most
``window_s`` seconds (the batching deadline — after that the group has
flushed to the device).  The controller therefore models each replica's
occupancy as the count of admitted arrivals inside the sliding window
``(t - window_s, t]`` and refuses admission past ``queue_depth``.  The
model is an upper bound (a group that fills ``max_batch`` flushes
early), which errs on the side of shedding before a replica drowns —
the conservative direction for an admission controller.

Priority classes (:data:`~repro.serve.request.PRIORITY_CLASSES`) order
the degradation:

* ``critical`` — always admitted to its affinity replica, even past
  the bound (backpressure never blocks the real-time lane);
* ``standard`` — spills to the least-loaded replica when its home is
  full, shed only when the whole fleet is at the bound;
* ``batch`` — shed as soon as its home replica is full (it never
  spills and never displaces cache-hot capacity).

A request whose absolute deadline has *already passed* on arrival is
shed immediately (reason ``"expired"``) — serving it would burn device
time producing an answer nobody is waiting for.  Requests shed for
queue pressure carry reason ``"overload"``, and a request the fleet
admitted but could not serve even after failover (every retry round
exhausted) is accounted here too, reason ``"failed"`` — shedding is the
single ledger of unanswered requests.  Every shed increments the
``fleet_shed_total{reason,priority}`` counter — the shed rate is an SLO
headline, not a log line.

The per-request :class:`ShedRecord` detail is kept in a bounded ring
buffer (:data:`DEFAULT_SHED_RECORD_CAP`, 10k): a long-lived fleet under
sustained overload must not grow memory without bound.  The aggregate
counters stay exact forever; only the per-request detail ages out.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.errors import ReproError
from repro.obs.metrics import Registry
from repro.serve.request import PRIORITY_CLASSES, ConvRequest

from repro.fleet.router import FleetRouter

__all__ = ["AdmissionController", "ShedRecord", "DEFAULT_SHED_RECORD_CAP"]

#: Bound on retained per-request shed detail records.
DEFAULT_SHED_RECORD_CAP = 10_000


@dataclass(frozen=True)
class ShedRecord:
    """One request the fleet did not answer, and why."""

    req_id: int
    reason: str                  # "expired" | "overload" | "failed"
    priority: str
    arrival_s: float


class AdmissionController:
    """Sliding-window queue bounds + priority-ordered shedding."""

    def __init__(
        self,
        router: FleetRouter,
        queue_depth: int,
        window_s: float,
        registry: Optional[Registry] = None,
    ):
        if queue_depth < 1:
            raise ReproError("queue depth must be at least 1, got %d"
                             % queue_depth)
        if window_s < 0:
            raise ReproError("admission window must be non-negative")
        self.router = router
        self.queue_depth = queue_depth
        self.window_s = window_s
        self.registry = registry if registry is not None else Registry()
        self._windows = [deque() for _ in range(router.n_replicas)]
        self._admitted = self.registry.counter(
            "fleet_admitted_total", "Requests admitted, by replica",
            labelnames=("replica",))
        self._shed = self.registry.counter(
            "fleet_shed_total", "Requests shed, by reason and priority",
            labelnames=("reason", "priority"))
        self._depth_gauge = self.registry.gauge(
            "fleet_queue_depth",
            "Modeled sliding-window queue occupancy, by replica",
            labelnames=("replica",))
        # Each replica's series key, and whether depths() has written
        # every replica's depth series yet.
        self._replica_keys = [(str(r),) for r in range(router.n_replicas)]
        self._depths_published = False
        # Ring buffer: aggregate counters stay exact; per-request
        # detail is bounded so sustained overload cannot grow memory.
        self.shed_records: Deque[ShedRecord] = deque(
            maxlen=DEFAULT_SHED_RECORD_CAP)

    # ------------------------------------------------------------------
    def depths(self, now: float) -> List[int]:
        """Per-replica modeled occupancy at virtual time ``now``.

        Arrivals older than the admission window have flushed to the
        device and no longer exert backpressure.  A replica's
        ``fleet_queue_depth`` series is written on the first call and
        then only when its window lost arrivals: :meth:`admit` writes
        it after each arrival, so otherwise it already holds the depth.
        """
        horizon = now - self.window_s
        publish_all = not self._depths_published
        self._depths_published = True
        out = []
        for key, window in zip(self._replica_keys, self._windows):
            changed = publish_all
            while window and window[0] <= horizon:
                window.popleft()
                changed = True
            if changed:
                self._depth_gauge.set_key(key, len(window))
            out.append(len(window))
        return out

    def admit(self, request: ConvRequest) -> Optional[int]:
        """Route one arrival; returns its replica, or None if shed.

        Arrivals must be offered in non-decreasing virtual-time order
        (the fleet replays traces sorted by arrival, like the engine).
        """
        if request.priority not in PRIORITY_CLASSES:
            raise ReproError(
                "unknown priority %r; priority classes: %s"
                % (request.priority, ", ".join(PRIORITY_CLASSES)))
        now = request.arrival_s
        if request.deadline_s is not None and request.deadline_s <= now:
            self._record_shed(request, "expired")
            return None
        replica = self.router.route(
            request.problem, self.depths(now), self.queue_depth,
            priority=request.priority,
        )
        if replica is None:
            self._record_shed(request, "overload")
            return None
        window = self._windows[replica]
        window.append(now)
        key = self._replica_keys[replica]
        self._admitted.inc_key(key)
        self._depth_gauge.set_key(key, len(window))
        return replica

    def record_abandoned(self, request: ConvRequest) -> None:
        """Account a request admitted but never served (failover
        exhausted every retry round) — reason ``"failed"``."""
        self._record_shed(request, "failed")

    def _record_shed(self, request: ConvRequest, reason: str) -> None:
        self._shed.inc(reason=reason, priority=request.priority)
        self.shed_records.append(ShedRecord(
            req_id=request.req_id, reason=reason,
            priority=request.priority, arrival_s=request.arrival_s,
        ))

    # ------------------------------------------------------------------
    @property
    def admitted(self) -> int:
        return int(round(self._admitted.total()))

    @property
    def shed(self) -> int:
        return int(round(self._shed.total()))

    @property
    def shed_rate(self) -> float:
        """Sheds over offered requests (0.0 before any arrival)."""
        offered = self.admitted + self.shed
        return self.shed / offered if offered else 0.0

    def stats(self) -> dict:
        return {
            "queue_depth": self.queue_depth,
            "window_s": self.window_s,
            "shed_record_cap": self.shed_records.maxlen,
            "admitted": self.admitted,
            "shed": self.shed,
            "shed_rate": self.shed_rate,
            "shed_by_reason": {
                "%s/%s" % (labels["reason"], labels["priority"]):
                    int(round(value))
                for labels, value in self._shed.series()
            },
        }
