"""Dynamic batching: coalesce same-shape requests under a latency deadline.

Requests for the *same* problem shape can run as one kernel launch, so
the batcher buckets arrivals by :func:`~repro.serve.request.plan_key`
and flushes a bucket when either

* it reaches ``max_batch`` requests (flushed immediately, reason
  ``"full"``), or
* the *oldest* request in it has waited ``deadline_s`` of virtual time
  (reason ``"deadline"`` — the knob that trades tail latency for
  launch-overhead amortization), or
* the engine drains at end of trace (reason ``"drain"``).

``max_batch=1`` (or ``deadline_s=0``) degenerates to the unbatched
single-request path the benchmarks compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.metrics import Registry
from repro.serve.request import ConvRequest

__all__ = ["Batch", "DynamicBatcher"]


@dataclass
class Batch:
    """One flushable group of same-shape requests."""

    key: Tuple
    requests: List[ConvRequest]
    opened_s: float              # arrival of the oldest member
    reason: str = "full"         # "full" | "deadline" | "drain"

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def problem(self):
        return self.requests[0].problem


@dataclass
class _Group:
    requests: List[ConvRequest] = field(default_factory=list)
    opened_s: float = 0.0


class DynamicBatcher:
    """Shape-keyed request queue with deadline-driven flushing."""

    def __init__(self, deadline_s: float = 1e-3, max_batch: int = 32,
                 registry: Optional[Registry] = None):
        if deadline_s < 0:
            raise ReproError("deadline_s must be non-negative")
        if max_batch < 1:
            raise ReproError("max_batch must be at least 1")
        self.deadline_s = deadline_s
        self.max_batch = max_batch
        self.registry = registry if registry is not None else Registry()
        self._enqueued = self.registry.counter(
            "serve_queue_enqueued_total", "Requests admitted to the batcher")
        self._depth = self.registry.gauge(
            "serve_queue_depth", "Requests currently buffered in the batcher")
        self._groups_gauge = self.registry.gauge(
            "serve_queue_groups", "Distinct shape groups currently open")
        # Hashing a (ConvProblem, arch) key runs Python code, so the
        # request count is kept running and scans walk ``items()``
        # rather than looking each key up again.
        self._groups: Dict[Tuple, _Group] = {}
        self._pending = 0

    def _publish_depth(self) -> None:
        self._depth.set_key((), self._pending)
        self._groups_gauge.set_key((), len(self._groups))

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests currently buffered across all shape groups."""
        return self._pending

    def add(self, key: Tuple, request: ConvRequest,
            now: float) -> Optional[Batch]:
        """Buffer one request; return a full batch if it tipped the group."""
        group = self._groups.get(key)
        if group is None:
            group = _Group(opened_s=now)
            self._groups[key] = group
        group.requests.append(request)
        self._pending += 1
        self._enqueued.inc_key(())
        if len(group.requests) >= self.max_batch:
            del self._groups[key]
            self._pending -= len(group.requests)
            self._publish_depth()
            return Batch(key=key, requests=group.requests,
                         opened_s=group.opened_s, reason="full")
        self._publish_depth()
        return None

    def next_deadline(self) -> Optional[float]:
        """Virtual time of the earliest pending flush, if any."""
        if not self._groups:
            return None
        return min(g.opened_s for g in self._groups.values()) + self.deadline_s

    def due(self, now: float) -> List[Batch]:
        """Pop every group whose oldest request has waited out the deadline."""
        batches = [
            Batch(key=key, requests=group.requests, opened_s=group.opened_s,
                  reason="deadline")
            for key, group in self._groups.items()
            if now >= group.opened_s + self.deadline_s
        ]
        if batches:
            for batch in batches:
                del self._groups[batch.key]
                self._pending -= len(batch.requests)
            self._publish_depth()
        batches.sort(key=lambda b: b.opened_s)
        return batches

    def drain(self) -> List[Batch]:
        """Pop everything (end of trace / explicit flush)."""
        batches = [
            Batch(key=key, requests=group.requests,
                  opened_s=group.opened_s, reason="drain")
            for key, group in self._groups.items()
        ]
        self._groups.clear()
        self._pending = 0
        self._publish_depth()
        batches.sort(key=lambda b: b.opened_s)
        return batches
