"""Span tracing with coexisting wall and virtual clocks.

The simulator's interesting time axis is *modeled* device time (the
serving engine's virtual clock, the timing model's estimates), while
planning, design-space exploration, and the Python host all run in
*wall* time.  A :class:`Tracer` therefore keeps two tracks:

* ``wall`` — spans opened with the :meth:`Tracer.span` context manager
  are timed with ``time.perf_counter`` relative to the tracer's epoch,
  and nest naturally (the exporter lays them out on one thread track
  per nesting stack).
* ``virtual`` — spans recorded with explicit modeled timestamps via
  :meth:`Tracer.add_span` (e.g. a batch's queue window and its kernel's
  device occupancy), which may overlap arbitrarily.

Both tracks export to one Chrome trace-event file (see
:mod:`repro.obs.exporters`) as separate "processes", so Perfetto shows
host activity above the modeled device timeline.

A process-wide default tracer mirrors the metrics registry:
:func:`get_tracer` / :func:`set_tracer` / :func:`reset_tracer`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import ObservabilityError

__all__ = [
    "Span",
    "Tracer",
    "WALL_TRACK",
    "VIRTUAL_TRACK",
    "get_tracer",
    "set_tracer",
    "reset_tracer",
]

WALL_TRACK = "wall"
VIRTUAL_TRACK = "virtual"

#: Spans one tracer keeps; later spans are counted in ``dropped``.
MAX_SPANS = 100_000


@dataclass
class Span:
    """One completed span on either clock."""

    name: str
    category: str
    track: str                  # WALL_TRACK | VIRTUAL_TRACK
    start_s: float              # seconds since the tracer's epoch
    duration_s: float
    depth: int = 0              # wall-track nesting depth at open time
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


class Tracer:
    """Bounded in-memory span buffer feeding the exporters."""

    def __init__(self):
        self.spans: List[Span] = []
        self.dropped = 0
        self._epoch = time.perf_counter()
        self._depth = 0

    # ------------------------------------------------------------------
    def now_s(self) -> float:
        """Wall seconds since this tracer's epoch."""
        return time.perf_counter() - self._epoch

    def _record(self, span: Span) -> None:
        if len(self.spans) >= MAX_SPANS:
            self.dropped += 1
            return
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, category: str = "default",
             args: Optional[dict] = None):
        """Wall-clock span context manager; yields the mutable args dict.

        The body may add result annotations (``d["hit"] = True``); they
        land in the exported span's ``args``.
        """
        span_args: Dict[str, object] = dict(args or {})
        start = self.now_s()
        depth = self._depth
        self._depth += 1
        try:
            yield span_args
        finally:
            self._depth -= 1
            self._record(Span(
                name=name, category=category, track=WALL_TRACK,
                start_s=start, duration_s=self.now_s() - start,
                depth=depth, args=span_args,
            ))

    def add_span(self, name: str, category: str, start_s: float,
                 duration_s: float, track: str = VIRTUAL_TRACK,
                 args: Optional[dict] = None, depth: int = 0) -> None:
        """Record a span with explicit timestamps (the virtual clock)."""
        if duration_s < 0:
            raise ObservabilityError("span duration cannot be negative")
        if track not in (WALL_TRACK, VIRTUAL_TRACK):
            raise ObservabilityError("unknown track %r" % (track,))
        self._record(Span(
            name=name, category=category, track=track,
            start_s=start_s, duration_s=duration_s,
            depth=depth, args=dict(args or {}),
        ))

    def instant(self, name: str, category: str = "default",
                track: str = WALL_TRACK, ts_s: Optional[float] = None,
                args: Optional[dict] = None) -> None:
        """Zero-duration marker (cache hits, flush decisions)."""
        ts = self.now_s() if ts_s is None else ts_s
        self.add_span(name, category, ts, 0.0, track=track, args=args)

    # ------------------------------------------------------------------
    def categories(self) -> Set[str]:
        return {span.category for span in self.spans}

    def by_category(self, category: str) -> List[Span]:
        return [span for span in self.spans if span.category == category]

    def clear(self) -> None:
        self.spans.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.spans)


# ----------------------------------------------------------------------
# Process-wide default tracer
# ----------------------------------------------------------------------

_global_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer (CLI runs trace through it)."""
    return _global_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide tracer; returns the previous one."""
    global _global_tracer
    if not isinstance(tracer, Tracer):
        raise ObservabilityError("set_tracer needs a Tracer")
    previous = _global_tracer
    _global_tracer = tracer
    return previous


def reset_tracer() -> Tracer:
    """Replace the process-wide tracer with a fresh one and return it."""
    global _global_tracer
    _global_tracer = Tracer()
    return _global_tracer
