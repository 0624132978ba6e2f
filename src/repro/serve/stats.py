"""The serving engine's stats surface, backed by the telemetry registry.

Aggregates everything an operator would watch on a dashboard: request
and batch counts per backend, the batch-size histogram, latency
aggregates with p50/p95/p99 percentiles, the plan-cache hit rate, and a
histogram of modeled batch cost in GPU cycles (log-scaled buckets).
``snapshot()`` returns a plain JSON-serializable dict; ``format_stats``
renders it for humans.

Since the unified telemetry layer (:mod:`repro.obs`) landed, every
series lives as a named metric in a :class:`~repro.obs.metrics.Registry`
rather than in ad-hoc attributes.  The public contract is unchanged —
``snapshot()`` produces the same keys as before (plus the latency
percentiles) — but the same numbers are now also reachable through
``repro obs`` / the Prometheus and Chrome-trace exporters whenever the
engine shares the process-wide registry.  Metric names are catalogued
in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.obs.metrics import Registry

__all__ = ["ServeStats", "format_stats"]

#: Prometheus bucket bounds for batch sizes (powers of two up to the
#: engine's typical max_batch range).
_BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)

#: Log-spaced bounds for modeled batch cost in device cycles.
_CYCLES_BUCKETS = tuple(10.0 ** e for e in range(0, 10))


class ServeStats:
    """Registry-backed accumulator the engine feeds as batches complete.

    By default each instance owns a private registry so concurrent
    engines do not mix series; pass the process-wide registry
    (``repro.obs.get_registry()``) to publish globally instead.
    """

    def __init__(self, clock_hz: float, registry: Optional[Registry] = None):
        self.clock_hz = clock_hz
        self.registry = registry if registry is not None else Registry()
        reg = self.registry
        self._requests = reg.counter(
            "serve_requests_total", "Requests served, by executing backend",
            labelnames=("backend",))
        self._batches = reg.counter(
            "serve_batches_total", "Batches dispatched, by planned backend",
            labelnames=("backend",))
        self._flushes = reg.counter(
            "serve_batch_flushes_total", "Batch flushes, by trigger",
            labelnames=("reason",))
        self._busy = reg.counter(
            "serve_busy_seconds_total", "Modeled device-busy seconds")
        self._batch_size = reg.histogram(
            "serve_batch_size", "Requests coalesced per dispatched batch",
            buckets=_BATCH_SIZE_BUCKETS)
        self._latency = reg.histogram(
            "serve_latency_seconds",
            "Per-request modeled latency (arrival to batch completion)")
        self._batch_cycles = reg.histogram(
            "serve_batch_cycles", "Modeled device cycles per batch",
            buckets=_CYCLES_BUCKETS)

    # ------------------------------------------------------------------
    def record_batch(
        self, backend: str, batch_size: int, seconds: float, reason: str
    ) -> None:
        key = (backend,)
        self._batches.inc_key(key)
        self._requests.inc_key(key, batch_size)
        self._busy.inc_key((), seconds)
        self._flushes.inc_key((reason,))
        self._batch_size.observe_key((), batch_size)
        self._batch_cycles.observe_key((), seconds * self.clock_hz)

    def record_latency(self, latency_s: float) -> None:
        self._latency.observe_key((), latency_s)

    # ------------------------------------------------------------------
    @property
    def served(self) -> int:
        return int(round(self._requests.total()))

    @property
    def batches(self) -> int:
        return int(round(self._batches.total()))

    @property
    def busy_s(self) -> float:
        return self._busy.total()

    @property
    def mean_batch_size(self) -> float:
        return self.served / self.batches if self.batches else 0.0

    @property
    def throughput_rps(self) -> float:
        """Served requests per modeled second of backend execution."""
        served = self.served
        return served / self.busy_s if self.busy_s > 0 else 0.0

    # ------------------------------------------------------------------
    def _cycles_hist(self) -> dict:
        """Log10-bucketed batch-cost histogram (the pre-registry shape).

        Non-positive cycle counts (a defensive guard against a
        miscalibrated clock) land in a dedicated ``<=0`` bucket instead
        of feeding ``log10``.
        """
        buckets: dict = {}
        for cycles, count in sorted(self._batch_cycles.value_counts().items()):
            if cycles <= 0:
                key = "<=0"
            else:
                key = "1e%d" % int(math.floor(math.log10(cycles)))
            buckets[key] = buckets.get(key, 0) + count
        return {k: buckets[k] for k in sorted(buckets)}

    def snapshot(self, cache_stats: Optional[dict] = None) -> dict:
        served = self.served
        snap = {
            "served": served,
            "batches": self.batches,
            # Constant 0: serving has no per-request fallback.  The key
            # stays until benchmarks/e2e/workloads.py stops reading it.
            "fallbacks": 0,
            "mean_batch_size": self.mean_batch_size,
            "modeled_busy_seconds": self.busy_s,
            "throughput_rps": self.throughput_rps,
            "mean_latency_s": self._latency.mean(),
            "max_latency_s": self._latency.max(),
            "latency_p50_s": self._latency.percentile(50),
            "latency_p95_s": self._latency.percentile(95),
            "latency_p99_s": self._latency.percentile(99),
            # True when the latency reservoir truncated: the quantiles
            # above are then estimates from a decimated sample, not
            # exact order statistics over every request.
            "latency_estimated": self._latency.is_estimated(),
            "requests_per_backend": {
                labels["backend"]: int(round(value))
                for labels, value in self._requests.series()
            },
            "batches_per_backend": {
                labels["backend"]: int(round(value))
                for labels, value in self._batches.series()
            },
            "batch_size_hist": {
                str(int(size)): count for size, count in
                sorted(self._batch_size.value_counts().items())
            },
            "flush_reasons": {
                labels["reason"]: int(round(value))
                for labels, value in self._flushes.series()
            },
            "modeled_cycles_hist": self._cycles_hist(),
        }
        if cache_stats is not None:
            snap["plan_cache"] = dict(cache_stats)
        return snap


def format_stats(snap: dict) -> str:
    """Human-readable rendering of a :meth:`ServeStats.snapshot` dict."""
    lines = []
    lines.append("served %d requests in %d batches (mean batch %.2f)"
                 % (snap["served"], snap["batches"], snap["mean_batch_size"]))
    lines.append("modeled busy time     : %.6f s" % snap["modeled_busy_seconds"])
    lines.append("throughput            : %.0f req/modeled-s"
                 % snap["throughput_rps"])
    lines.append("latency mean / max    : %.2e / %.2e s"
                 % (snap["mean_latency_s"], snap["max_latency_s"]))
    if "latency_p50_s" in snap:
        lines.append("latency p50/p95/p99   : %.2e / %.2e / %.2e s"
                     % (snap["latency_p50_s"], snap["latency_p95_s"],
                        snap["latency_p99_s"]))
    per_backend = ", ".join(
        "%s=%d" % (name, count)
        for name, count in sorted(snap["requests_per_backend"].items())
    ) or "none"
    lines.append("requests per backend  : %s" % per_backend)
    if "plan_cache" in snap:
        cache = snap["plan_cache"]
        lines.append(
            "plan cache            : %d/%d entries, hit rate %.3f "
            "(%d hits, %d misses, %d evictions)"
            % (cache["entries"], cache["capacity"], cache["hit_rate"],
               cache["hits"], cache["misses"], cache["evictions"])
        )
    sizes = ", ".join("%s:%d" % (k, v)
                      for k, v in snap["batch_size_hist"].items())
    lines.append("batch-size histogram  : %s" % (sizes or "none"))
    cycles = ", ".join("%s:%d" % (k, v)
                       for k, v in snap["modeled_cycles_hist"].items())
    lines.append("batch-cycles histogram: %s" % (cycles or "none"))
    return "\n".join(lines)
