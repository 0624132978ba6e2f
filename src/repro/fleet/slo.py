"""Fleet-level SLO accounting on the telemetry registry.

The single-engine stats surface answers "how did this engine do"; the
SLO surface answers the operator's question: *is the fleet meeting its
latency objective, and when it is not, who pays?*  Everything lands in
one :class:`~repro.obs.metrics.Registry` so `repro obs`, the Prometheus
exporter, and the Perfetto trace all see the same series:

* ``fleet_latency_seconds`` — fleet-wide request latency histogram,
  the source of the headline p50/p95/p99;
* ``fleet_replica_latency_seconds{replica}`` — the same, per replica,
  so one slow replica cannot hide inside the fleet aggregate;
* ``fleet_requests_total{replica}`` / ``fleet_deadline_miss_total
  {replica}`` — served and deadline-missed counts;
* shed and affinity series come from the admission controller and the
  router (same registry) — the snapshot stitches all of it into one
  JSON-serializable dict.

Deadline *misses* are requests that were served but completed after
their absolute deadline; requests shed at admission never reach here
(they are accounted by ``fleet_shed_total``).  ``deadline_miss_rate``
is misses over served-with-deadline, so traces without deadlines report
0.0 rather than poisoning the SLO with an empty denominator.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import Registry
from repro.serve.request import ConvRequest, ConvResponse

__all__ = ["FleetStats", "format_fleet_stats"]


class FleetStats:
    """Registry-backed accumulator the fleet feeds as responses land."""

    def __init__(self, registry: Optional[Registry] = None):
        self.registry = registry if registry is not None else Registry()
        reg = self.registry
        self._served = reg.counter(
            "fleet_requests_total", "Requests served, by replica",
            labelnames=("replica",))
        self._latency = reg.histogram(
            "fleet_latency_seconds",
            "Fleet-wide modeled request latency (arrival to completion)")
        self._replica_latency = reg.histogram(
            "fleet_replica_latency_seconds",
            "Per-replica modeled request latency",
            labelnames=("replica",))
        self._deadline_misses = reg.counter(
            "fleet_deadline_miss_total",
            "Served requests that completed after their deadline, by replica",
            labelnames=("replica",))
        self._with_deadline = reg.counter(
            "fleet_deadline_carrying_total",
            "Served requests that carried a completion deadline")
        self._makespan = reg.gauge(
            "fleet_modeled_makespan_seconds",
            "Max replica device-timeline position after the last replay")

    # ------------------------------------------------------------------
    def record_response(self, replica: int, request: ConvRequest,
                        response: ConvResponse) -> None:
        key = (str(replica),)
        self._served.inc_key(key)
        self._latency.observe_key((), response.latency_s)
        self._replica_latency.observe_key(key, response.latency_s)
        if request.deadline_s is not None:
            self._with_deadline.inc_key(())
            if response.completed_s > request.deadline_s:
                self._deadline_misses.inc_key(key)

    def record_makespan(self, makespan_s: float) -> None:
        self._makespan.set(makespan_s)

    # ------------------------------------------------------------------
    @property
    def served(self) -> int:
        return int(round(self._served.total()))

    @property
    def deadline_misses(self) -> int:
        return int(round(self._deadline_misses.total()))

    @property
    def deadline_miss_rate(self) -> float:
        carrying = self._with_deadline.total()
        return self.deadline_misses / carrying if carrying else 0.0

    @property
    def makespan_s(self) -> float:
        return self._makespan.value()

    @property
    def sustained_rps(self) -> float:
        """Served requests per modeled second of fleet makespan.

        The fleet's replicas run concurrently on the virtual clock, so
        the honest throughput denominator is the *slowest* replica's
        timeline position, not the sum of busy times.
        """
        makespan = self.makespan_s
        return self.served / makespan if makespan > 0 else 0.0

    def _replica_block(self, replica: int) -> dict:
        label = str(replica)
        return {
            "served": int(round(self._served.value(replica=label))),
            "latency_p50_s": self._replica_latency.percentile(
                50, replica=label),
            "latency_p95_s": self._replica_latency.percentile(
                95, replica=label),
            "latency_p99_s": self._replica_latency.percentile(
                99, replica=label),
            "deadline_misses": int(round(
                self._deadline_misses.value(replica=label))),
        }

    def snapshot(
        self,
        n_replicas: int,
        admission_stats: Optional[dict] = None,
        router_stats: Optional[dict] = None,
        shared_cache_stats: Optional[dict] = None,
        health_stats: Optional[dict] = None,
    ) -> dict:
        snap = {
            "served": self.served,
            "latency_mean_s": self._latency.mean(),
            "latency_max_s": self._latency.max(),
            "latency_p50_s": self._latency.percentile(50),
            "latency_p95_s": self._latency.percentile(95),
            "latency_p99_s": self._latency.percentile(99),
            # Estimates (not exact order statistics) once the latency
            # reservoir truncates; see Histogram.is_estimated.
            "latency_estimated": self._latency.is_estimated(),
            "deadline_misses": self.deadline_misses,
            "deadline_miss_rate": self.deadline_miss_rate,
            "modeled_makespan_s": self.makespan_s,
            "sustained_rps": self.sustained_rps,
            "replicas": {
                str(r): self._replica_block(r) for r in range(n_replicas)
            },
        }
        if admission_stats is not None:
            snap["admission"] = dict(admission_stats)
        if router_stats is not None:
            snap["router"] = dict(router_stats)
        if shared_cache_stats is not None:
            snap["shared_plan_cache"] = dict(shared_cache_stats)
        if health_stats is not None:
            snap["health"] = dict(health_stats)
            snap["degradation"] = health_stats.get("degradation", "healthy")
        return snap


def format_fleet_stats(snap: dict) -> str:
    """Human-readable rendering of a :meth:`FleetStats.snapshot` dict."""
    lines = []
    lines.append("fleet served %d requests across %d replicas"
                 % (snap["served"], len(snap["replicas"])))
    lines.append("modeled makespan      : %.6f s" % snap["modeled_makespan_s"])
    lines.append("sustained throughput  : %.0f req/modeled-s"
                 % snap["sustained_rps"])
    lines.append("latency p50/p95/p99   : %.2e / %.2e / %.2e s"
                 % (snap["latency_p50_s"], snap["latency_p95_s"],
                    snap["latency_p99_s"]))
    lines.append("deadline misses       : %d (rate %.4f)"
                 % (snap["deadline_misses"], snap["deadline_miss_rate"]))
    if "admission" in snap:
        adm = snap["admission"]
        shed = ", ".join("%s=%d" % (k, v)
                         for k, v in sorted(adm["shed_by_reason"].items()))
        lines.append("admitted / shed       : %d / %d (shed rate %.4f%s)"
                     % (adm["admitted"], adm["shed"], adm["shed_rate"],
                        ("; " + shed) if shed else ""))
    if "router" in snap:
        rt = snap["router"]
        lines.append("router affinity       : %.4f hit rate "
                     "(%d home, %d spilled)"
                     % (rt["affinity_hit_rate"], rt["affinity_hits"],
                        rt["spills"]))
    if "shared_plan_cache" in snap:
        sc = snap["shared_plan_cache"]
        lines.append("shared plan cache     : %d entries, hit rate %.3f "
                     "(%d hits, %d misses, %d publishes, %d invalidations)"
                     % (sc["entries"], sc["hit_rate"], sc["hits"],
                        sc["misses"], sc["publishes"], sc["invalidations"]))
    if "health" in snap:
        health = snap["health"]
        open_breakers = sum(1 for state in health["breakers"].values()
                            if state == "open")
        lines.append("health                : %s (%d open breakers, "
                     "%d failures, %d failovers, %d hedges)"
                     % (health["degradation"], open_breakers,
                        health["failures"], health["failovers"],
                        health["hedges"]))
        for replica, text in health.get("last_errors", {}).items():
            lines.append("  replica %s last error: %s" % (replica, text))
    for replica, block in sorted(snap["replicas"].items(),
                                 key=lambda kv: int(kv[0])):
        lines.append(
            "  replica %s: served %d, p99 %.2e s, deadline misses %d"
            % (replica, block["served"], block["latency_p99_s"],
               block["deadline_misses"]))
    return "\n".join(lines)
