"""The fleet engine: N serving replicas behind one deterministic front.

:class:`FleetEngine` replays a request trace through ``replicas``
independent :class:`~repro.serve.engine.ServeEngine` instances:

1. **Route + admit** (parent, virtual-time order) — every arrival is
   hashed to its shape-affinity replica, bounded by the admission
   window, spilled or shed per its priority class
   (:mod:`repro.fleet.router`, :mod:`repro.fleet.admission`).
2. **Pre-plan** (parent) — each distinct admitted shape is planned once
   through the two cache tiers: the fleet-local LRU, then the
   :class:`~repro.fleet.shared_cache.SharedPlanCache`, and only then
   the design-space explorer.  The winning plans are handed to the
   replicas so every replica starts hot.
3. **Replay with failover** — each replica serves its sub-trace in
   turn, in this process.  A shard attempt that *fails* — a crashed or
   wedged replica, a shard that raises, or an injected fault from an
   installed :class:`~repro.chaos.injector.FaultInjector` — feeds the
   replica's circuit breaker
   (:mod:`repro.fleet.health`) and is re-routed whole to a healthy
   survivor, bounded by :data:`FAILOVER_RETRIES` rounds with exponential
   virtual-clock backoff.  Because every replica builds an identical
   fresh engine from the same seeds, a failed-over shard's responses
   are bit-identical to what the failed replica would have produced —
   failover moves work, never changes answers.  Stragglers can be
   hedged (``hedge=True``): a shard the chaos plan marks ``slow`` is
   speculatively re-dispatched and the faster attempt bounds the
   makespan.
4. **Reassemble + account** — responses are stitched back into request
   order by id with an exactly-once guard (a request can never be
   answered twice, and an admitted request that every failover round
   failed to serve is *accounted*, as a ``failed`` shed, never silently
   lost), and the SLO surface (:mod:`repro.fleet.slo`) records latency
   percentiles, deadline misses, the fleet makespan, and the current
   degradation level.

Determinism contract: with a queue bound loose enough that nothing is
shed, the fleet's responses are **bit-identical** to a single
``ServeEngine`` serially replaying the same trace — same outputs, same
winning backends — because routing only partitions the trace and every
replica runs the same deterministic planning and execution stack.  The
contract survives chaos: an installed fault plan is seeded, so two runs
with the same plan fail and recover identically, and every *served*
response stays bit-identical to the fault-free replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.chaos.injector import FaultInjector
from repro.chaos.plan import FaultPlan
from repro.errors import ReproError
from repro.gpu.arch import GPUArchitecture, KEPLER_K40M
from repro.obs.exporters import write_chrome_trace
from repro.obs.metrics import Registry
from repro.obs.tracing import Tracer, VIRTUAL_TRACK
from repro.serve.dispatch import Dispatcher
from repro.serve.engine import ServeEngine
from repro.serve.plan_cache import PlanCache
from repro.serve.request import ConvRequest, ConvResponse, plan_key
from repro.fleet.admission import AdmissionController, ShedRecord
from repro.fleet.health import BREAKER_THRESHOLD, HealthTracker
from repro.fleet.router import FleetRouter
from repro.fleet.shared_cache import SharedPlanCache, cache_version_token
from repro.fleet.slo import FleetStats, format_fleet_stats

__all__ = [
    "MAX_REPLICAS",
    "MAX_QUEUE_DEPTH",
    "check_replicas",
    "check_queue_depth",
    "FleetConfig",
    "FleetResult",
    "FleetEngine",
]

#: Replica-count bound: past this, per-replica traffic is too thin for
#: shape affinity to keep any cache hot.
MAX_REPLICAS = 64

#: Admission queue-depth bound per replica.
MAX_QUEUE_DEPTH = 4096

#: Failover rounds a failed shard gets before its requests are
#: abandoned (accounted as ``failed`` sheds).
FAILOVER_RETRIES = 2

#: Virtual-clock backoff before failover round ``r``:
#: ``RETRY_BACKOFF_S * 2 ** (r - 1)`` seconds.
RETRY_BACKOFF_S = 1e-3


def check_replicas(replicas: int) -> int:
    """Validate a replica count; the error names the valid range."""
    if not isinstance(replicas, int) or not 1 <= replicas <= MAX_REPLICAS:
        raise ReproError(
            "invalid replica count %r; valid range: 1..%d"
            % (replicas, MAX_REPLICAS))
    return replicas


def check_queue_depth(queue_depth: int) -> int:
    """Validate a per-replica queue depth; the error names the range."""
    if (not isinstance(queue_depth, int)
            or not 1 <= queue_depth <= MAX_QUEUE_DEPTH):
        raise ReproError(
            "invalid queue depth %r; valid range: 1..%d"
            % (queue_depth, MAX_QUEUE_DEPTH))
    return queue_depth


@dataclass
class FleetConfig:
    """Everything needed to (re)build the fleet and its replicas.

    The per-replica fields mirror :class:`~repro.serve.engine.ServeEngine`
    so a fleet of one is configured exactly like a single engine.  The
    resilience fields govern recovery (docs/RESILIENCE.md): the
    circuit-breaker trip point (``breaker_threshold``) and straggler
    hedging (``hedge``).  Failover rounds, their backoff, the breaker
    cool-down, plan-build retries and the shed-record ring are fixed
    constants of the modules that use them.
    """

    arch: GPUArchitecture = KEPLER_K40M
    replicas: int = 4
    deadline_s: float = 1e-3
    max_batch: int = 32
    backends: Optional[Tuple[str, ...]] = None
    queue_depth: int = 64
    breaker_threshold: int = BREAKER_THRESHOLD
    hedge: bool = False

    def __post_init__(self):
        check_replicas(self.replicas)
        check_queue_depth(self.queue_depth)
        if self.backends is not None:
            self.backends = tuple(self.backends)
        if self.breaker_threshold < 1:
            raise ReproError("breaker_threshold must be >= 1, got %d"
                             % self.breaker_threshold)

    def engine_kwargs(self) -> dict:
        """Constructor kwargs for one replica's ServeEngine."""
        return {
            "arch": self.arch,
            "deadline_s": self.deadline_s,
            "max_batch": self.max_batch,
            "backends": self.backends,
        }


@dataclass
class FleetResult:
    """One trace replay: responses aligned with the input requests.

    ``responses[i]`` is the response for ``requests[i]`` or ``None`` if
    it was shed; ``assignments[i]`` is its replica (or ``None``).
    ``shed`` covers every unanswered request: refused at admission
    (``expired`` / ``overload``) or abandoned after exhausting failover
    rounds (``failed``) — nothing goes missing without a record.
    """

    responses: List[Optional[ConvResponse]]
    assignments: List[Optional[int]]
    shed: List[ShedRecord] = field(default_factory=list)
    failovers: int = 0
    hedges: int = 0

    @property
    def served(self) -> int:
        return sum(1 for r in self.responses if r is not None)

    @property
    def shed_count(self) -> int:
        return len(self.shed)

    @property
    def abandoned(self) -> List[ShedRecord]:
        """Requests admitted but never served (failover exhausted)."""
        return [record for record in self.shed if record.reason == "failed"]


def _serve_replica_shard(replica: int, engine_kwargs: dict,
                         requests: Sequence[ConvRequest], seeds,
                         directives: Optional[dict],
                         traced: bool = False) -> dict:
    """Replay one replica's sub-trace on a fresh engine.

    Runs against a replica-private registry (and tracer, if ``traced``)
    and hands both back as ``obs``, which the fleet folds under the
    replica's name only if the attempt succeeds: a failed attempt
    leaves no telemetry behind.

    ``directives`` (from an installed fault injector) simulate this
    attempt's share of the chaos plan: a ``crash`` serves ``after``
    requests and then loses the whole attempt, a ``wedge`` returns
    nothing at all (the modeled worker-timeout), ``slow`` inflates the
    reported clock, and ``drop_obs`` drops the attempt's telemetry
    before the fleet folds it.  Injected failures come back as
    *structured outcomes* (a dict with a ``failed`` reason); the fleet's
    failover loop owns recovery from those and from any exception
    raised here.
    """
    directives = directives or {}
    fault = directives.get("fault")
    if fault == "wedge":
        return {"replica": replica, "failed": "wedge"}
    registry = Registry()
    tracer = Tracer() if traced else None
    engine = ServeEngine(registry=registry, tracer=tracer, **engine_kwargs)
    for key, plan in seeds:
        engine.plan_cache.put(key, plan)
    if fault == "crash":
        # Mid-flight loss: serve a prefix, then die with every response
        # of the attempt (including the prefix's) unrecoverable.
        prefix = sorted(requests, key=lambda r: r.arrival_s)
        for request in prefix[:directives.get("after", 0)]:
            engine.submit(request)
        return {"replica": replica, "failed": "crash",
                "served_before_crash": min(directives.get("after", 0),
                                           len(prefix))}
    responses = engine.serve_trace(requests)
    clock_s = engine.clock_s
    if fault == "slow":
        clock_s *= directives.get("factor", 4.0)
    return {
        "replica": replica,
        "responses": responses,
        "clock_s": clock_s,
        "slow": fault == "slow",
        "stats": engine.stats(),
        "obs": None if directives.get("drop_obs") else (registry, tracer),
    }


class FleetEngine:
    """Shape-affinity-routed fleet of serving replicas."""

    def __init__(
        self,
        config: Optional[FleetConfig] = None,
        registry: Optional[Registry] = None,
        tracer: Optional[Tracer] = None,
        shared_cache: Optional[SharedPlanCache] = None,
        chaos: Union[None, str, FaultPlan, FaultInjector] = None,
    ):
        self.config = config if config is not None else FleetConfig()
        self.registry = registry if registry is not None else Registry()
        self.tracer = tracer
        self.chaos = self._resolve_chaos(chaos)
        self.router = FleetRouter(self.config.replicas,
                                  registry=self.registry)
        # The admission window equals the batching deadline: that is
        # how long an admitted request can occupy its replica's queue
        # before the batcher is guaranteed to have flushed it.
        self.admission = AdmissionController(
            self.router, queue_depth=self.config.queue_depth,
            window_s=self.config.deadline_s, registry=self.registry)
        self.shared_cache = (shared_cache if shared_cache is not None
                             else SharedPlanCache(registry=self.registry))
        self.health = HealthTracker(
            self.config.replicas, registry=self.registry,
            failure_threshold=self.config.breaker_threshold)
        self.slo = FleetStats(registry=self.registry)
        # Parent-side planner: its PlanCache is the fleet-local tier,
        # consulted before the shared tier on every distinct shape.
        self._planner = Dispatcher(
            self.config.arch,
            cache=PlanCache(registry=self.registry),
            backends=self.config.backends,
            registry=self.registry, tracer=tracer,
            chaos=self.chaos,
        )
        if self.chaos is not None:
            self.shared_cache.install_chaos(self.chaos)
        self._cache_token = cache_version_token(
            self.config.arch, self._planner.backends)
        self._last_engine_stats: Dict[int, dict] = {}
        # The fleet's monotone virtual clock: breaker cool-downs and
        # failover backoff live on it.  Each replay advances it by the
        # replay's makespan; advance_clock models idle time in between.
        self._epoch_s = 0.0

    def _resolve_chaos(self, chaos) -> Optional[FaultInjector]:
        if chaos is None:
            return None
        if isinstance(chaos, str):
            chaos = FaultPlan.parse(chaos)
        if isinstance(chaos, FaultPlan):
            chaos = FaultInjector(chaos, self.config.replicas)
        if not isinstance(chaos, FaultInjector):
            raise ReproError(
                "chaos must be a spec string, FaultPlan, or FaultInjector; "
                "got %r" % (type(chaos).__name__,))
        return chaos

    # ------------------------------------------------------------------
    # Virtual clock
    # ------------------------------------------------------------------
    @property
    def clock_s(self) -> float:
        """The fleet's virtual-clock position (breaker timeline)."""
        return self._epoch_s

    def advance_clock(self, dt_s: float) -> float:
        """Model idle virtual time (e.g. to let breakers cool down)."""
        if dt_s < 0:
            raise ReproError("cannot advance the clock backwards")
        self._epoch_s += dt_s
        return self._epoch_s

    # ------------------------------------------------------------------
    # Planning (two cache tiers)
    # ------------------------------------------------------------------
    def plan_for(self, problem):
        """Plan one shape: local tier, then shared tier, then the DSE.

        Transient build failures (injected or real) are retried up to
        :data:`~repro.serve.dispatch.PLAN_RETRIES` times by the planner
        before surfacing.
        """
        key = plan_key(problem, self.config.arch)
        plan = self._planner.cache.lookup(key)
        if plan is not None:
            return plan
        plan = self.shared_cache.get_or_build(
            self._cache_token, key,
            lambda: self._planner.build_plan_retrying(problem))
        self._planner.cache.put(key, plan)
        return plan

    def invalidate_plans(self, reason: str = "manual") -> int:
        """Drop both cache tiers (e.g. after a preset change)."""
        dropped = self.shared_cache.invalidate(reason)
        self._planner.cache.clear()
        return dropped

    # ------------------------------------------------------------------
    # Trace replay
    # ------------------------------------------------------------------
    def serve_trace(self, requests: Sequence[ConvRequest]) -> FleetResult:
        """Replay a trace through the fleet; see the module docstring."""
        reqs = list(requests)
        by_req_id = {r.req_id: r for r in reqs}
        if len(by_req_id) != len(reqs):
            raise ReproError("fleet traces need unique request ids")
        shed_before = self.admission.shed
        failovers_before = self.health.failovers
        hedges_before = self.health.hedges
        self.health.begin_replay()

        # Phase 1: route + admit in virtual-time order.
        shards: List[List[ConvRequest]] = [
            [] for _ in range(self.config.replicas)]
        assignment: Dict[int, Optional[int]] = {}
        for request in sorted(reqs, key=lambda r: r.arrival_s):
            replica = self.admission.admit(request)
            assignment[request.req_id] = replica
            if replica is not None:
                shards[replica].append(request)

        # Phase 2: pre-plan each replica's distinct shapes through the
        # local -> shared cache tiers, and seed the replicas with the
        # winners so they replan nothing.
        seeds: List[List[Tuple[tuple, object]]] = []
        for shard in shards:
            seen = {}
            for request in shard:
                key = plan_key(request.problem, self.config.arch)
                if key not in seen:
                    seen[key] = self.plan_for(request.problem)
            seeds.append(list(seen.items()))

        # Phase 3: replay with failover (see _replay_with_failover).
        engine_kwargs = self.config.engine_kwargs()
        work = [(replica, shard, seeds[replica])
                for replica, shard in enumerate(shards) if shard]
        responses_by_id, makespan, abandoned = self._replay_with_failover(
            work, engine_kwargs, by_req_id)

        # Phase 4: account the leftovers and reassemble.
        for request in abandoned:
            self.admission.record_abandoned(request)
        self.slo.record_makespan(makespan)
        self._epoch_s += makespan
        shed_new = self.admission.shed - shed_before
        records = list(self.admission.shed_records)
        return FleetResult(
            responses=[responses_by_id.get(r.req_id) for r in reqs],
            assignments=[assignment[r.req_id] for r in reqs],
            shed=records[len(records) - min(shed_new, len(records)):],
            failovers=self.health.failovers - failovers_before,
            hedges=self.health.hedges - hedges_before,
        )

    # ------------------------------------------------------------------
    def _replay_with_failover(self, work, engine_kwargs, by_req_id):
        """Phase 3: dispatch shards, absorbing failures round by round.

        Returns ``(responses_by_id, makespan, abandoned_requests)``.
        Invariants: a request id is answered at most once (exactly-once
        guard) and a shard is attempted at most ``1 + FAILOVER_RETRIES``
        times, each retry on a breaker-approved replica with
        exponential virtual-clock backoff.
        """
        now = self._epoch_s
        loads = {replica: len(shard) for replica, shard, _ in work}
        abandoned: List[ConvRequest] = []

        # Breaker-aware initial placement: a shard whose home replica
        # is breaker-open fails over before it is ever dispatched.
        pending = []
        for replica, shard, seed in work:
            if self.health.allow(replica, now):
                pending.append((replica, shard, seed))
                continue
            target = self._failover_target(replica, now, loads)
            if target is None:
                abandoned.extend(shard)
                continue
            self.health.record_failover("breaker-open")
            loads[target] = loads.get(target, 0) + len(shard)
            pending.append((target, shard, seed))

        responses_by_id: Dict[int, ConvResponse] = {}
        makespan = 0.0
        round_no = 0
        while pending:
            failed = []
            succeeded = []
            for replica, shard, seed in pending:
                directives = (self.chaos.replica_directives(replica)
                              if self.chaos is not None else None)
                # Where this attempt starts on the fleet's wall clock:
                # its replica tracer's spans are shifted by this much.
                started_s = (self.tracer.now_s()
                             if self.tracer is not None else 0.0)
                try:
                    res = _serve_replica_shard(
                        replica, engine_kwargs, shard, seed, directives,
                        self.tracer is not None)
                    reason = res.get("failed")
                except Exception as exc:
                    reason = "error"
                    self.health.record_error(replica, exc)
                if reason is not None:
                    self.health.record_failure(replica, reason, now)
                    failed.append((replica, shard, seed, reason))
                    continue
                self.health.record_success(replica, now)
                self._absorb_result(res, by_req_id, responses_by_id,
                                    started_s)
                succeeded.append((replica, shard, seed, res))
            makespan = max(
                [makespan]
                + [self._effective_clock(item, engine_kwargs, now, loads)
                   for item in succeeded])
            if not failed:
                break
            round_no += 1
            if round_no > FAILOVER_RETRIES:
                for _, shard, _, _ in failed:
                    abandoned.extend(shard)
                break
            now += RETRY_BACKOFF_S * (2 ** (round_no - 1))
            pending = []
            for replica, shard, seed, reason in failed:
                target = self._failover_target(replica, now, loads)
                if target is None:
                    abandoned.extend(shard)
                    continue
                self.health.record_failover(reason)
                loads[target] = loads.get(target, 0) + len(shard)
                pending.append((target, shard, seed))
        return responses_by_id, makespan, abandoned

    def _effective_clock(self, item, engine_kwargs, now, loads) -> float:
        """A successful shard's makespan contribution, hedging included.

        With hedging enabled, a shard the chaos plan marks ``slow`` is
        speculatively re-served on a healthy peer; the faster attempt's
        clock bounds the makespan.  Responses are NOT taken from the
        hedge — both attempts are bit-identical by construction, so the
        primary's already-absorbed responses stand and the exactly-once
        guarantee is never at risk.  Its telemetry is never merged either,
        so the hedge runs untraced.
        """
        replica, shard, seed, res = item
        if not self.config.hedge or not res.get("slow"):
            return res["clock_s"]
        target = self._failover_target(replica, now, loads)
        if target is None:
            return res["clock_s"]
        self.health.record_hedge()
        directives = (self.chaos.replica_directives(target)
                      if self.chaos is not None else None)
        hedge = _serve_replica_shard(
            target, engine_kwargs, shard, seed, directives)
        if hedge.get("failed") or not hedge.get("responses"):
            return res["clock_s"]
        return min(res["clock_s"], hedge["clock_s"])

    def _failover_target(self, failed: int, now: float,
                         loads: Dict[int, int]) -> Optional[int]:
        """The survivor a failed shard re-routes to, or None.

        Deterministic: the least-loaded breaker-approved replica other
        than the failed one (ties break toward the lowest index); the
        failed replica itself is retried only when it is the sole
        approved replica left.
        """
        candidates = [r for r in range(self.config.replicas)
                      if r != failed and self.health.allow(r, now)]
        if not candidates:
            return failed if self.health.allow(failed, now) else None
        return min(candidates, key=lambda r: (loads.get(r, 0), r))

    def _absorb_result(self, res, by_req_id, responses_by_id,
                       started_s) -> None:
        """Fold one successful shard attempt into the fleet surfaces."""
        replica = res["replica"]
        if res["obs"] is None:
            # The attempt's telemetry was dropped (obs-drop fault):
            # count it and keep serving — telemetry loss must never
            # fail a request.
            self.health.record_obs_drop()
        else:
            self._merge_replica_obs(replica, *res["obs"], started_s)
        self._last_engine_stats[replica] = res["stats"]
        for response in res["responses"]:
            if response.req_id in responses_by_id:
                raise ReproError(
                    "duplicate response for request %d (exactly-once "
                    "reassembly violated)" % response.req_id)
            request = by_req_id[response.req_id]
            self.slo.record_response(replica, request, response)
            responses_by_id[response.req_id] = response

    def _merge_replica_obs(self, replica: int, registry: Registry,
                           tracer: Optional[Tracer], offset_s: float) -> None:
        """Fold a replica attempt's telemetry into the fleet surfaces.

        The registry folds in with :meth:`Registry.merge`, so counters
        and histograms sum into fleet-wide totals.  Wall spans shift by
        ``offset_s``, the fleet-tracer time the attempt started at;
        virtual spans land on per-replica track names
        (``replica3/kernel``) so the Perfetto export shows each
        replica's modeled timeline.
        """
        self.registry.merge(registry)
        if self.tracer is None:
            return
        for span in tracer.spans:
            virtual = span.track == VIRTUAL_TRACK
            category = span.category
            if virtual:
                category = "replica%d/%s" % (replica, category)
            self.tracer.add_span(
                span.name, category,
                span.start_s + (0.0 if virtual else offset_s),
                span.duration_s, track=span.track,
                args={**span.args, "replica": replica}, depth=span.depth,
            )

    # ------------------------------------------------------------------
    # Stats / export
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-serializable fleet snapshot (SLOs, admission, caches)."""
        snap = self.slo.snapshot(
            self.config.replicas,
            admission_stats=self.admission.stats(),
            router_stats=self.router.stats(),
            shared_cache_stats=self.shared_cache.stats(),
            health_stats=self.health.stats(self._epoch_s),
        )
        for replica, engine_stats in self._last_engine_stats.items():
            snap["replicas"][str(replica)]["engine"] = {
                "mean_batch_size": engine_stats["mean_batch_size"],
                "throughput_rps": engine_stats["throughput_rps"],
                "plan_cache_hit_rate":
                    engine_stats["plan_cache"]["hit_rate"],
            }
        return snap

    def format_stats(self) -> str:
        return format_fleet_stats(self.stats())

    def export_trace(self, path: str) -> dict:
        """Write the fleet's merged span log as Chrome trace-event JSON."""
        if self.tracer is None:
            raise ReproError(
                "fleet has no tracer; construct with tracer=... to trace")
        return write_chrome_trace(path, self.tracer, registry=self.registry)
