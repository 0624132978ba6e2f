"""The serving engine: request queue, dynamic batching, dispatch, stats.

:class:`ServeEngine` is deterministic and event-driven: it keeps a
*virtual clock* in modeled seconds (the unit every timing breakdown
reports), so a whole traffic trace — arrivals, batching deadlines,
backend execution — plays out reproducibly with no wall-clock
dependence.  Two usage styles:

* **trace mode** — ``serve_trace(requests)`` replays a list of
  requests with modeled arrival times and returns one response per
  request (the CLI and benchmarks use this);
* **online mode** — ``submit()`` / ``poll(now)`` / ``flush()`` for
  incremental virtual-time use.

Every response is computed by one batched
:func:`~repro.conv.reference.conv2d_reference` call per batch, so
outputs are bit-identical to the reference; the planned backend
determines the modeled cost.

Batching amortizes the per-launch overhead of the modeled device: a
batch of B same-shape requests costs ``launch + B * busy`` modeled
seconds versus ``B * (launch + busy)`` unbatched, so batched throughput
in requests per modeled second is strictly higher whenever any batch
holds more than one request.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.gpu.arch import GPUArchitecture, KEPLER_K40M
from repro.obs.exporters import write_chrome_trace
from repro.obs.metrics import Registry
from repro.obs.tracing import Tracer
from repro.serve.batcher import Batch, DynamicBatcher
from repro.serve.dispatch import Dispatcher
from repro.serve.plan_cache import PlanCache
from repro.serve.request import ConvRequest, ConvResponse, plan_key
from repro.serve.stats import ServeStats, format_stats

__all__ = ["ServeEngine"]


class ServeEngine:
    """Dynamic-batching convolution server on the simulated substrate."""

    def __init__(
        self,
        arch: GPUArchitecture = KEPLER_K40M,
        deadline_s: float = 1e-3,
        max_batch: int = 32,
        backends: Optional[Sequence[str]] = None,
        registry: Optional[Registry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.arch = arch
        # One registry spans the whole serving stack (stats, batcher,
        # plan cache, dispatcher).  The default is engine-private so
        # concurrent engines stay isolated; pass
        # ``repro.obs.get_registry()`` to publish process-wide.
        self.registry = registry if registry is not None else Registry()
        self.tracer = tracer
        self.batcher = DynamicBatcher(
            deadline_s=deadline_s, max_batch=max_batch,
            registry=self.registry)
        self.dispatcher = Dispatcher(
            arch, cache=PlanCache(registry=self.registry),
            backends=backends, registry=self.registry, tracer=tracer,
        )
        self._stats = ServeStats(clock_hz=arch.clock_hz,
                                 registry=self.registry)
        self._clock = 0.0            # modeled device-timeline position
        self._batch_ids = itertools.count()

    # ------------------------------------------------------------------
    @property
    def clock_s(self) -> float:
        """Current position of the modeled device timeline."""
        return self._clock

    @property
    def plan_cache(self) -> PlanCache:
        return self.dispatcher.cache

    # ------------------------------------------------------------------
    # Online mode
    # ------------------------------------------------------------------
    def submit(self, request: ConvRequest) -> List[ConvResponse]:
        """Enqueue one request at its arrival time.

        Returns the responses of any batch the arrival completed (the
        request's own group reaching ``max_batch``, or older groups whose
        deadline passed); usually empty until ``poll``/``flush``.
        """
        responses = self.poll(request.arrival_s)
        # Nothing reads this plan: the lookup builds a new shape's plan
        # at its first arrival and refreshes the shape's LRU recency on
        # every request (execute looks the plan up again per batch).
        self.dispatcher.plan(request.problem)
        full = self.batcher.add(
            plan_key(request.problem, self.arch), request, request.arrival_s
        )
        if full is not None:
            responses.extend(self._execute_batch(full, request.arrival_s))
        return responses

    def poll(self, now: float) -> List[ConvResponse]:
        """Advance virtual time, flushing every deadline-expired group."""
        responses = []
        for batch in self.batcher.due(now):
            flush_s = batch.opened_s + self.batcher.deadline_s
            responses.extend(self._execute_batch(batch, flush_s))
        return responses

    def flush(self) -> List[ConvResponse]:
        """Force-serve everything still queued."""
        responses = []
        for batch in self.batcher.drain():
            flush_s = max(r.arrival_s for r in batch.requests)
            responses.extend(self._execute_batch(batch, flush_s))
        return responses

    # ------------------------------------------------------------------
    # Trace mode
    # ------------------------------------------------------------------
    def serve_trace(self, requests: Sequence[ConvRequest]) -> List[ConvResponse]:
        """Replay a trace; responses are returned in request order."""
        responses: Dict[int, ConvResponse] = {}
        for request in sorted(requests, key=lambda r: r.arrival_s):
            for resp in self.submit(request):
                responses[resp.req_id] = resp
        for resp in self.flush():
            responses[resp.req_id] = resp
        return [responses[r.req_id] for r in requests]

    # ------------------------------------------------------------------
    def _execute_batch(self, batch: Batch, flush_s: float) -> List[ConvResponse]:
        plan = self.dispatcher.plan(batch.problem)
        outputs, seconds = self.dispatcher.execute(plan, batch.requests)
        start = max(self._clock, flush_s)
        end = start + seconds
        self._clock = end
        batch_id = next(self._batch_ids)
        n = len(batch.requests)
        if self.tracer is not None:
            # Virtual-clock spans: the batch's whole queue-to-completion
            # window, and the kernel's device occupancy inside it.
            self.tracer.add_span(
                "batch#%d %s n=%d" % (batch_id, plan.backend, n),
                category="batch", start_s=batch.opened_s,
                duration_s=end - batch.opened_s,
                args={"reason": batch.reason, "backend": plan.backend,
                      "batch_size": n},
            )
            kernel_name = getattr(plan.kernel, "name", plan.backend)
            self.tracer.add_span(
                "%s" % kernel_name, category="kernel",
                start_s=start, duration_s=seconds,
                args={"backend": plan.backend, "batch_id": batch_id,
                      "modeled_seconds": seconds},
            )
        self._stats.record_batch(
            backend=plan.backend, batch_size=n, seconds=seconds,
            reason=batch.reason)
        responses = []
        for request, output in zip(batch.requests, outputs):
            latency = end - request.arrival_s
            self._stats.record_latency(latency)
            responses.append(ConvResponse(
                req_id=request.req_id,
                output=output,
                backend=plan.backend,
                batch_id=batch_id,
                batch_size=n,
                modeled_seconds=seconds / n,
                completed_s=end,
                latency_s=latency,
            ))
        return responses

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-serializable stats snapshot (see :mod:`repro.serve.stats`)."""
        return self._stats.snapshot(cache_stats=self.plan_cache.stats())

    def format_stats(self) -> str:
        return format_stats(self.stats())

    def export_trace(self, path: str) -> dict:
        """Write the engine's span log as Chrome trace-event JSON.

        Requires the engine to have been constructed with a tracer
        (``tracer=repro.obs.get_tracer()`` or a private one).
        """
        if self.tracer is None:
            raise ReproError(
                "engine has no tracer; construct with tracer=... to trace")
        return write_chrome_trace(path, self.tracer, registry=self.registry)
