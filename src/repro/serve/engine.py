"""The serving engine: request queue, dynamic batching, dispatch, stats.

:class:`ServeEngine` is deterministic and event-driven: it keeps a
*virtual clock* in modeled seconds (the unit every timing breakdown
reports), so a whole traffic trace — arrivals, batching deadlines,
backend execution — plays out reproducibly with no wall-clock
dependence.  Three usage styles:

* **trace mode** — ``serve_trace(requests)`` replays a list of
  requests with modeled arrival times and returns one response per
  request (the CLI and benchmarks use this);
* **online mode** — ``submit()`` / ``poll(now)`` / ``flush()`` for
  incremental virtual-time use;
* **async mode** — :class:`AsyncServeEngine` wraps an engine behind a
  real ``asyncio`` interface: ``await submit(...)`` coalesces
  concurrent same-shape submissions within a wall-clock window into one
  batched dispatch.

Batching amortizes the per-launch overhead of the modeled device: a
batch of B same-shape requests costs ``launch + B * busy`` modeled
seconds versus ``B * (launch + busy)`` unbatched, so batched throughput
in requests per modeled second is strictly higher whenever any batch
holds more than one request.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.conv.tensors import Padding
from repro.errors import ReproError
from repro.gpu.arch import GPUArchitecture, KEPLER_K40M
from repro.obs.exporters import write_chrome_trace
from repro.obs.metrics import Registry
from repro.obs.tracing import Tracer
from repro.serve.batcher import Batch, DynamicBatcher
from repro.serve.dispatch import Dispatcher
from repro.serve.plan_cache import PlanCache
from repro.serve.request import ConvRequest, ConvResponse, plan_key, request_from_arrays
from repro.serve.stats import ServeStats, format_stats

__all__ = ["ServeEngine", "AsyncServeEngine"]


class ServeEngine:
    """Dynamic-batching convolution server on the simulated substrate."""

    def __init__(
        self,
        arch: GPUArchitecture = KEPLER_K40M,
        deadline_s: float = 1e-3,
        max_batch: int = 32,
        cache_capacity: int = 128,
        executor: str = "reference",
        backends: Optional[Sequence[str]] = None,
        dispatcher: Optional[Dispatcher] = None,
        registry: Optional[Registry] = None,
        tracer: Optional[Tracer] = None,
        jobs=None,
    ):
        if executor not in ("reference", "kernel"):
            raise ReproError("executor must be 'reference' or 'kernel'")
        self.arch = arch
        self.executor = executor
        # One registry spans the whole serving stack (stats, batcher,
        # plan cache, dispatcher).  The default is engine-private so
        # concurrent engines stay isolated; pass
        # ``repro.obs.get_registry()`` to publish process-wide.
        self.registry = registry if registry is not None else Registry()
        self.tracer = tracer
        self.batcher = DynamicBatcher(
            deadline_s=deadline_s, max_batch=max_batch,
            registry=self.registry)
        # `jobs` is the kernel executor's batch fan-out degree (see
        # repro.parallel); it only applies to the dispatcher the engine
        # builds itself — an injected dispatcher keeps its own degree.
        self.dispatcher = dispatcher or Dispatcher(
            arch, cache=PlanCache(cache_capacity, registry=self.registry),
            backends=backends, registry=self.registry, tracer=tracer,
            jobs=jobs,
        )
        self._stats = ServeStats(clock_hz=arch.clock_hz,
                                 registry=self.registry)
        self._clock = 0.0            # modeled device-timeline position
        self._ids = itertools.count()
        self._batch_ids = itertools.count()

    # ------------------------------------------------------------------
    @property
    def clock_s(self) -> float:
        """Current position of the modeled device timeline."""
        return self._clock

    @property
    def plan_cache(self) -> PlanCache:
        return self.dispatcher.cache

    def make_request(
        self,
        image: np.ndarray,
        filters: np.ndarray,
        padding: Padding = Padding.VALID,
        arrival_s: float = 0.0,
        seed: Optional[int] = None,
    ) -> ConvRequest:
        """Build a request with an engine-assigned id."""
        return request_from_arrays(
            next(self._ids), image, filters, padding,
            arrival_s=arrival_s, seed=seed,
        )

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
        # Admission-time routing: plan (or recall) the backend for this
        # shape now, so the request carries its predicted unit cost and
        # repeated shapes hit the cache once per request, not per batch.
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

    def execute_now(self, requests: Sequence[ConvRequest]) -> List[ConvResponse]:
        """Serve a same-shape group immediately as one batch (no queue)."""
        if not requests:
            return []
        keys = {plan_key(r.problem, self.arch) for r in requests}
        if len(keys) != 1:
            raise ReproError("execute_now needs same-shape requests")
        batch = Batch(key=keys.pop(), requests=list(requests),
                      opened_s=min(r.arrival_s for r in requests),
                      reason="full")
        return self._execute_batch(
            batch, max(r.arrival_s for r in requests)
        )

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
        outputs, fell, seconds = self.dispatcher.execute(
            plan, batch.requests, executor=self.executor
        )
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
                      "batch_size": n, "fallbacks": sum(fell)},
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
            reason=batch.reason, fallbacks=sum(fell),
        )
        responses = []
        for request, output, fb in zip(batch.requests, outputs, fell):
            latency = end - request.arrival_s
            self._stats.record_latency(latency)
            responses.append(ConvResponse(
                req_id=request.req_id,
                output=output,
                backend="naive" if fb else plan.backend,
                batch_id=batch_id,
                batch_size=n,
                modeled_seconds=seconds / n,
                completed_s=end,
                latency_s=latency,
                fallback=fb,
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


class AsyncServeEngine:
    """``asyncio`` facade: awaitable submissions, wall-clock batching.

    Concurrent ``await submit(...)`` calls for the same problem shape
    that land within ``window_s`` real seconds (or that fill
    ``max_batch``) are dispatched as one batch through the wrapped
    :class:`ServeEngine`; every submitter gets its own response.
    """

    def __init__(self, engine: Optional[ServeEngine] = None,
                 window_s: float = 0.005):
        self.engine = engine or ServeEngine()
        self.window_s = window_s
        self._groups: Dict[tuple, list] = {}
        self._timers: Dict[tuple, asyncio.Task] = {}

    async def submit(
        self,
        image: np.ndarray,
        filters: np.ndarray,
        padding: Padding = Padding.VALID,
    ) -> ConvResponse:
        loop = asyncio.get_running_loop()
        request = self.engine.make_request(
            image, filters, padding, arrival_s=self.engine.clock_s
        )
        future = loop.create_future()
        key = plan_key(request.problem, self.engine.arch)
        group = self._groups.setdefault(key, [])
        group.append((request, future))
        if len(group) >= self.engine.batcher.max_batch:
            self._flush(key)
        elif len(group) == 1:
            self._timers[key] = asyncio.ensure_future(self._flush_later(key))
        return await future

    async def _flush_later(self, key: tuple) -> None:
        await asyncio.sleep(self.window_s)
        # Drop our own timer entry first so _flush does not cancel the
        # currently-running task.
        self._timers.pop(key, None)
        self._flush(key)

    def _flush(self, key: tuple) -> None:
        group = self._groups.pop(key, [])
        timer = self._timers.pop(key, None)
        if timer is not None and not timer.done():
            timer.cancel()
        if not group:
            return
        requests = [request for request, _ in group]
        responses = self.engine.execute_now(requests)
        for (_, future), response in zip(group, responses):
            if not future.done():
                future.set_result(response)

    async def drain(self) -> None:
        """Flush every pending group (e.g. at shutdown)."""
        for key in list(self._groups):
            self._flush(key)
        await asyncio.sleep(0)

    def stats(self) -> dict:
        return self.engine.stats()
