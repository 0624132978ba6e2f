"""Outside-in tracing: per-layer spans recorded around the program's calls.

Nothing under ``src/`` records these spans.  In the traced child,
:func:`install` replaces public callables of the program (methods on
its classes, functions on its modules, methods on the registered kernel
backends) with wrappers that time each call into a :class:`Recorder`.
Class attributes are wrapped rather than the benchmark's own instances
so that objects the program builds itself -- the fleet's replica
engines, the dispatcher's kernels -- are traced too.  A callable a
later version of the program no longer has is skipped, and its layer
then reads zero.

Spans stay in memory; the child derives the per-layer metrics from the
timed run's subtree (:func:`layer_metrics`) and, when asked, writes the
spans as Chrome trace events (:func:`chrome_events`).
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import defaultdict
from contextlib import contextmanager

from workloads import BACKENDS

#: Per-call timings with a p50 and a tail percentile.
PER_CALL = ("serve.dispatch.build", "serve.dispatch.execute")

#: Inclusive time in a layer (outermost spans of that name only).
BUSY = {
    "serve.batcher.busy_s": "serve.batcher",
    "serve.dispatch.build.busy_s": "serve.dispatch.build",
    "serve.dispatch.execute.busy_s": "serve.dispatch.execute",
    "conv.reference.busy_s": "conv.reference",
    "serve.stats.busy_s": "serve.stats",
    "core.cost.busy_s": "core.cost",
    "gpu.timing.evaluate_s": "gpu.timing.evaluate",
    "gpu.fastsim.trace_s": "gpu.fastsim.trace",
    "fleet.merge.busy_s": "fleet.merge",
    "fleet.admission.busy_s": "fleet.admission",
    "fleet.plan.busy_s": "fleet.plan",
    "fleet.replica.busy_s": "fleet.replica",
}

#: Calls into a layer (outermost spans of that name only).
CALLS = {
    "serve.dispatch.build.calls": "serve.dispatch.build",
    "serve.dispatch.execute.calls": "serve.dispatch.execute",
    "conv.reference.calls": "conv.reference",
    "core.cost.calls": "core.cost",
    "gpu.timing.calls": "gpu.timing.evaluate",
    "gpu.fastsim.calls": "gpu.fastsim.trace",
}

#: Self time: a span's duration minus the time its child spans cover.
SELF = {
    "serve.engine.self_s": "serve.engine",
    "serve.dispatch.plan.self_s": "serve.dispatch.plan",
    "core.dse.self_s": "core.dse",
    "fleet.self_s": "fleet.serve",
}

#: Backend stages whose exceptions the dispatcher swallows while it
#: builds a plan.
STAGES = ("configure", "build", "predict")


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "args", "error",
                 "outer")

    def __init__(self, sid, name, start, parent, args, outer):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.args = args
        self.error = None
        self.outer = outer          # no enclosing span of the same name


class Recorder:
    """In-memory span store with a stack of open spans (one thread)."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []
        self._open_names = defaultdict(int)

    def open(self, name: str, args=None) -> Span:
        parent = self._stack[-1].sid if self._stack else -1
        span = Span(len(self.spans), name, time.perf_counter(), parent, args,
                    self._open_names[name] == 0)
        self.spans.append(span)
        self._stack.append(span)
        self._open_names[name] += 1
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self._open_names[span.name] -= 1

    @contextmanager
    def phase(self, name: str):
        """A root span of the benchmark's own (``setup`` or ``run``)."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, owner, attr: str, name: str, describe=None,
             after=None) -> bool:
        """Replace ``owner.attr`` with a timing wrapper named ``name``.

        ``describe(args)`` returns the span's args; ``after(span, args,
        result)`` may add more once the call returns.  Both are skipped
        when the program's signature no longer fits them.
        """
        if not hasattr(owner, attr):
            return False
        if isinstance(owner, type) and isinstance(
                inspect.getattr_static(owner, attr),
                (staticmethod, classmethod)):
            return False
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return original(*args, **kwargs)
            span = recorder.open(name, _safely(describe, args))
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                recorder.close(span)
            if after is not None:
                _safely(after, span, args, result)
            return result

        setattr(owner, attr, wrapper)
        return True


def _safely(fn, *args):
    if fn is None:
        return None
    try:
        return fn(*args)
    except (AttributeError, IndexError, KeyError, TypeError):
        return None


def _shape(problem):
    if problem is None:
        return None
    return "%dx%d c%d f%d k%d s%d d%d g%d" % (
        problem.height, problem.width, problem.channels, problem.filters,
        problem.kernel_size, problem.stride, problem.dilation, problem.groups)


def _problem_at(index: int):
    return lambda args: {"shape": _shape(args[index])}


def _request_at(index: int):
    return lambda args: {"req": args[index].req_id}


def _execute_args(args):
    plan, requests = args[1], args[2]
    return {"shape": _shape(plan.problem),
            "reqs": [r.req_id for r in requests]}


def _replica_round(span, args, results):
    """Shard attempts of one failover round, and the requests they carry."""
    payloads = args[1]
    requests = sum(len(p[2]) for p in payloads)
    useful = sum(len(p[2]) for p, res in zip(payloads, results)
                 if isinstance(res, dict) and not res.get("failed"))
    span.args = {"attempts": len(payloads), "requests": requests,
                 "useful": useful}


def install(recorder: Recorder) -> None:
    """Wrap every traced layer of the program."""
    from repro.core import depthwise, dse, general, special
    from repro.errors import ReproError
    from repro.fleet import admission, engine as fleet_engine, shared_cache
    from repro.gpu import fastsim, timing
    from repro.kernels import default_registry
    from repro.serve import batcher, dispatch, engine, stats

    wrap = recorder.wrap
    wrap(engine.ServeEngine, "serve_trace", "serve.engine")
    wrap(batcher.DynamicBatcher, "add", "serve.batcher", _request_at(2))
    wrap(batcher.DynamicBatcher, "due", "serve.batcher")
    wrap(batcher.DynamicBatcher, "drain", "serve.batcher")
    wrap(dispatch.Dispatcher, "plan", "serve.dispatch.plan", _problem_at(1))
    wrap(dispatch.Dispatcher, "build_plan", "serve.dispatch.build",
         _problem_at(1))
    wrap(dispatch.Dispatcher, "execute", "serve.dispatch.execute",
         _execute_args)
    wrap(dispatch, "conv2d_reference", "conv.reference")
    wrap(stats.ServeStats, "record_batch", "serve.stats")
    wrap(stats.ServeStats, "record_latency", "serve.stats")

    wrap(fleet_engine.FleetEngine, "serve_trace", "fleet.serve")
    wrap(fleet_engine.FleetEngine, "plan_for", "fleet.plan", _problem_at(1))
    wrap(admission.AdmissionController, "admit", "fleet.admission",
         _request_at(1))
    wrap(shared_cache.SharedPlanCache, "get_or_build", "fleet.shared_cache")
    wrap(fleet_engine, "parallel_map", "fleet.replica", after=_replica_round)
    wrap(fleet_engine, "merge_registry_snapshot", "fleet.merge")

    wrap(dse, "explore_general", "core.dse")
    wrap(dse, "explore_special", "core.dse")
    for cls in (special.SpecialCaseKernel, general.GeneralCaseKernel,
                depthwise.DepthwiseKernel):
        wrap(cls, "cost", "core.cost", _problem_at(1))
    wrap(timing.TimingModel, "evaluate", "gpu.timing.evaluate")
    for cls in (fastsim.FastSpecialKernel, fastsim.FastGeneralKernel):
        wrap(cls, "trace_cost", "gpu.fastsim.trace", _problem_at(1))

    for backend in default_registry():
        try:
            kernel_cls = type(backend.build(None))
        except ReproError:
            kernel_cls = None
        if kernel_cls is not None:
            wrap(kernel_cls, "predict", "kernels.%s.predict" % backend.name,
                 _problem_at(1))
        wrap(backend, "configure", "kernels.%s.configure" % backend.name,
             _problem_at(0))
        wrap(backend, "build", "kernels.%s.build" % backend.name,
             _problem_at(0))


# ----------------------------------------------------------------------
# Metrics from the timed run's spans
# ----------------------------------------------------------------------

def _percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(ordered):
    """``(q, value)`` for the highest of p99/p95/p90/p50 with at least ten
    samples beyond it; ``(0, 0)`` below twenty samples."""
    n = len(ordered)
    for q in (99.0, 95.0, 90.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q, _percentile(ordered, q)
    return 0.0, 0.0


def run_subtree(recorder: Recorder):
    """The ``run`` root span and every span opened inside it."""
    run = next(s for s in reversed(recorder.spans)
               if s.name == "run" and s.parent == -1)
    return run, recorder.spans[run.sid + 1:]


def self_times(recorder: Recorder) -> dict:
    """Self seconds per span name over the timed run; ``run`` holds the
    time no wrapped layer covers.  The values sum to the run's wall."""
    run, spans = run_subtree(recorder)
    covered = defaultdict(float)
    for s in spans:
        covered[s.parent] += s.end - s.start
    out = defaultdict(float)
    out["run"] = (run.end - run.start) - covered[run.sid]
    for s in spans:
        out[s.name] += (s.end - s.start) - covered[s.sid]
    return dict(out)


def layer_metrics(recorder: Recorder) -> dict:
    """The span-derived per-layer metrics of the timed run."""
    run, spans = run_subtree(recorder)
    busy, calls, durations = defaultdict(float), defaultdict(int), \
        defaultdict(list)
    errors = dict.fromkeys(STAGES, 0)
    by_sid = {s.sid: s for s in spans}
    replica = {"attempts": 0, "requests": 0, "useful": 0}
    for s in spans:
        if s.outer:
            d = s.end - s.start
            busy[s.name] += d
            calls[s.name] += 1
            durations[s.name].append(d)
        parent = by_sid.get(s.parent)
        if (s.error and s.name.startswith("kernels.") and parent is not None
                and parent.name == "serve.dispatch.build"):
            errors[s.name.rsplit(".", 1)[1]] += 1
        if s.name == "fleet.replica" and s.args:
            for key in replica:
                replica[key] += s.args[key]
    selfs = self_times(recorder)

    metrics = {m: busy[layer] for m, layer in BUSY.items()}
    metrics.update({m: calls[layer] for m, layer in CALLS.items()})
    metrics.update({m: selfs.get(layer, 0.0) for m, layer in SELF.items()})
    for layer in PER_CALL:
        ordered = sorted(durations[layer])
        q, value = tail(ordered)
        metrics[layer + ".p50_ms"] = (
            1e3 * _percentile(ordered, 50) if ordered else 0.0)
        metrics[layer + ".tail_ms"] = 1e3 * value
        metrics[layer + ".tail_q"] = q
    for backend in BACKENDS:
        for stage in ("configure", "predict"):
            metrics["kernels.%s.%s_s" % (backend, stage)] = \
                busy["kernels.%s.%s" % (backend, stage)]
    for stage, n in errors.items():
        metrics["kernels.%s.errors" % stage] = n
    metrics["fleet.replica.attempts"] = replica["attempts"]
    metrics["fleet.replica.useful_ratio"] = (
        replica["useful"] / replica["requests"] if replica["requests"] else 0.0)
    return metrics


def chrome_events(recorder: Recorder, pid: int, label: str,
                  extra_args: dict) -> list:
    """Every recorded span as Chrome trace-event JSON (one process)."""
    if not recorder.spans:
        return []
    t0 = recorder.spans[0].start
    events = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
               "args": {"name": label}}]
    for s in recorder.spans:
        args = dict(s.args or {})
        args.update(extra_args, id=s.sid, parent=s.parent)
        if s.error:
            args["error"] = s.error
        events.append({
            "name": s.name, "cat": s.name.split(".")[0], "ph": "X",
            "ts": (s.start - t0) * 1e6, "dur": (s.end - s.start) * 1e6,
            "pid": pid, "tid": 0, "args": args,
        })
    return events
