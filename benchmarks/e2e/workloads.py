"""The four benchmark workloads, driven only through the public ``repro`` API.

Each workload is split into the phases a child process handles
separately (see ``child.py``):

* ``generate(seed, scale)`` makes the inputs from the seed (untimed);
* ``setup(inputs)`` constructs and warms the program (timed as set-up);
* ``run(state, inputs)`` is the measured work (timed);
* ``reference(inputs)`` computes the expected outputs once per set, in
  its own child (untimed);
* ``check(inputs, result, expected)`` compares the outputs and returns
  one message per failed operation (untimed);
* ``counts(state, inputs, result)`` reads deterministic counts from the
  program's public stats surfaces (untimed);
* ``ledger(state, inputs, result)`` computes the modeled-device metrics,
  which cost extra planning work, so only the traced child calls it.

Why these four: ``serve_steady`` is execute-heavy with a warm plan
cache, ``serve_churn`` is plan-heavy (its shape working set is twice the
plan cache), ``fleet_chaos`` adds routing, admission, the shared plan
tier and failover on top of the same serve layers, and ``dse_sweep`` is
the reproducer's design-space search, which never touches serving.  A
change to one layer therefore has a workload where that layer does most
of the work and one where it does almost none.
"""

from __future__ import annotations

import hashlib

import numpy as np

import repro
from repro.chaos import FaultInjector, FaultPlan
from repro.core import dse
from repro.core.bankwidth import matched_vector
from repro.errors import ReproError
from repro.fleet import FleetConfig, FleetEngine, SharedPlanCache
from repro.gpu import trace as gpu_trace
from repro.gpu.arch import ARCHITECTURES, KEPLER_K40M
from repro.gpu.fastsim import FastGeneralKernel, FastSpecialKernel
from repro.gpu.timing import TimingModel
from repro.obs.metrics import Registry, get_registry
from repro.obs.tracing import get_tracer
from repro.serve import ServeEngine
from repro.serve.request import ConvRequest
from repro.serve.trace import DEFAULT_SERVING_SHAPES, SHAPE_FAMILIES

#: Work per child at each scale.  ``smoke`` exists for the self-test.
SCALES = {
    "full": {
        "steady_requests": 4000,
        "churn_requests": 1024,
        "churn_shapes": 256,
        "fleet_requests": 4000,
        "dse_archs": tuple(ARCHITECTURES),
        "dse_kernel_sizes": (3, 5, 7),
    },
    "smoke": {
        "steady_requests": 240,
        "churn_requests": 160,
        "churn_shapes": 32,
        "fleet_requests": 240,
        "dse_archs": ("kepler",),
        "dse_kernel_sizes": (3,),
    },
}

#: Mean arrival rate of every serving trace, requests per modeled second.
RATE_HZ = 50_000.0

#: Fault plan of ``fleet_chaos``: one mid-flight replica crash (a
#: failover that re-serves a whole shard), one straggler, one rotted
#: shared-tier entry (quarantined and rebuilt), two transient build
#: failures (retried).  None of them loses a request.
CHAOS_SPEC = ("seed=%d;crash:replica=1,after=200;slow:replica=0,factor=4;"
              "cache-corrupt:nth=2;build-fail:times=2")

FLEET_PRIORITIES = {"critical": 1, "standard": 6, "batch": 3}
FLEET_DEADLINE_S = 2e-3
FLEET_REPLICAS = 4

BACKENDS = ("special", "general", "im2col", "implicit-gemm", "naive", "fft",
            "winograd", "depthwise")


# ----------------------------------------------------------------------
# Output digests and the frozen reference convolution
# ----------------------------------------------------------------------

def digest(array: np.ndarray) -> str:
    """Bit-exact digest of a float32 array (its uint32 view plus shape)."""
    arr = np.ascontiguousarray(array)
    if arr.dtype != np.float32:
        return "dtype:%s" % arr.dtype
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(arr.shape).encode())
    h.update(arr.view(np.uint32).tobytes())
    return h.hexdigest()


def reference_conv(problem, image, filters) -> np.ndarray:
    """The arithmetic of ``repro.conv2d_reference``, frozen here.

    The serving contract is bit-identity with this per-request
    reference.  Keeping a copy in the benchmark means a change to the
    program's reference cannot pass the check by changing both sides.
    Covers the valid-padding, channels-first problems the workloads use.
    """
    if problem.padding.value != "valid" or problem.layout.value != "nchw":
        raise ValueError("the frozen reference covers valid NCHW problems")
    img = np.asarray(image, dtype=np.float32)
    flt = np.asarray(filters, dtype=np.float32)
    k, s, d, g = (problem.kernel_size, problem.stride, problem.dilation,
                  problem.groups)
    oh, ow = problem.out_height, problem.out_width
    cpg, fpg = problem.channels // g, problem.filters // g
    out = np.zeros((problem.filters, oh, ow), dtype=np.float64)
    for dy in range(k):
        for dx in range(k):
            window = img[:,
                         dy * d: dy * d + (oh - 1) * s + 1: s,
                         dx * d: dx * d + (ow - 1) * s + 1: s]
            taps = flt[:, :, dy, dx]
            if g == 1:
                out += np.tensordot(taps, window, axes=([1], [0]))
            else:
                for gi in range(g):
                    out[gi * fpg: (gi + 1) * fpg] += np.tensordot(
                        taps[gi * fpg: (gi + 1) * fpg],
                        window[gi * cpg: (gi + 1) * cpg],
                        axes=([1], [0]))
    return out.astype(np.float32)


def serving_trace(seed: int, shapes, n: int, priorities=None,
                  deadline_s=None) -> list:
    """``n`` requests spread evenly over ``shapes`` in a seeded order.

    Every shape gets ``n // len(shapes)`` requests or one more, so each
    seed carries the same mix of work.  The seed picks the order, the
    Poisson arrival times at ``RATE_HZ``, the data, and the priority
    classes (drawn with the weights of ``priorities``).  ``deadline_s``
    gives every request a deadline that long after its arrival.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(np.arange(n) % len(shapes))
    arrivals = np.cumsum(rng.exponential(1.0 / RATE_HZ, size=n))
    mix = priorities or {"standard": 1}
    classes = list(mix)
    weights = np.array([mix[c] for c in classes], dtype=float)
    picks = rng.choice(len(classes), size=n, p=weights / weights.sum())
    requests = []
    for i in range(n):
        problem = shapes[int(order[i])]
        arrival = float(arrivals[i])
        data_seed = seed + 1000 * i
        image, filters = problem.random_instance(seed=data_seed)
        requests.append(ConvRequest(
            req_id=i, problem=problem, image=image, filters=filters,
            arrival_s=arrival, seed=data_seed,
            priority=classes[int(picks[i])],
            deadline_s=None if deadline_s is None else arrival + deadline_s))
    return requests


def requests_digest(requests) -> str:
    """One digest over a request list: ids, shapes, arrivals and data."""
    h = hashlib.blake2b(digest_size=16)
    for r in requests:
        h.update(repr((r.req_id, r.problem, r.arrival_s, r.priority,
                       r.deadline_s)).encode())
        h.update(np.ascontiguousarray(r.image).tobytes())
        h.update(np.ascontiguousarray(r.filters).tobytes())
    return h.hexdigest()


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------

class _Serving:
    """Shared check/count logic of the serving workloads."""

    name = ""
    unit = "requests"

    def items(self, inputs) -> int:
        return len(inputs["requests"])

    def input_digest(self, inputs) -> str:
        return requests_digest(inputs["requests"])

    def reference(self, inputs) -> dict:
        return {"outputs": [
            digest(reference_conv(r.problem, r.image, r.filters))
            for r in inputs["requests"]]}

    def check(self, inputs, result, expected) -> list:
        failures = []
        responses = self.responses(result)
        if len(responses) != len(inputs["requests"]):
            return ["%d responses for %d requests"
                    % (len(responses), len(inputs["requests"]))]
        for request, response, want in zip(inputs["requests"], responses,
                                           expected["outputs"]):
            if response is None:
                failures.append("request %d: no response" % request.req_id)
            elif response.req_id != request.req_id:
                failures.append("request %d: answered as %d"
                                % (request.req_id, response.req_id))
            elif digest(response.output) != want:
                failures.append("request %d: output differs from the "
                                "reference" % request.req_id)
        return failures

    def responses(self, result) -> list:
        return result

    def _engine_counts(self, state, responses) -> dict:
        snap = state["engine"].stats()
        before, after = state["cache_before"], snap["plan_cache"]
        hits = after["hits"] - before["hits"]
        lookups = hits + after["misses"] - before["misses"]
        counts = {
            "serve.batcher.batches": snap["batches"],
            "serve.batcher.mean_batch_size": snap["mean_batch_size"],
            "serve.plan_cache.lookups": lookups,
            "serve.plan_cache.hit_rate": _share(hits, lookups),
            "serve.plan_cache.evictions":
                after["evictions"] - before["evictions"],
            "serve.dispatch.execute.fallbacks": snap["fallbacks"],
            "model.rps": snap["throughput_rps"],
            "model.latency_p50_s": snap["latency_p50_s"],
            "model.latency_p99_s": snap["latency_p99_s"],
        }
        counts.update(_backend_shares(responses))
        return counts

    def _plans_ledger(self, dispatcher, requests) -> dict:
        """Modeled device time and traffic of the served trace, per request.

        Plans are looked up after the run's counts were read, so the
        extra lookups (and rebuilds of evicted shapes) change nothing
        reported.
        """
        per_shape = {}
        for r in requests:
            per_shape[r.problem] = per_shape.get(r.problem, 0) + 1
        totals = dict.fromkeys(_LEDGER_KEYS, 0.0)
        for problem, n in per_shape.items():
            plan = dispatcher.plan(problem)
            _add_breakdown(totals, plan.breakdown, n)
            _add_ledger(totals, plan.kernel.cost(problem).ledger, n)
        return totals


def _engine_state(engine) -> dict:
    """The engine, and its plan-cache counters before the timed run."""
    return {"engine": engine, "cache_before": engine.plan_cache.stats()}


class ServeSteady(_Serving):
    """Warm plan cache, classic six-shape palette: execute-heavy."""

    name = "serve_steady"

    def generate(self, seed: int, scale: str) -> dict:
        n = SCALES[scale]["steady_requests"]
        return {"requests": serving_trace(seed, DEFAULT_SERVING_SHAPES, n)}

    def setup(self, inputs) -> dict:
        engine = ServeEngine()
        for problem in _distinct_shapes(inputs["requests"]):
            engine.dispatcher.plan(problem)
        return _engine_state(engine)

    def run(self, state, inputs):
        return state["engine"].serve_trace(inputs["requests"])

    def counts(self, state, inputs, result) -> dict:
        return self._engine_counts(state, result)

    def ledger(self, state, inputs, result) -> dict:
        return self._plans_ledger(state["engine"].dispatcher,
                                  inputs["requests"])


class ServeChurn(ServeSteady):
    """Cold engine, a shape working set twice the plan cache: plan-heavy."""

    name = "serve_churn"

    def generate(self, seed: int, scale: str) -> dict:
        cfg = SCALES[scale]
        shapes = churn_shapes(np.random.default_rng([seed, 1]),
                              cfg["churn_shapes"])
        return {"requests": serving_trace(seed, shapes,
                                          cfg["churn_requests"])}

    def setup(self, inputs) -> dict:
        return _engine_state(ServeEngine())


def churn_shapes(rng, count: int) -> list:
    """``count`` distinct shapes: H 16-64, K 3/5, C 1-16, F 4-16.

    A quarter each are plain, stride 2, dilation 2 and depthwise, and K
    alternates, so every seed draws the same mix of shape classes; the
    extents are Latin-hypercube samples per class, so the mix of sizes
    is also nearly the same.  Both keep the plan-build cost of a run
    steady across seeds.
    """
    kinds = ("plain", "strided", "dilated", "depthwise")
    per_kind = -(-count // len(kinds))
    columns = {}
    for kind in kinds:
        columns[kind] = {
            "h": _latin(rng, per_kind, 16, 64),
            "c": _latin(rng, per_kind, 1, 16),
            "f": _latin(rng, per_kind, 4, 16),
        }
    shapes, seen = [], set()
    i = 0
    while len(shapes) < count:
        kind = kinds[i % len(kinds)]
        row = (i // len(kinds)) % per_kind
        bump = i // (len(kinds) * per_kind)      # only after a collision
        col = columns[kind]
        h, c, f = col["h"][row] + bump, col["c"][row], col["f"][row]
        k = (3, 5)[(i // len(kinds)) % 2]
        kwargs = {}
        if kind == "strided":
            kwargs["stride"] = 2
        elif kind == "dilated":
            kwargs["dilation"] = 2
        elif kind == "depthwise":
            c = max(c, 2)
            f = c
            kwargs["groups"] = c
        problem = repro.ConvProblem.square(h, k, channels=c, filters=f,
                                           **kwargs)
        i += 1
        if problem not in seen:
            seen.add(problem)
            shapes.append(problem)
    return shapes


def _latin(rng, n: int, lo: int, hi: int) -> list:
    """``n`` integers in [lo, hi], one per equal-width stratum, shuffled."""
    strata = (rng.permutation(n) + rng.random(n)) / n
    return [int(lo + v * (hi - lo + 1)) for v in strata]


class FleetChaos(_Serving):
    """Four replicas under a seeded fault plan: route, admit, fail over."""

    name = "fleet_chaos"

    def generate(self, seed: int, scale: str) -> dict:
        n = SCALES[scale]["fleet_requests"]
        return {
            "seed": seed,
            "requests": serving_trace(seed, SHAPE_FAMILIES["mixed"], n,
                                      priorities=FLEET_PRIORITIES,
                                      deadline_s=FLEET_DEADLINE_S),
        }

    def reference(self, inputs) -> dict:
        expected = super().reference(inputs)
        # The fleet's contract: bit-identical to one engine serially
        # replaying the trace, winning backends included.
        single = ServeEngine().serve_trace(inputs["requests"])
        expected["backends"] = [r.backend for r in single]
        return expected

    def setup(self, inputs) -> dict:
        # A previous fleet generation warmed the shared tier with every
        # shape of the trace; the serving fleet starts with a cold local
        # tier.  Both share one fault plan, so the entry that rotted
        # during warm-up is quarantined and rebuilt in the timed run.
        config = FleetConfig(replicas=FLEET_REPLICAS)
        chaos = FaultInjector(FaultPlan.parse(CHAOS_SPEC % inputs["seed"]),
                              FLEET_REPLICAS)
        shared = SharedPlanCache()
        warm = FleetEngine(config, shared_cache=shared, chaos=chaos)
        for problem in _distinct_shapes(inputs["requests"]):
            warm.plan_for(problem)
        fleet = FleetEngine(config, shared_cache=shared, chaos=chaos)
        return {"fleet": fleet, "shared_before": shared.stats()}

    def run(self, state, inputs):
        return state["fleet"].serve_trace(inputs["requests"])

    def responses(self, result) -> list:
        return result.responses

    def check(self, inputs, result, expected) -> list:
        failures = super().check(inputs, result, expected)
        failures += ["request %d: shed (%s)" % (s.req_id, s.reason)
                     for s in result.shed]
        for request, response, backend in zip(
                inputs["requests"], result.responses, expected["backends"]):
            if response is not None and response.backend != backend:
                failures.append(
                    "request %d: served by %s, a single engine uses %s"
                    % (request.req_id, response.backend, backend))
        return failures

    def counts(self, state, inputs, result) -> dict:
        snap = state["fleet"].stats()
        admission = snap["admission"]
        shed = {}
        for key, n in admission["shed_by_reason"].items():
            reason = key.split("/")[0]
            shed[reason] = shed.get(reason, 0) + n
        before, after = state["shared_before"], snap["shared_plan_cache"]
        hits = after["hits"] - before["hits"]
        lookups = hits + after["misses"] - before["misses"]
        counts = {
            "fleet.admission.admitted": admission["admitted"],
            "fleet.shed.expired": shed.get("expired", 0),
            "fleet.shed.overload": shed.get("overload", 0),
            "fleet.shared_cache.hit_rate": _share(hits, lookups),
            "fleet.shared_cache.corruptions":
                after["corruptions"] - before["corruptions"],
            "fleet.failovers": result.failovers,
            "fleet.abandoned": len(result.abandoned),
            "model.rps": snap["sustained_rps"],
            "model.latency_p50_s": snap["latency_p50_s"],
            "model.latency_p99_s": snap["latency_p99_s"],
            "model.deadline_misses": snap["deadline_misses"],
        }
        counts.update(_backend_shares(result.responses))
        return counts

    def ledger(self, state, inputs, result) -> dict:
        return self._plans_ledger(ServeEngine().dispatcher,
                                  inputs["requests"])


# ----------------------------------------------------------------------
# Design-space exploration
# ----------------------------------------------------------------------

class DseSweep:
    """Table 1's search on every preset, then the winners on the simulator."""

    name = "dse_sweep"
    unit = "candidates"

    def generate(self, seed: int, scale: str) -> dict:
        cfg = SCALES[scale]
        archs = cfg["dse_archs"]
        ks = cfg["dse_kernel_sizes"]
        candidates = 0
        for name in archs:
            arch = ARCHITECTURES[name]
            n = matched_vector(arch).n
            candidates += sum(len(dse.enumerate_general_configs(k, n, arch))
                              for k in ks)
            candidates += len(dse.enumerate_special_configs())
        rng = np.random.default_rng(seed)
        # Data pools the traced winners slice their aligned inputs from:
        # large enough for any candidate block of the Table 1 axes.
        return {
            "archs": archs,
            "kernel_sizes": ks,
            "candidates": candidates,
            "image_pool": rng.standard_normal((8, 40, 1040)).astype(np.float32),
            "filter_pool": rng.standard_normal((128, 8, 7, 7)).astype(np.float32),
        }

    def items(self, inputs) -> int:
        return inputs["candidates"]

    def input_digest(self, inputs) -> str:
        h = hashlib.blake2b(digest_size=16)
        h.update(repr((inputs["archs"], inputs["kernel_sizes"],
                       inputs["candidates"])).encode())
        h.update(inputs["image_pool"].tobytes())
        h.update(inputs["filter_pool"].tobytes())
        return h.hexdigest()

    def setup(self, inputs) -> dict:
        return {"archs": [(name, ARCHITECTURES[name])
                          for name in inputs["archs"]]}

    def run(self, state, inputs) -> dict:
        rankings, traced = {}, {}
        for name, arch in state["archs"]:
            for k in inputs["kernel_sizes"]:
                rankings["%s/general/k%d" % (name, k)] = \
                    dse.explore_general(k, arch)
            rankings["%s/special" % name] = dse.explore_special(arch)
        for key, ranked in rankings.items():
            if ranked:
                traced[key] = _run_winner(key, ranked[0].config, inputs)
        return {"rankings": rankings, "traced": traced}

    def reference(self, inputs) -> dict:
        rows = dse.reproduce_table1(KEPLER_K40M,
                                    kernel_sizes=inputs["kernel_sizes"])
        expected = {"table1": {str(r.kernel_size): repr(r.ours)
                               for r in rows},
                    "special": {}, "audit": []}
        # Each preset's winning special block is held to the interpreted
        # SIMT oracle on a small aligned shape.
        for name in inputs["archs"]:
            arch = ARCHITECTURES[name]
            cfg = dse.explore_special(arch)[0].config
            expected["special"][name] = repr(cfg)
            image = inputs["image_pool"][0, :cfg.block_h + 2, :cfg.block_w + 2]
            filters = inputs["filter_pool"][:2, 0, :3, :3]
            try:
                FastSpecialKernel(arch=arch, config=cfg).run_traced(
                    image, filters, audit=True)
            except ReproError as exc:
                expected["audit"].append("%s special %r: %s"
                                         % (name, cfg, exc))
        return expected

    def check(self, inputs, result, expected) -> list:
        failures = list(expected["audit"])
        rankings = result["rankings"]
        for key, ranked in rankings.items():
            if not ranked:
                failures.append("%s: empty ranking" % key)
        for k, want in expected["table1"].items():
            key = "kepler/general/k%s" % k
            if key in rankings and rankings[key] \
                    and repr(rankings[key][0].config) != want:
                failures.append("%s: winner %r, reproduce_table1 has %s"
                                % (key, rankings[key][0].config, want))
        for name, want in expected["special"].items():
            ranked = rankings.get("%s/special" % name)
            if ranked and repr(ranked[0].config) != want:
                failures.append("%s/special: winner %r, the audited one is %s"
                                % (name, ranked[0].config, want))
        for key, (out, _, args) in result["traced"].items():
            if not np.allclose(out, reference_conv(*args),
                               rtol=1e-3, atol=1e-3):
                failures.append("%s: simulated output differs from the "
                                "reference" % key)
        return failures

    def counts(self, state, inputs, result) -> dict:
        counts = {}
        for name in ARCHITECTURES:
            ranked = result["rankings"].get(
                "%s/general/k%d" % (name, inputs["kernel_sizes"][0]))
            counts["model.best_gflops.%s" % name] = \
                ranked[0].gflops if ranked else 0.0
        return counts

    def ledger(self, state, inputs, result) -> dict:
        totals = dict.fromkeys(_LEDGER_KEYS, 0.0)
        for key, (_, cost, _) in result["traced"].items():
            arch = ARCHITECTURES[key.split("/")[0]]
            model = TimingModel(arch, registry=Registry())
            _add_breakdown(totals, model.evaluate(cost), 1)
            _add_ledger(totals, cost.ledger, 1)
        return totals


def _run_winner(key: str, cfg, inputs):
    """Simulate one winning config on a 2x2-block aligned problem.

    Returns ``(output, executed-trace cost, reference arguments)``; the
    check phase runs the reference on those arguments, untimed.
    """
    name, case = key.split("/")[:2]
    arch = ARCHITECTURES[name]
    img_pool, flt_pool = inputs["image_pool"], inputs["filter_pool"]
    if case == "special":
        k = 3
        image = img_pool[0, :2 * cfg.block_h + k - 1, :2 * cfg.block_w + k - 1]
        filters = flt_pool[:4, 0, :k, :k]
        out, cost = FastSpecialKernel(arch=arch, config=cfg).run_traced(
            image, filters)
        problem = repro.ConvProblem(height=image.shape[0], width=image.shape[1],
                                    channels=1, filters=4, kernel_size=k)
        reference_args = (problem, image[np.newaxis], filters[:, np.newaxis])
    else:
        k = int(key.rsplit("k", 1)[1])
        c = 2 * cfg.csh
        image = img_pool[:c, :2 * cfg.h + k - 1, :2 * cfg.w + k - 1]
        filters = flt_pool[:cfg.ftb, :c, :k, :k]
        out, cost = FastGeneralKernel(arch=arch, config=cfg).run_traced(
            image, filters)
        problem = repro.ConvProblem(height=image.shape[1], width=image.shape[2],
                                    channels=c, filters=cfg.ftb, kernel_size=k)
        reference_args = (problem, image, filters)
    return out, cost, reference_args


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

_LEDGER_KEYS = ("model.t_gmem_s", "model.t_smem_s", "model.t_compute_s",
                "model.t_launch_s", "model.gmem_transactions",
                "model.smem_cycles")


def _add_breakdown(totals: dict, breakdown, n: int) -> None:
    totals["model.t_gmem_s"] += n * breakdown.t_gmem
    totals["model.t_smem_s"] += n * breakdown.t_smem
    totals["model.t_compute_s"] += n * breakdown.t_compute
    totals["model.t_launch_s"] += n * breakdown.t_launch


def _add_ledger(totals: dict, ledger, n: int) -> None:
    totals["model.gmem_transactions"] += n * (
        ledger.gmem_read_transactions + ledger.gmem_write_transactions)
    totals["model.smem_cycles"] += n * ledger.smem_cycles


def _distinct_shapes(requests) -> list:
    return sorted({r.problem for r in requests}, key=lambda p: p.describe())


def _backend_shares(responses) -> dict:
    served = [r for r in responses if r is not None]
    shares = {}
    for backend in BACKENDS:
        n = sum(1 for r in served if r.backend == backend)
        shares["model.backend_share.%s" % backend] = _share(n, len(served))
    return shares


def process_counts() -> dict:
    """Process-wide counters the run moves (read before and after it)."""
    cache = gpu_trace.access_cache_stats()
    candidates = {"ok": 0.0, "rejected": 0.0}
    metric = get_registry().get("dse_candidates_total")
    if metric is not None:
        for labels, value in metric.series():
            outcome = labels.get("outcome")
            candidates[outcome] = candidates.get(outcome, 0.0) + value
    return {
        "access_hits": cache["hits"],
        "access_misses": cache["misses"],
        "dse_ok": candidates["ok"],
        "dse_total": sum(candidates.values()),
        "tracer_spans": len(get_tracer()),
    }


def process_deltas(before: dict, after: dict) -> dict:
    """Per-run counts from two :func:`process_counts` readings."""
    d = {key: after[key] - before[key] for key in before}
    return {
        "gpu.trace.access_cache.hit_rate": _share(
            d["access_hits"], d["access_hits"] + d["access_misses"]),
        "core.dse.candidates": d["dse_total"],
        "core.dse.feasible_ratio": _share(d["dse_ok"], d["dse_total"]),
        "obs.tracer.spans": d["tracer_spans"],
    }


WORKLOADS = {w.name: w for w in (ServeSteady(), ServeChurn(), FleetChaos(),
                                 DseSweep())}
