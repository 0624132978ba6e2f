"""Canned chaos matrices: every fault kind, verified recovery, twice.

``repro chaos`` (and the CI ``chaos-gate`` job) runs one of these
matrices.  Each scenario builds a fault-free **baseline** replay of a
synthetic trace, then replays the same trace through a chaotic fleet —
**twice, independently** — and checks the resilience contracts from
docs/RESILIENCE.md:

* **nothing lost** — every request is either served or carries a shed
  record (``expired`` / ``overload`` / ``failed``);
* **nothing duplicated** — a request id is answered at most once (the
  fleet raises if its exactly-once reassembly is ever violated);
* **bit-identical service** — every response served under chaos equals
  the baseline response for that request, byte for byte;
* **determinism** — the two chaotic runs agree exactly (same served
  set, same output bytes, same failover/firing counts);
* **no stuck breakers** — after the replay, a cool-down, and one probe
  replay, no circuit breaker is left open;
* **faults actually fired** — a scenario whose declared faults never
  triggered proves nothing and fails loudly.

The ``ci`` matrix covers each fault kind at least once on short traces
(fast enough to gate every commit); ``full`` re-runs the per-kind
scenarios at larger size and finishes with the 10k-request
combined-fault replay from the acceptance bar.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from repro.chaos.plan import FaultKind, FaultPlan
from repro.errors import ChaosError
from repro.fleet.engine import FleetConfig, FleetEngine
from repro.fleet.health import BREAKER_COOLDOWN_S, BREAKER_THRESHOLD
from repro.fleet.shared_cache import SharedPlanCache
from repro.serve.trace import DEFAULT_SERVING_SHAPES, synthetic_trace

__all__ = ["MATRICES", "run_matrix", "run_scenario", "format_chaos_report"]


def _scenario(name, chaos, n_requests, kinds, replicas=4, replays=1,
              hedge=False, breaker_threshold=BREAKER_THRESHOLD,
              warm_shared="no", reader_fleet=False, expect_failovers=False,
              expect_hedges=False, expect_corruptions=False,
              expect_skews=False):
    """One matrix row; plain dict so matrices are data, not code.

    ``warm_shared`` pre-publishes good shared-tier entries before the
    chaotic fleet runs: ``"full"`` warms every shape (so chaotic
    *lookups* hit — the version-skew path), ``"partial"`` warms half
    the shape palette (hits and publishes both happen — the combined
    scenarios need both).  ``reader_fleet`` adds a clean fleet that
    re-reads the shared tier afterwards — the stage that detects
    entries a chaotic fleet corrupted at publish time.
    """
    return {
        "name": name, "chaos": chaos, "n_requests": n_requests,
        "kinds": kinds, "replicas": replicas, "replays": replays,
        "hedge": hedge, "breaker_threshold": breaker_threshold,
        "warm_shared": warm_shared, "reader_fleet": reader_fleet,
        "expect_failovers": expect_failovers,
        "expect_hedges": expect_hedges,
        "expect_corruptions": expect_corruptions,
        "expect_skews": expect_skews,
    }


#: Every fault kind, exercised mid-flight, in one spec (the replica
#: targets are spread so recovery paths do not mask one another).
_COMBINED_SPEC = ("crash:replica=1,times=2;wedge:replica=2;"
                  "slow:replica=0,factor=8;obs-drop:replica=3;"
                  "cache-corrupt;version-skew;build-fail:times=2")
_COMBINED_KINDS = ("crash", "wedge", "slow", "obs-drop",
                   "cache-corrupt", "version-skew", "build-fail")

_PER_KIND = [
    _scenario("crash-failover", "crash:replica=1", 60, ("crash",),
              expect_failovers=True),
    _scenario("crash-midflight", "crash:replica=1,after=5", 60, ("crash",),
              expect_failovers=True),
    # replica 3, not 2: with the default shape palette replica 2 homes
    # no shapes, so a fault pinned there would never see an attempt.
    _scenario("wedge-failover", "wedge:replica=3", 60, ("wedge",),
              expect_failovers=True),
    _scenario("slow-hedged", "slow:replica=0,factor=8", 60, ("slow",),
              hedge=True, expect_hedges=True),
    _scenario("breaker-trip-recover", "crash:replica=1,times=2", 40,
              ("crash",), replays=2, breaker_threshold=2,
              expect_failovers=True),
    _scenario("cache-corrupt-quarantine", "cache-corrupt:times=2", 60,
              ("cache-corrupt",), reader_fleet=True,
              expect_corruptions=True),
    _scenario("version-skew-rebuild", "version-skew:times=2", 60,
              ("version-skew",), warm_shared="full", expect_skews=True),
    _scenario("build-fail-retry", "build-fail:times=2", 60,
              ("build-fail",)),
    _scenario("obs-drop-tolerated", "obs-drop:replica=0", 60,
              ("obs-drop",)),
]


def _combined(name, n_requests):
    return _scenario(name, _COMBINED_SPEC, n_requests, _COMBINED_KINDS,
                     warm_shared="partial", reader_fleet=True,
                     expect_failovers=True, expect_corruptions=True,
                     expect_skews=True)


#: Named matrices the CLI accepts.  ``ci``: every kind once, small and
#: fast.  ``full``: the same plus the 10k combined acceptance replay.
MATRICES: Dict[str, List[dict]] = {
    "ci": _PER_KIND + [_combined("combined-all-kinds", 200)],
    "full": _PER_KIND + [
        _combined("combined-all-kinds", 2_000),
        _combined("combined-10k", 10_000),
    ],
}


def _digest(output) -> str:
    return hashlib.blake2b(output.tobytes(), digest_size=8).hexdigest()


def _replay(scenario: dict, seed: int, chaotic: bool) -> dict:
    """One independent end-to-end run of a scenario; returns its facts.

    Fresh fleet, fresh shared cache, fresh injector: nothing carries
    over between runs, so two calls with the same arguments must agree
    byte for byte — that *is* the determinism check.
    """
    shared = SharedPlanCache()
    config = FleetConfig(
        replicas=scenario["replicas"], queue_depth=512,
        hedge=scenario["hedge"],
        breaker_threshold=scenario["breaker_threshold"])
    if scenario["warm_shared"] != "no":
        # Publish good entries first (a clean fleet, same shapes), so
        # the chaotic fleet's shared-tier *lookups* hit and the
        # read-side validation is what gets exercised.  "partial"
        # warms half the palette, leaving the rest to be published —
        # possibly corrupted — by the chaotic fleet itself.
        shapes = list(DEFAULT_SERVING_SHAPES)
        if scenario["warm_shared"] == "partial":
            shapes = shapes[:max(1, len(shapes) // 2)]
        warmer = FleetEngine(FleetConfig(replicas=scenario["replicas"],
                                         queue_depth=512),
                             shared_cache=shared)
        warmer.serve_trace(synthetic_trace(
            scenario["n_requests"], shapes=tuple(shapes), seed=seed))
    plan = (FaultPlan.parse(scenario["chaos"], seed=seed)
            if chaotic else None)
    fleet = FleetEngine(config, shared_cache=shared, chaos=plan)
    outputs: Dict[tuple, str] = {}
    backends: Dict[tuple, str] = {}
    shed_ids = set()
    served = shed = failovers = offered = 0
    duplicated = False
    for replay in range(scenario["replays"]):
        trace = synthetic_trace(scenario["n_requests"],
                                seed=seed + replay)
        try:
            result = fleet.serve_trace(trace)
        except Exception as exc:
            if "duplicate response" in str(exc):
                duplicated = True
                break
            raise
        served += result.served
        shed += result.shed_count
        failovers += result.failovers
        offered += len(trace)
        shed_ids.update((replay, record.req_id) for record in result.shed)
        for request, response in zip(trace, result.responses):
            if response is None:
                continue
            outputs[(replay, request.req_id)] = _digest(response.output)
            backends[(replay, request.req_id)] = response.backend
    if scenario["reader_fleet"] and not duplicated:
        # A clean fleet re-reads the shared tier the chaotic fleet
        # published into: any entry corrupted at publish time must be
        # quarantined here (and rebuilt), never served.
        reader = FleetEngine(FleetConfig(replicas=scenario["replicas"],
                                         queue_depth=512),
                             shared_cache=shared)
        trace = synthetic_trace(scenario["n_requests"], seed=seed)
        result = reader.serve_trace(trace)
        served += result.served
        shed += result.shed_count
        offered += len(trace)
        shed_ids.update(("reader", record.req_id)
                        for record in result.shed)
        for request, response in zip(trace, result.responses):
            if response is None:
                continue
            outputs[("reader", request.req_id)] = _digest(response.output)
            backends[("reader", request.req_id)] = response.backend
    # Recovery probe: cool every breaker down, then one clean replay —
    # a breaker stuck open past its cool-down is a resilience bug.
    fleet.advance_clock(BREAKER_COOLDOWN_S * 2)
    probe = synthetic_trace(16, seed=seed + 7919)
    probe_result = fleet.serve_trace(probe)
    stuck_open = fleet.health.open_count(fleet.clock_s)
    stats = fleet.stats()
    return {
        "served": served,
        "shed": shed,
        "shed_ids": shed_ids,
        "offered": offered,
        "outputs": outputs,
        "backends": backends,
        "failovers": failovers,
        "hedges": fleet.health.hedges,
        "obs_dropped": fleet.health.obs_dropped,
        "duplicated": duplicated,
        "stuck_open": stuck_open,
        "probe_served": probe_result.served,
        "degradation": stats.get("degradation", "healthy"),
        "corruptions": shared.stats()["corruptions"],
        "skews": shared.stats()["version_skews"],
        "fired": (fleet.chaos.fired() if fleet.chaos else []),
        "unfired": (fleet.chaos.unfired() if fleet.chaos else []),
    }


def run_scenario(scenario: dict, seed: int = 1234) -> dict:
    """Run one scenario (baseline + two chaotic runs); verdict dict."""
    baseline = _replay(scenario, seed, chaotic=False)
    first = _replay(scenario, seed, chaotic=True)
    second = _replay(scenario, seed, chaotic=True)

    # Nothing lost: served + shed covers every offered request.
    lost = first["offered"] - first["served"] - first["shed"]
    # Bit-identical service: every chaos-served response matches the
    # baseline's bytes (and winning backend) for that request.
    mismatched = sum(
        1 for key, digest in first["outputs"].items()
        if baseline["outputs"].get(key) != digest
        or baseline["backends"].get(key) != first["backends"][key])
    deterministic = (
        first["outputs"] == second["outputs"]
        and first["shed_ids"] == second["shed_ids"]
        and first["failovers"] == second["failovers"]
        and first["fired"] == second["fired"])
    kinds_fired = {
        entry["kind"] for entry in first["fired"] if entry["fired"] > 0}
    kinds_missing = [kind for kind in scenario["kinds"]
                     if kind not in kinds_fired]
    checks = {
        "nothing_lost": lost == 0,
        "nothing_duplicated": not first["duplicated"],
        "bit_identical": mismatched == 0,
        "deterministic": deterministic,
        "no_stuck_breaker": first["stuck_open"] == 0,
        "probe_recovers": first["probe_served"] > 0,
        "declared_kinds_fired": not kinds_missing,
    }
    if scenario["expect_failovers"]:
        checks["failovers_observed"] = first["failovers"] > 0
    if scenario["expect_hedges"]:
        checks["hedges_observed"] = first["hedges"] > 0
    if scenario["expect_corruptions"]:
        checks["corruption_quarantined"] = first["corruptions"] > 0
    if scenario["expect_skews"]:
        checks["skew_dropped"] = first["skews"] > 0
    return {
        "name": scenario["name"],
        "chaos": scenario["chaos"],
        "requests": first["offered"],
        "served": first["served"],
        "shed": first["shed"],
        "lost": lost,
        "mismatched": mismatched,
        "failovers": first["failovers"],
        "hedges": first["hedges"],
        "obs_dropped": first["obs_dropped"],
        "degradation": first["degradation"],
        "fired": first["fired"],
        "unfired": first["unfired"],
        "kinds_missing": kinds_missing,
        "checks": checks,
        "passed": all(checks.values()),
    }


def run_matrix(matrix: str = "ci", seed: int = 1234, log=None) -> dict:
    """Run a named matrix; the report is the chaos-gate artifact."""
    scenarios = MATRICES.get(matrix)
    if scenarios is None:
        raise ChaosError("unknown chaos matrix %r; matrices: %s"
                         % (matrix, ", ".join(sorted(MATRICES))))
    outcomes = []
    for scenario in scenarios:
        outcome = run_scenario(scenario, seed=seed)
        if log is not None:
            log("chaos %-26s %s  (served %d/%d, failovers %d)"
                % (outcome["name"],
                   "PASS" if outcome["passed"] else "FAIL",
                   outcome["served"], outcome["requests"],
                   outcome["failovers"]))
        outcomes.append(outcome)
    kinds_covered = sorted({
        entry["kind"] for outcome in outcomes
        for entry in outcome["fired"] if entry["fired"] > 0})
    return {
        "matrix": matrix,
        "seed": seed,
        "scenarios": outcomes,
        "requests": sum(o["requests"] for o in outcomes),
        "kinds_covered": kinds_covered,
        "kinds_declared": sorted(kind.value for kind in FaultKind),
        "passed": all(o["passed"] for o in outcomes),
    }


def format_chaos_report(report: dict) -> str:
    """Human-readable rendering of a :func:`run_matrix` report."""
    lines = []
    lines.append("chaos matrix %r (seed %d): %s"
                 % (report["matrix"], report["seed"],
                    "PASS" if report["passed"] else "FAIL"))
    lines.append("requests replayed     : %d" % report["requests"])
    lines.append("fault kinds covered   : %s"
                 % (", ".join(report["kinds_covered"]) or "none"))
    for outcome in report["scenarios"]:
        lines.append("  %-26s %s  served %d/%d shed %d lost %d "
                     "mismatched %d failovers %d"
                     % (outcome["name"],
                        "PASS" if outcome["passed"] else "FAIL",
                        outcome["served"], outcome["requests"],
                        outcome["shed"], outcome["lost"],
                        outcome["mismatched"], outcome["failovers"]))
        failed = [name for name, ok in outcome["checks"].items() if not ok]
        if failed:
            lines.append("    failed checks: %s" % ", ".join(failed))
        if outcome["unfired"]:
            lines.append("    declared but unfired: %s"
                         % ", ".join(outcome["unfired"]))
    return "\n".join(lines)
