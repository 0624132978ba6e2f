"""Design-space exploration (paper Sec. 5: "Through design space
exploration, we determined that the best block size ..." and Table 1).

The explorer enumerates kernel configurations over the same axes the
paper tabulates (W, H, F_TB, W_T, F_T, C_SH for the general case; W, H
for the special case), filters out configurations that violate the
divisibility constraints or cannot be resident on the device, evaluates
each survivor with the traced cost model + timing model on a
representative workload, and ranks them.  ``reproduce_table1`` runs the
search for the paper's three filter sizes and reports our best
configuration next to the paper's.  A caller that needs only the winner
passes ``limit=`` (``math.inf`` for no time limit) and gets a
branch-and-bound search over the kernels' floors instead
(docs/SIMULATOR.md, "Floors and the bounded search"), which answers the
winner with the breakdown and cost that priced it.  It is the one way a
winner is picked: the serving dispatcher, :func:`best_config` and
``reproduce_table1``, the general kernel's ``auto_config`` and the
implicit-GEMM baseline's tile choice all run it; the full ranking stays
for callers whose output is the ranking.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.conv.tensors import ConvProblem
from repro.core.config import GeneralCaseConfig, SpecialCaseConfig, TABLE1_CONFIGS
from repro.errors import ConfigurationError, LaunchConfigError, ResourceError
from repro.gpu.arch import GPUArchitecture, KEPLER_K40M
from repro.gpu.timing import TimingBreakdown, TimingModel, below_every_price
from repro.gpu.trace import KernelCost
from repro.obs.metrics import get_registry
from repro.obs.tracing import get_tracer

__all__ = [
    "RankedConfig",
    "PricedConfig",
    "enumerate_special_configs",
    "enumerate_general_configs",
    "explore_special",
    "explore_general",
    "best_config",
    "reproduce_table1",
    "DEFAULT_SPECIAL_PROBLEM",
    "default_general_problem",
]

#: Representative workload for ranking special-case configurations: a
#: large grayscale image with a moderate filter bank.
DEFAULT_SPECIAL_PROBLEM = ConvProblem.square(2048, 3, channels=1, filters=16)


def default_general_problem(kernel_size: int) -> ConvProblem:
    """Representative CNN layer for ranking general-case configurations."""
    return ConvProblem.square(128, kernel_size, channels=64, filters=128)


@dataclass(frozen=True)
class RankedConfig:
    """One explored configuration with its predicted performance."""

    config: object              # SpecialCaseConfig or GeneralCaseConfig
    gflops: float
    occupancy: float
    bound_by: str


class PricedConfig(NamedTuple):
    """One priced candidate: its ranking entry, and the breakdown and
    cost that priced it.  A bounded search answers its winner as one,
    so a caller need not price the winner again; a full ranking keeps
    only the :class:`RankedConfig`."""

    ranked: RankedConfig
    breakdown: TimingBreakdown
    cost: KernelCost


# ----------------------------------------------------------------------
# Enumeration
# ----------------------------------------------------------------------

def enumerate_special_configs(
    widths: Sequence[int] = (64, 128, 256, 512),
    heights: Sequence[int] = (2, 4, 8, 16),
) -> List[SpecialCaseConfig]:
    return [
        SpecialCaseConfig(block_w=w, block_h=h)
        for w, h in itertools.product(widths, heights)
    ]


def enumerate_general_configs(
    kernel_size: int,
    n: int,
    arch: GPUArchitecture = KEPLER_K40M,
    widths: Sequence[int] = (16, 32, 64),
    heights: Sequence[int] = (2, 4, 8),
    ftbs: Sequence[int] = (16, 32, 64, 128),
    wts: Sequence[int] = (4, 8, 16),
    fts: Sequence[int] = (2, 4, 8, 16),
    cshs: Sequence[int] = (1, 2, 4),
) -> List[GeneralCaseConfig]:
    """All constraint-satisfying configurations of the Table 1 axes."""
    survivors = []
    warp = arch.warp_size
    # ``validate``'s integer checks run first, so a combination failing
    # one is rejected before its config is built; ``validate`` stays the
    # authority.  Only with positive axes: the constructor is what
    # rejects a non-positive value.
    axes = tuple(map(tuple, (widths, heights, ftbs, wts, fts, cshs)))
    positive = all(v >= 1 for axis in axes for v in axis)
    for w, h, ftb, wt, ft, csh in itertools.product(*axes):
        if ft > ftb or wt > w * h:
            continue
        if positive and (ftb % ft or w % wt
                         or ftb // ft * (w * h // wt) % warp):
            continue
        cfg = GeneralCaseConfig(w=w, h=h, ftb=ftb, wt=wt, ft=ft, csh=csh)
        try:
            cfg.validate(kernel_size, n, warp)
        except ConfigurationError:
            continue
        threads = cfg.threads
        if threads > arch.max_threads_per_block:
            continue
        if cfg.smem_bytes(kernel_size, n) > arch.smem_per_block_max:
            continue
        regs = cfg.registers_per_thread(kernel_size, n)
        if regs > arch.max_registers_per_thread:
            continue
        if regs * threads > arch.registers_per_sm:
            # One block alone would not fit the SM's register file.
            continue
        survivors.append(cfg)
    return survivors


# ----------------------------------------------------------------------
# Ranking
# ----------------------------------------------------------------------

class _Pricer:
    """One search's per-candidate pricing and accounting, shared by the
    full ranking and the bounded search: the timing model that prices
    each candidate's floor and cost (the model of the candidates' own
    architecture, so a price is the kernel's ``predict``), the
    ``dse_candidates_total`` counter resolved once, and the tallies the
    ``dse:<case>`` span reports."""

    REJECTED = (ConfigurationError, LaunchConfigError, ResourceError)

    def __init__(self, problem: ConvProblem, arch: GPUArchitecture,
                 case: str):
        self.problem = problem
        self.flops = problem.flops
        self.model = TimingModel(arch)
        self.case = case
        self.counter = get_registry().counter(
            "dse_candidates_total",
            "Design-space candidates evaluated, by kernel case and outcome",
            labelnames=("case", "outcome"))
        self.ok = 0
        self.rejected: dict = {}

    def _reject(self, exc: Exception) -> None:
        name = type(exc).__name__
        self.rejected[name] = self.rejected.get(name, 0) + 1
        self.counter.inc_key((self.case, "rejected"))

    def floor(self, kernel) -> Optional[float]:
        """The kernel's floor time, or None with the rejection counted
        (a floor raises exactly what its price would)."""
        try:
            return self.model.evaluate(kernel.floor(self.problem)).total
        except self.REJECTED as exc:
            self._reject(exc)
            return None

    def price(self, cfg, kernel) -> Optional[PricedConfig]:
        """The candidate priced, or None with the rejection counted."""
        try:
            cost = kernel.cost(self.problem)
            breakdown = self.model.evaluate(cost)
        except self.REJECTED as exc:
            self._reject(exc)
            return None
        self.ok += 1
        self.counter.inc_key((self.case, "ok"))
        return PricedConfig(RankedConfig(
            config=cfg,
            gflops=breakdown.gflops(self.flops),
            occupancy=breakdown.occupancy_fraction,
            bound_by=breakdown.bound_by,
        ), breakdown, cost)


def _rank_all(configs, kernel_cls, arch, pricer: _Pricer) -> List[RankedConfig]:
    """Every candidate priced and sorted by GFlop/s, best first (stable:
    the earlier candidate wins a tie)."""
    ranked = []
    for cfg in configs:
        priced = pricer.price(cfg, kernel_cls(arch=arch, config=cfg))
        if priced is not None:
            ranked.append(priced.ranked)
    ranked.sort(key=lambda r: r.gflops, reverse=True)
    return ranked


def _bounded(configs, kernel_cls, arch, pricer: _Pricer,
             limit: float) -> Tuple[Optional[PricedConfig], int]:
    """The branch-and-bound winner search: ``(winner or None, pruned)``.

    Every candidate's floor is priced first, then the candidates in
    ``(floor time, index)`` order.  A floor never exceeds the price
    (docs/SIMULATOR.md), so once a candidate's GFlop/s ceiling
    ``flops / floor / 1e9`` is strictly below the best priced GFlop/s,
    or below ``flops / limit / 1e9``, neither it nor any later one can
    beat or tie the best, or come in at or under ``limit``: the search
    stops there.  The winner is the full ranking's first entry (highest
    GFlop/s, earliest index on a tie), returned only when it takes at
    most ``limit`` seconds.  A limit below every price
    (:func:`~repro.gpu.timing.below_every_price`) prices nothing; a NaN
    limit raises :class:`ConfigurationError`.
    """
    flops = pricer.flops
    bar = math.inf if below_every_price(limit) else flops / limit / 1e9
    floors = []
    for index, cfg in enumerate(configs):
        kernel = kernel_cls(arch=arch, config=cfg)
        seconds = pricer.floor(kernel)
        if seconds is not None:
            floors.append((seconds, index, cfg, kernel))
    floors.sort(key=lambda f: f[:2])
    best = best_index = None
    priced = 0
    for seconds, index, cfg, kernel in floors:
        if flops / seconds / 1e9 < bar:
            break
        priced += 1
        result = pricer.price(cfg, kernel)
        if result is None:
            continue
        gflops = result.ranked.gflops
        if (best is None or gflops > best.ranked.gflops
                or (gflops == best.ranked.gflops and index < best_index)):
            best, best_index = result, index
            bar = max(bar, gflops)
    if best is not None and best.breakdown.total > limit:
        best = None
    return best, len(floors) - priced


def _rank(configs, kernel_cls, problem, arch, case: str,
          limit: Optional[float] = None):
    """Rank candidates, or with a ``limit`` find only the winner.

    Each candidate is ``kernel_cls(arch=arch, config=cfg)``.  With
    ``limit=None`` every candidate is priced and ranked, best first.
    With a limit in seconds (``math.inf`` allowed) the search is
    bounded (:func:`_bounded`): the full ranking's first entry as a
    :class:`PricedConfig` when it takes at most ``limit`` seconds,
    ``None`` when it takes longer (always, for a limit at or below
    zero), and :class:`ConfigurationError` when no candidate is valid or
    the limit is NaN.

    Telemetry is per search: one ``dse:<case>`` wall span summarizing
    the outcome, a ``dse_candidates_total`` increment per priced
    candidate and, for a bounded search, the unpriced ones in
    ``dse_candidates_pruned_total``.
    """
    pricer = _Pricer(problem, arch, case)
    with get_tracer().span("dse:%s" % case, category="dse",
                           args={"problem": problem.describe()}) as span:
        if limit is None:
            result = _rank_all(configs, kernel_cls, arch, pricer)
            winner, pruned = (result[0] if result else None), 0
        else:
            result, pruned = _bounded(configs, kernel_cls, arch, pricer,
                                      limit)
            winner = result.ranked if result is not None else None
            get_registry().counter(
                "dse_candidates_pruned_total",
                "Design-space candidates a bounded search left unpriced, "
                "by kernel case",
                labelnames=("case",)).inc_key((case,), pruned)
        span.update(candidates=pricer.ok + sum(pricer.rejected.values()),
                    ok=pricer.ok, rejected=pricer.rejected, limit=limit,
                    pruned=pruned)
        if winner is not None:
            span.update(winner=repr(winner.config), gflops=winner.gflops,
                        bound_by=winner.bound_by)
    if limit is not None and not (pricer.ok or pruned):
        raise ConfigurationError(
            "no valid %s-case configuration for %s"
            % (case, problem.describe()))
    return result


def explore_special(
    arch: GPUArchitecture = KEPLER_K40M,
    problem: Optional[ConvProblem] = None,
    limit: Optional[float] = None,
):
    """Rank special-case blocks; the paper's answer is W=256, H=8.

    A ``limit`` in seconds makes it the bounded winner search
    (:func:`_rank`), which answers a :class:`PricedConfig` or ``None``.
    """
    from repro.core.special import SpecialCaseKernel

    problem = problem or DEFAULT_SPECIAL_PROBLEM
    return _rank(enumerate_special_configs(), SpecialCaseKernel, problem,
                 arch, "special", limit)


def explore_general(
    kernel_size: int,
    arch: GPUArchitecture = KEPLER_K40M,
    problem: Optional[ConvProblem] = None,
    configs: Optional[Sequence[GeneralCaseConfig]] = None,
    limit: Optional[float] = None,
):
    """Rank general-case configurations for one filter size (Table 1).

    A ``limit`` in seconds makes it the bounded winner search
    (:func:`_rank`), which answers a :class:`PricedConfig` or ``None``.
    """
    from repro.core.bankwidth import matched_vector
    from repro.core.general import GeneralCaseKernel

    n = matched_vector(arch).n
    problem = problem or default_general_problem(kernel_size)
    if configs is None:
        configs = enumerate_general_configs(kernel_size, n, arch)
    return _rank(configs, GeneralCaseKernel, problem, arch, "general", limit)


def best_config(
    problem: ConvProblem,
    arch: GPUArchitecture = KEPLER_K40M,
    case: Optional[str] = None,
    full: bool = False,
) -> RankedConfig:
    """The winning configuration for one concrete problem: the full
    ranking's first entry (highest GFlop/s, the earliest candidate on a
    tie), found by the bounded search a serving plan build runs, with no
    time limit.

    This is the single entry point callers (the Table 1 reproduction,
    the tooling) should use instead of re-ranking ``explore_special`` /
    ``explore_general`` results themselves.

    Parameters
    ----------
    case:
        ``"special"``, ``"general"`` or ``"depthwise"`` to force a
        kernel family; ``None`` selects the depthwise case for
        ``groups == channels > 1`` problems, the special case for a
        single input channel, and the general case otherwise.
    full:
        For the general case, search the whole Table 1 axis space (the
        path ``reproduce_table1`` uses) instead of the shipped palette
        (:func:`repro.core.general.palette`).

    Raises
    ------
    ConfigurationError
        If no candidate configuration is valid for the problem.
    """
    if case is None:
        if problem.groups == problem.channels and problem.channels > 1:
            case = "depthwise"
        elif problem.channels == 1:
            case = "special"
        else:
            case = "general"
    if case not in ("special", "general", "depthwise"):
        raise ConfigurationError("unknown kernel case %r" % case)

    # The per-case search lives with the backend: the registry's
    # "special"/"general"/"depthwise" entries each keep the one search
    # their ``configure`` runs under a plan build's limit.
    from repro.kernels import default_registry

    backend = default_registry().get(case)
    return backend._explore(problem, arch, math.inf, full).ranked


@dataclass(frozen=True)
class Table1Row:
    """Our explored best versus the paper's Table 1 for one filter size."""

    kernel_size: int
    paper: GeneralCaseConfig
    ours: GeneralCaseConfig
    ours_gflops: float
    paper_gflops: float


def reproduce_table1(
    arch: GPUArchitecture = KEPLER_K40M,
    kernel_sizes: Sequence[int] = (3, 5, 7),
) -> List[Table1Row]:
    """Regenerate Table 1 by exploration and compare with the paper's."""
    from repro.core.general import GeneralCaseKernel

    rows = []
    for k in kernel_sizes:
        problem = default_general_problem(k)
        best = best_config(problem, arch, case="general", full=True)
        paper_cfg = TABLE1_CONFIGS[k]
        paper_kernel = GeneralCaseKernel(arch=arch, config=paper_cfg)
        paper_gflops = paper_kernel.gflops(problem)
        rows.append(
            Table1Row(
                kernel_size=k,
                paper=paper_cfg,
                ours=best.config,
                ours_gflops=best.gflops,
                paper_gflops=paper_gflops,
            )
        )
    return rows
