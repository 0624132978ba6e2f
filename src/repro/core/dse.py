"""Design-space exploration (paper Sec. 5: "Through design space
exploration, we determined that the best block size ..." and Table 1).

The explorer enumerates kernel configurations over the same axes the
paper tabulates (W, H, F_TB, W_T, F_T, C_SH for the general case; W, H
for the special case), filters out configurations that violate the
divisibility constraints or cannot be resident on the device, evaluates
each survivor with the traced cost model + timing model on a
representative workload, and ranks them.  ``reproduce_table1`` runs the
search for the paper's three filter sizes and reports our best
configuration next to the paper's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.conv.tensors import ConvProblem
from repro.core.config import GeneralCaseConfig, SpecialCaseConfig, TABLE1_CONFIGS
from repro.errors import ConfigurationError, LaunchConfigError, ResourceError
from repro.gpu.arch import GPUArchitecture, KEPLER_K40M
from repro.gpu.timing import TimingModel
from repro.obs.metrics import get_registry
from repro.obs.tracing import get_tracer

__all__ = [
    "RankedConfig",
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

def _rank(configs, problem, arch, case: str = "general") -> List[RankedConfig]:
    """Price candidates in order and sort them, best first (stable).

    Telemetry is per search: one ``dse:<case>`` wall span summarizing
    the outcome, and a ``dse_candidates_total`` increment per candidate.
    """
    from repro.core.general import GeneralCaseKernel
    from repro.core.special import SpecialCaseKernel

    kernel_cls = SpecialCaseKernel if case == "special" else GeneralCaseKernel
    model = TimingModel(arch)
    candidates = get_registry().counter(
        "dse_candidates_total",
        "Design-space candidates evaluated, by kernel case and outcome",
        labelnames=("case", "outcome"))
    flops = problem.flops
    ranked: List[RankedConfig] = []
    rejected: dict = {}
    with get_tracer().span("dse:%s" % case, category="dse",
                           args={"problem": problem.describe()}) as span:
        for cfg in configs:
            try:
                breakdown = kernel_cls(arch=arch, config=cfg).predict(
                    problem, model)
            except (ConfigurationError, LaunchConfigError,
                    ResourceError) as exc:
                name = type(exc).__name__
                rejected[name] = rejected.get(name, 0) + 1
                candidates.inc_key((case, "rejected"))
                continue
            candidates.inc_key((case, "ok"))
            ranked.append(RankedConfig(
                config=cfg,
                gflops=breakdown.gflops(flops),
                occupancy=breakdown.occupancy_fraction,
                bound_by=breakdown.bound_by,
            ))
        ranked.sort(key=lambda r: r.gflops, reverse=True)
        span.update(candidates=len(ranked) + sum(rejected.values()),
                    ok=len(ranked), rejected=rejected)
        if ranked:
            span.update(winner=repr(ranked[0].config),
                        gflops=ranked[0].gflops, bound_by=ranked[0].bound_by)
    return ranked


def explore_special(
    arch: GPUArchitecture = KEPLER_K40M,
    problem: Optional[ConvProblem] = None,
) -> List[RankedConfig]:
    """Rank special-case blocks; the paper's answer is W=256, H=8."""
    problem = problem or DEFAULT_SPECIAL_PROBLEM
    return _rank(enumerate_special_configs(), problem, arch, case="special")


def explore_general(
    kernel_size: int,
    arch: GPUArchitecture = KEPLER_K40M,
    problem: Optional[ConvProblem] = None,
    configs: Optional[Sequence[GeneralCaseConfig]] = None,
) -> List[RankedConfig]:
    """Rank general-case configurations for one filter size (Table 1)."""
    from repro.core.bankwidth import matched_vector

    n = matched_vector(arch).n
    problem = problem or default_general_problem(kernel_size)
    if configs is None:
        configs = enumerate_general_configs(kernel_size, n, arch)
    return _rank(configs, problem, arch, case="general")


def _general_palette(kernel_size: int, n: int) -> List[GeneralCaseConfig]:
    """The shippable general-case candidates: the Table 1 entry for this
    filter size (or the conservative fallback), every Table 1 config, and
    the narrow-block small-image palette."""
    from repro.core.general import SMALL_IMAGE_CONFIGS, default_config_for

    palette: List[GeneralCaseConfig] = []
    try:
        palette.append(default_config_for(kernel_size, n))
    except ConfigurationError:
        pass
    for cfg in tuple(TABLE1_CONFIGS.values()) + SMALL_IMAGE_CONFIGS:
        if cfg not in palette:
            palette.append(cfg)
    return palette


def best_config(
    problem: ConvProblem,
    arch: GPUArchitecture = KEPLER_K40M,
    case: Optional[str] = None,
    full: bool = False,
) -> RankedConfig:
    """The winning configuration for one concrete problem.

    This is the single entry point callers (the serving plan cache, the
    Table 1 reproduction) should use instead of re-ranking
    ``explore_special`` / ``explore_general`` results themselves.

    Parameters
    ----------
    case:
        ``"special"``, ``"general"`` or ``"depthwise"`` to force a
        kernel family; ``None`` selects the depthwise case for
        ``groups == channels > 1`` problems, the special case for a
        single input channel, and the general case otherwise.
    full:
        For the general case, search the whole Table 1 axis space (the
        slow path ``reproduce_table1`` uses) instead of the shippable
        palette of known-good configurations.

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

    # The per-case search lives with the backend now: the registry's
    # "special"/"general"/"depthwise" entries wrap the explorers behind
    # the ConvBackend DSE hook, and this entry point delegates.
    from repro.kernels import default_registry

    return default_registry().get(case).tune(problem, arch, full=full)


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
    model = TimingModel(arch)
    for k in kernel_sizes:
        problem = default_general_problem(k)
        best = best_config(problem, arch, case="general", full=True)
        paper_cfg = TABLE1_CONFIGS[k]
        paper_kernel = GeneralCaseKernel(arch=arch, config=paper_cfg)
        paper_gflops = paper_kernel.predict(problem, model).gflops(problem.flops)
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
