"""Design-space exploration: regenerate the paper's Table 1.

Enumerates every valid general-case configuration for each filter size,
ranks them with the traced cost + timing model, and prints our explored
best next to the paper's tabulated configuration.

Run:  python examples/autotune_table1.py          (subsampled, ~10 s)
      python examples/autotune_table1.py --full   (full space)
"""

import sys

from repro.core.config import TABLE1_CONFIGS
from repro.core.dse import (
    default_general_problem,
    enumerate_general_configs,
    explore_general,
)
from repro.core.general import GeneralCaseKernel
from repro.gpu.arch import KEPLER_K40M


def describe(cfg):
    return "W=%-3d H=%-2d FTB=%-3d WT=%-2d FT=%-2d CSH=%d" % (
        cfg.w, cfg.h, cfg.ftb, cfg.wt, cfg.ft, cfg.csh,
    )


def main(full=False):
    print("design-space exploration on the simulated %s" % KEPLER_K40M.name)
    print("(ranking workload: N=128, C=64, F=128 per filter size)\n")
    for k in (3, 5, 7):
        configs = enumerate_general_configs(k, 2, KEPLER_K40M)
        if not full:
            configs = configs[::5]
        ranked = explore_general(k, configs=configs)
        problem = default_general_problem(k)
        paper_cfg = TABLE1_CONFIGS[k]
        paper_gf = GeneralCaseKernel(config=paper_cfg).gflops(problem)

        print("K=%d  (%d configurations explored)" % (k, len(ranked)))
        for rank, r in enumerate(ranked[:3], start=1):
            print("  #%d %s  %7.1f GFlop/s  occ %.0f%%  bound: %s"
                  % (rank, describe(r.config), r.gflops,
                     100 * r.occupancy, r.bound_by))
        print("  paper Table 1: %s  %7.1f GFlop/s (%.0f%% of explored best)\n"
              % (describe(paper_cfg), paper_gf,
                 100 * paper_gf / ranked[0].gflops))


if __name__ == "__main__":
    main(full="--full" in sys.argv)
