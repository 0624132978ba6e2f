"""Roofline analysis for traced kernels.

Places each kernel/problem pair on the classic roofline: x = arithmetic
intensity (flops per DRAM byte actually moved), y = achieved GFlop/s
(modeled), against the machine's memory-bandwidth slope and compute
ceiling.  The paper's story reads off directly: the naive kernel sits
far down the memory slope, the optimized direct kernels run within ~15%
of the compute roof, and the cuDNN-like baseline trails them through
overlap and shared-memory losses the roofline cannot see (its DRAM
traffic is L2-filtered) — which is exactly why the paper argues about
shared-memory bandwidth rather than DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.conv.tensors import ConvProblem
from repro.gpu.arch import GPUArchitecture
from repro.gpu.timing import COMPUTE_EFFICIENCY, TimingModel

__all__ = ["RooflinePoint", "roofline_point", "roofline_report"]


@dataclass(frozen=True)
class RooflinePoint:
    """One kernel/problem pair on the roofline."""

    name: str
    intensity: float            # flops per DRAM byte moved
    achieved_gflops: float      # modeled, at the nominal flop count
    roof_gflops: float          # min(compute roof, intensity * bandwidth)
    bound: str                  # 'memory' or 'compute' side of the ridge

    @property
    def roof_fraction(self) -> float:
        """How close the kernel runs to its own roof."""
        return self.achieved_gflops / self.roof_gflops if self.roof_gflops else 0.0


def _roofs(arch: GPUArchitecture) -> Tuple[float, float]:
    compute_roof = arch.peak_sp_gflops * COMPUTE_EFFICIENCY
    bandwidth = arch.sustained_gmem_bandwidth_gbs
    return compute_roof, bandwidth


def roofline_point(kernel, problem: ConvProblem) -> RooflinePoint:
    """Compute a kernel's roofline coordinates for one problem."""
    cost = kernel.cost(problem)
    breakdown = TimingModel(kernel.arch).evaluate(cost)
    led = cost.ledger
    intensity = led.arithmetic_intensity
    compute_roof, bandwidth = _roofs(kernel.arch)
    # The roof is stated in *nominal* flops: scale the executed-flop
    # roof down by any overcompute the kernel performs.
    nominal_scale = problem.flops / led.flops if led.flops else 1.0
    roof = min(compute_roof, intensity * bandwidth) * nominal_scale
    nominal_intensity = intensity * nominal_scale
    return RooflinePoint(
        name=kernel.name,
        intensity=nominal_intensity,
        achieved_gflops=breakdown.gflops(problem.flops),
        roof_gflops=roof,
        bound="compute" if intensity * bandwidth >= compute_roof else "memory",
    )


def roofline_report(kernels: dict, problem: ConvProblem) -> str:
    """Plain-text roofline table for several kernels on one problem."""
    points: List[Tuple[str, RooflinePoint]] = []
    arch = None
    for label, kernel in kernels.items():
        points.append((label, roofline_point(kernel, problem)))
        arch = kernel.arch
    compute_roof, bandwidth = _roofs(arch)

    lines = []
    lines.append(
        "roofline on %s: compute roof %.0f GFlop/s, DRAM %.0f GB/s (ridge "
        "at %.1f flops/B)"
        % (arch.name, compute_roof, bandwidth, compute_roof / bandwidth)
    )
    header = "%-14s %14s %12s %12s %8s %8s" % (
        "kernel", "flops/B (nom.)", "achieved", "roof", "of roof", "bound")
    lines.append(header)
    lines.append("-" * len(header))
    for label, pt in points:
        lines.append(
            "%-14s %14.2f %12.1f %12.1f %7.0f%% %8s"
            % (label, pt.intensity, pt.achieved_gflops, pt.roof_gflops,
               100 * pt.roof_fraction, pt.bound)
        )
    return "\n".join(lines)
