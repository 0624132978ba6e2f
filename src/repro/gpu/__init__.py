"""Kepler-like GPU simulation substrate.

This subpackage stands in for the physical Kepler K40m used in the paper.
It provides:

* :mod:`repro.gpu.arch` — architecture descriptions (SM counts, clocks,
  bank widths, peak rates) for Kepler, Fermi and Maxwell class devices;
* :mod:`repro.gpu.simt` — grid/block geometry and launch validation;
* :mod:`repro.gpu.memory` — shared-memory bank model, global-memory
  coalescing model, constant-memory broadcast model;
* :mod:`repro.gpu.trace` — the traffic ledger that plays the role of the
  hardware profiler counters;
* :mod:`repro.gpu.occupancy` — the occupancy calculator;
* :mod:`repro.gpu.timing` — the analytical timing model that converts a
  traffic ledger into seconds / GFlop/s;
* :mod:`repro.gpu.device` — the warp-synchronous SIMT interpreter (the
  executable oracle);
* :mod:`repro.gpu.fastsim` — traced runs at batch speed (the analytic
  special-case cost, the general case's vectorized trace generation),
  byte-identical to the interpreter, with the interpreter as their
  opt-in audit (``run_traced(audit=True)``).
"""

from repro.gpu.arch import (
    GPUArchitecture,
    KEPLER_K40M,
    FERMI_M2090,
    MAXWELL_GM204,
    ARCHITECTURES,
)
from repro.gpu.simt import Dim3, LaunchConfig
from repro.gpu.trace import KernelCost, TrafficLedger, KernelTracer
from repro.gpu.occupancy import OccupancyResult, occupancy
from repro.gpu.timing import TimingModel, TimingBreakdown
from repro.gpu.fastsim import (
    FastSpecialKernel,
    FastGeneralKernel,
    kernel_cost_diffs,
)

__all__ = [
    "GPUArchitecture",
    "KEPLER_K40M",
    "FERMI_M2090",
    "MAXWELL_GM204",
    "ARCHITECTURES",
    "Dim3",
    "LaunchConfig",
    "KernelCost",
    "TrafficLedger",
    "KernelTracer",
    "OccupancyResult",
    "occupancy",
    "TimingModel",
    "TimingBreakdown",
    "FastSpecialKernel",
    "FastGeneralKernel",
    "kernel_cost_diffs",
]
