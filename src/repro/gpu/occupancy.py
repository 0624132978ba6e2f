"""Occupancy calculator.

Determines how many blocks of a given launch can be resident on one SM
simultaneously, limited by threads, warps, blocks, registers, and shared
memory — the same arithmetic as NVIDIA's occupancy calculator
spreadsheet.  Occupancy feeds the timing model's latency-hiding term and
the design-space explorer's configuration filter (paper Table 1 configs
must all be resident-valid).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LaunchConfigError
from repro.gpu.arch import GPUArchitecture
from repro.gpu.memory.registers import RegisterFile
from repro.gpu.simt import LaunchConfig, warp_count

__all__ = ["OccupancyResult", "occupancy", "occupancy_limits"]


@dataclass(frozen=True)
class OccupancyResult:
    """Residency of one launch configuration on a single SM."""

    blocks_per_sm: int
    warps_per_block: int
    limiter: str                # which resource capped blocks_per_sm

    @property
    def warps_per_sm(self) -> int:
        return self.blocks_per_sm * self.warps_per_block

    def occupancy_fraction(self, arch: GPUArchitecture) -> float:
        return self.warps_per_sm / arch.max_warps_per_sm


def occupancy_limits(arch: GPUArchitecture, launch: LaunchConfig) -> dict:
    """Blocks-per-SM ceiling imposed by each resource, separately."""
    return _limits(arch, launch)[1]


def _limits(arch: GPUArchitecture, launch: LaunchConfig) -> tuple:
    """``(warps per block, occupancy_limits)``, the launch validated."""
    launch.validate(arch)
    threads = launch.threads_per_block
    warps = warp_count(threads, arch.warp_size)
    limits = {
        "threads": arch.max_threads_per_sm // threads,
        "warps": arch.max_warps_per_sm // warps,
        "blocks": arch.max_blocks_per_sm,
    }
    if launch.smem_per_block > 0:
        limits["smem"] = arch.smem_per_sm // launch.smem_per_block
    regs = RegisterFile(arch)
    limits["registers"] = regs.max_blocks(launch.registers_per_thread, threads)
    return warps, limits


def occupancy(arch: GPUArchitecture, launch: LaunchConfig) -> OccupancyResult:
    """Blocks of ``launch`` resident per SM of ``arch`` and the limiter
    (the first smallest limit, in ``occupancy_limits`` order)."""
    warps, limits = _limits(arch, launch)
    blocks = min(limits.values())
    for limiter, limit in limits.items():
        if limit == blocks:
            break
    if blocks == 0:
        raise LaunchConfigError(
            "launch cannot be resident on %s: limited by %s" % (arch.name, limiter)
        )
    return OccupancyResult(blocks_per_sm=blocks, warps_per_block=warps, limiter=limiter)
