"""Occupancy calculator.

Determines how many blocks of a given launch can be resident on one SM
simultaneously, limited by threads, warps, blocks, registers, and shared
memory — the same arithmetic as NVIDIA's occupancy calculator
spreadsheet.  Occupancy feeds the timing model's latency-hiding term and
the design-space explorer's configuration filter (paper Table 1 configs
must all be resident-valid).

The rule is :func:`_limits`, integer arithmetic on a launch that
:meth:`~repro.gpu.simt.LaunchConfig.validate` passed; :func:`residency`
(which the timing model prices with), :func:`occupancy` and
:func:`occupancy_limits` all read it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LaunchConfigError
from repro.gpu.arch import GPUArchitecture
from repro.gpu.simt import LaunchConfig

__all__ = ["OccupancyResult", "occupancy", "occupancy_limits", "residency"]

#: The resources that cap resident blocks, in the order
#: :func:`occupancy_limits` reports them and a tie names its limiter.
LIMITERS = ("threads", "warps", "blocks", "smem", "registers")


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


def _limits(arch: GPUArchitecture, threads: int, registers_per_thread: int,
            smem_per_block: int) -> tuple:
    """``(warps per block, limits)`` of a validated launch: the blocks
    per SM each resource allows, in :data:`LIMITERS` order.

    Blocks reserve registers in ``register_alloc_unit`` steps.  A block
    without shared memory is capped there at the block limit, which
    comes earlier in the order, so that entry never changes the smallest
    limit or which resource it names.
    """
    warps = -(-threads // arch.warp_size)
    unit = arch.register_alloc_unit
    block_registers = (registers_per_thread * threads + unit - 1) // unit * unit
    return warps, (
        arch.max_threads_per_sm // threads,
        arch.max_warps_per_sm // warps,
        arch.max_blocks_per_sm,
        (arch.smem_per_sm // smem_per_block if smem_per_block
         else arch.max_blocks_per_sm),
        arch.registers_per_sm // block_registers,
    )


def residency(arch: GPUArchitecture, threads: int, registers_per_thread: int,
              smem_per_block: int) -> tuple:
    """``(blocks per SM, warps per block, limits)`` of a launch that
    :meth:`~repro.gpu.simt.LaunchConfig.validate` passed, the blocks
    being the smallest of the :func:`_limits`.  Raises
    :class:`LaunchConfigError`, naming the first resource that allows
    none, when not one block fits."""
    warps, limits = _limits(arch, threads, registers_per_thread,
                            smem_per_block)
    blocks = min(limits)
    if blocks == 0:
        raise LaunchConfigError(
            "launch cannot be resident on %s: limited by %s"
            % (arch.name, LIMITERS[limits.index(0)]))
    return blocks, warps, limits


def occupancy_limits(arch: GPUArchitecture, launch: LaunchConfig) -> dict:
    """Blocks-per-SM ceiling imposed by each resource, separately (no
    shared-memory entry for a launch that uses none)."""
    launch.validate(arch)
    limits = dict(zip(LIMITERS, _limits(
        arch, launch.threads_per_block, launch.registers_per_thread,
        launch.smem_per_block)[1]))
    if not launch.smem_per_block:
        del limits["smem"]
    return limits


def occupancy(arch: GPUArchitecture, launch: LaunchConfig) -> OccupancyResult:
    """Blocks of ``launch`` resident per SM of ``arch`` and the limiter
    (the first smallest limit, in ``occupancy_limits`` order)."""
    launch.validate(arch)
    blocks, warps, limits = residency(
        arch, launch.threads_per_block, launch.registers_per_thread,
        launch.smem_per_block)
    return OccupancyResult(blocks, warps, LIMITERS[limits.index(blocks)])
