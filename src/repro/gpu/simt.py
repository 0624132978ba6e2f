"""Grid/block geometry and launch validation.

The functional kernel executors in :mod:`repro.core` and
:mod:`repro.baselines` describe their parallel decomposition with the
same ``<<<grid, block>>>`` vocabulary as CUDA.  This module provides the
geometry types and validates a launch against an architecture's limits,
so that any configuration accepted by the simulator would also be
launchable on the real device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import LaunchConfigError
from repro.gpu.arch import GPUArchitecture

__all__ = ["Dim3", "LaunchConfig", "warp_count", "lane_ids"]


@dataclass(frozen=True, init=False)
class Dim3:
    """A CUDA-style 3-component extent.  Components must be positive.

    Like :class:`LaunchConfig`, it fills its instance dict in one step
    rather than one frozen ``__setattr__`` per field: every priced
    candidate builds two.  ``count``, the product of the components as
    an ``int``, is computed there too, since pricing reads it several
    times per launch; it is not a field, so equality, hashing and
    ``repr`` see only ``x, y, z``.
    """

    x: int = 1
    y: int = 1
    z: int = 1

    def __init__(self, x: int = 1, y: int = 1, z: int = 1):
        # Plain positive ints take the fast path; anything else (numpy
        # integers included) gets the full check.
        if type(x) is type(y) is type(z) is int and x > 0 and y > 0 and z > 0:
            count = x * y * z
        else:
            for axis in (x, y, z):
                if not isinstance(axis, (int, np.integer)) or axis < 1:
                    raise LaunchConfigError(
                        "Dim3 components must be positive integers")
            count = int(x) * int(y) * int(z)
        self.__dict__.update(x=x, y=y, z=z, count=count)

    def __iter__(self):
        return iter((self.x, self.y, self.z))


def warp_count(threads_per_block: int, warp_size: int = 32) -> int:
    """Number of (possibly partial) warps in a block of the given size."""
    if threads_per_block <= 0:
        raise LaunchConfigError("threads_per_block must be positive")
    return math.ceil(threads_per_block / warp_size)


def lane_ids(warp_index: int, threads_per_block: int, warp_size: int = 32) -> np.ndarray:
    """Linear thread indices covered by warp ``warp_index`` of a block.

    The last warp of a block may be partial; the returned array then has
    fewer than ``warp_size`` entries, matching how the hardware masks
    inactive lanes.
    """
    lo = warp_index * warp_size
    if lo >= threads_per_block or warp_index < 0:
        raise LaunchConfigError(
            "warp %d out of range for block of %d threads" % (warp_index, threads_per_block)
        )
    hi = min(lo + warp_size, threads_per_block)
    return np.arange(lo, hi)


@dataclass(frozen=True, init=False)
class LaunchConfig:
    """A kernel launch: grid and block extents plus static resources.

    ``registers_per_thread`` and ``smem_per_block`` feed the occupancy
    calculator; they are what ``nvcc --ptxas-options=-v`` would report
    for the real kernel.  :meth:`validate` is the one check a launch
    gets before it is priced.
    """

    grid: Dim3
    block: Dim3
    registers_per_thread: int = 32
    smem_per_block: int = 0

    def __init__(self, grid: Dim3, block: Dim3, registers_per_thread: int = 32,
                 smem_per_block: int = 0):
        self.__dict__.update(grid=grid, block=block,
                             registers_per_thread=registers_per_thread,
                             smem_per_block=smem_per_block)

    @property
    def threads_per_block(self) -> int:
        return self.block.count

    @property
    def total_blocks(self) -> int:
        return self.grid.count

    @property
    def total_threads(self) -> int:
        return self.total_blocks * self.threads_per_block

    def warps_per_block(self, warp_size: int = 32) -> int:
        return warp_count(self.threads_per_block, warp_size)

    def total_warps(self, warp_size: int = 32) -> int:
        return self.total_blocks * self.warps_per_block(warp_size)

    def validate(self, arch: GPUArchitecture) -> None:
        """Raise :class:`LaunchConfigError` if this launch cannot run on
        ``arch``: too many threads, a negative or too large shared-memory
        size, or a register count that is not positive or does not fit."""
        threads = self.block.count
        smem = self.smem_per_block
        regs = self.registers_per_thread
        if threads > arch.max_threads_per_block:
            raise LaunchConfigError(
                "%d threads/block exceeds limit %d on %s"
                % (threads, arch.max_threads_per_block, arch.name)
            )
        if smem > arch.smem_per_block_max:
            raise LaunchConfigError(
                "%d bytes of shared memory/block exceeds limit %d on %s"
                % (smem, arch.smem_per_block_max, arch.name)
            )
        if regs > arch.max_registers_per_thread:
            raise LaunchConfigError(
                "%d registers/thread exceeds limit %d on %s"
                % (regs, arch.max_registers_per_thread, arch.name)
            )
        block_regs = regs * threads
        if block_regs > arch.registers_per_sm:
            raise LaunchConfigError(
                "block requires %d registers, SM has %d on %s"
                % (block_regs, arch.registers_per_sm, arch.name)
            )
        if regs <= 0:
            raise LaunchConfigError(
                "registers_per_thread must be positive, got %d" % regs)
        if smem < 0:
            raise LaunchConfigError(
                "smem_per_block cannot be negative, got %d" % smem)
