"""Register-file accounting.

Tracks per-thread register demand against the architecture's limits and
rounds block allocations to the hardware allocation unit, as the real
register allocator does (the paper's Sec. 3.1 discussion of register
pressure for the moving-window scheme is what this guards).  The
occupancy calculator prices a validated launch with the same rounding,
in plain integers (:mod:`repro.gpu.occupancy`); this class is the
checked, per-call form.
"""

from __future__ import annotations

from repro.errors import ResourceError
from repro.gpu.arch import GPUArchitecture

__all__ = ["RegisterFile"]


class RegisterFile:
    """Register allocation rules for one architecture."""

    def __init__(self, arch: GPUArchitecture):
        self.arch = arch

    def check_thread_demand(self, registers_per_thread: int) -> None:
        """Raise if a single thread needs more registers than the ISA allows."""
        if registers_per_thread <= 0:
            raise ResourceError("registers_per_thread must be positive")
        if registers_per_thread > self.arch.max_registers_per_thread:
            raise ResourceError(
                "kernel needs %d registers/thread, %s allows %d"
                % (
                    registers_per_thread,
                    self.arch.name,
                    self.arch.max_registers_per_thread,
                )
            )

    def block_allocation(self, registers_per_thread: int, threads_per_block: int) -> int:
        """Registers actually reserved for one block (granularity-rounded)."""
        self.check_thread_demand(registers_per_thread)
        if threads_per_block <= 0:
            raise ResourceError("threads_per_block must be positive")
        raw = registers_per_thread * threads_per_block
        unit = self.arch.register_alloc_unit
        return (raw + unit - 1) // unit * unit

    def max_blocks(self, registers_per_thread: int, threads_per_block: int) -> int:
        """Blocks per SM permitted by the register file alone."""
        per_block = self.block_allocation(registers_per_thread, threads_per_block)
        if per_block > self.arch.registers_per_sm:
            return 0
        return self.arch.registers_per_sm // per_block
