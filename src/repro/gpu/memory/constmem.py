"""Constant-memory broadcast model.

Constant memory is served through a small per-SM cache with a broadcast
port: a warp access in which every lane reads the *same* address costs a
single cycle; lanes reading ``d`` distinct addresses serialize into
``d`` broadcasts.  The paper's special-case kernel is designed so that
all lanes always read the identical filter tap (Sec. 3.3), which this
model rewards.

Cache behaviour is modeled at working-set granularity: a working set
that fits the per-SM constant cache hits after its cold miss; a larger
set thrashes proportionally.  This coarse model is sufficient because
the kernels either fit comfortably (special case: one K x K filter set)
or do not use constant memory at all (general case).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.gpu.arch import GPUArchitecture

__all__ = ["CmemAccessResult", "ConstantMemoryModel"]


@dataclass(frozen=True)
class CmemAccessResult:
    """Outcome of one warp-level constant-memory request."""

    lanes: int
    distinct_addresses: int

    @property
    def serializations(self) -> int:
        """Broadcast cycles needed for the request."""
        return self.distinct_addresses

    @property
    def is_broadcast(self) -> bool:
        return self.distinct_addresses == 1


class ConstantMemoryModel:
    """Broadcast/serialization simulator for constant memory."""

    def __init__(self, arch: GPUArchitecture):
        self.arch = arch

    def access(self, addresses) -> CmemAccessResult:
        addrs = np.asarray(addresses, dtype=np.int64)
        if addrs.ndim != 1 or addrs.size == 0:
            raise TraceError("addresses must be a non-empty 1-D sequence")
        if addrs.size > self.arch.warp_size:
            raise TraceError(
                "a warp request has at most %d lanes, got %d"
                % (self.arch.warp_size, addrs.size)
            )
        lanes = addrs.tolist()
        if min(lanes) < 0:
            raise TraceError("negative constant-memory address")
        return CmemAccessResult(lanes=len(lanes), distinct_addresses=len(set(lanes)))

    def hit_rate(self, working_set_bytes: int) -> float:
        """Steady-state constant-cache hit rate for a working set."""
        if working_set_bytes < 0:
            raise TraceError("working set size cannot be negative")
        if working_set_bytes == 0:
            return 1.0
        if working_set_bytes > self.arch.const_memory_size:
            raise TraceError(
                "working set %d exceeds constant memory size %d"
                % (working_set_bytes, self.arch.const_memory_size)
            )
        cache = self.arch.const_cache_per_sm
        if working_set_bytes <= cache:
            return 1.0
        return cache / working_set_bytes
