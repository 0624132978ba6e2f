"""Global-memory coalescing model.

Global-memory requests from a warp are decomposed into aligned
transactions of ``gmem_transaction_size`` bytes (128 B on all modeled
architectures).  A warp request touching ``t`` distinct segments costs
``t`` transactions; the efficiency of an access pattern is the ratio of
bytes the program asked for to bytes the DRAM actually moved.  This is
exactly the accounting ``nvprof``'s ``gld_efficiency`` /
``gst_efficiency`` counters perform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.gpu.arch import GPUArchitecture

__all__ = ["GmemAccessResult", "GlobalMemoryModel"]


@dataclass(frozen=True)
class GmemAccessResult:
    """Outcome of one warp-level global-memory request."""

    lanes: int
    access_size: int
    request_bytes: int          # lanes * access_size
    unique_bytes: int           # distinct bytes touched
    transactions: int           # 128-byte segments moved
    segment_size: int

    @property
    def bytes_moved(self) -> int:
        return self.transactions * self.segment_size

    @property
    def efficiency(self) -> float:
        """Useful fraction of moved DRAM bytes (cf. nvprof gld_efficiency)."""
        moved = self.bytes_moved
        return self.unique_bytes / moved if moved else 0.0

    @property
    def fully_coalesced(self) -> bool:
        return self.transactions * self.segment_size == _round_up(
            self.unique_bytes, self.segment_size
        )


def _round_up(value: int, unit: int) -> int:
    return (value + unit - 1) // unit * unit


class GlobalMemoryModel:
    """Coalescing simulator for one architecture's global memory."""

    def __init__(self, arch: GPUArchitecture):
        self.arch = arch
        self.segment_size = arch.gmem_transaction_size

    def access(self, addresses, size: int, segment_size: int = 0) -> GmemAccessResult:
        """Simulate one warp request of ``size`` bytes per active lane.

        ``segment_size`` overrides the default transaction granularity;
        stores on Kepler-class devices bypass L1 and are issued in 32-byte
        L2 sectors, so the tracer passes 32 for writes.
        """
        addrs = np.asarray(addresses, dtype=np.int64)
        if addrs.ndim != 1 or addrs.size == 0:
            raise TraceError("addresses must be a non-empty 1-D sequence")
        if addrs.size > self.arch.warp_size:
            raise TraceError(
                "a warp request has at most %d lanes, got %d"
                % (self.arch.warp_size, addrs.size)
            )
        if size <= 0:
            raise TraceError("access size must be positive")
        lanes = addrs.tolist()
        if min(lanes) < 0:
            raise TraceError("negative global-memory address")
        if any(a % size for a in lanes):
            raise TraceError("global-memory accesses must be %d-byte aligned" % size)

        seg = segment_size or self.segment_size
        segments = set()
        for a in lanes:
            first, last = a // seg, (a + size - 1) // seg
            if first == last:
                segments.add(first)
            else:
                # A lane that straddles a boundary moves every segment
                # its bytes touch.
                segments.update(range(first, last + 1))
        return GmemAccessResult(
            lanes=len(lanes),
            access_size=size,
            request_bytes=len(lanes) * size,
            unique_bytes=len(set(lanes)) * size,
            transactions=len(segments),
            segment_size=seg,
        )

    read = access
    write = access
