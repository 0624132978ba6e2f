"""An executable SIMT device: warp-level interpretation with traced
memory.

The kernels in :mod:`repro.core` carry hand-derived cost models (they
replay each access *site's* representative warp pattern and scale).
This module provides the independent check: a small warp-synchronous
interpreter on which a kernel can be written against a device API —
global/shared/constant arrays, per-lane loads and stores, block
barriers — and *executed*.  Every access the program makes flows
through the same bank/coalescing/broadcast models and accumulates into
the same :class:`~repro.gpu.trace.TrafficLedger`, byte addresses and
all, while also moving real data.

``tests/gpu/test_interpreter_audit.py`` runs Algorithm 1 on this
interpreter and checks both that the output is exact and that the
executed trace agrees with ``SpecialCaseKernel.cost()`` — the analytic
model's audit.

The programming model is warp-synchronous and lane-vectorized: a kernel
is a Python function ``body(block, *args)``; it iterates
``for warp in block.warps():`` and issues warp-wide operations whose
index operands are per-lane numpy arrays.  (No divergence modeling —
lanes are masked by passing shorter index arrays, matching how the
paper's kernels predicate their halo accesses.)
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import TraceError
from repro.gpu.arch import GPUArchitecture, KEPLER_K40M
from repro.gpu.memory.banks import BankConflictPolicy
from repro.gpu.simt import Dim3, LaunchConfig, lane_ids, warp_count
from repro.gpu.trace import KernelCost, KernelTracer

__all__ = [
    "GlobalArray",
    "ConstantArray",
    "SharedArray",
    "Warp",
    "Block",
    "DeviceExecutor",
]

#: Alignment of global allocations (matches cudaMalloc's 512 B).
_GLOBAL_ALIGN = 512


class GlobalArray:
    """A flat float32 array in simulated global memory."""

    def __init__(self, data: np.ndarray, base: int, name: str):
        self.data = np.ascontiguousarray(data, dtype=np.float32).reshape(-1)
        self.base = base
        self.name = name
        self.elem = 4

    def addresses(self, index, vector: int = 1, site: str = "") -> np.ndarray:
        """Byte addresses of a per-lane access of ``vector`` elements.

        The whole span ``[idx, idx + vector)`` of every lane must be in
        range, not just the base element — a vector access straddling
        the end of the allocation is a trace error, not a numpy one.
        """
        idx = np.asarray(index, dtype=np.int64)
        if vector < 1:
            raise TraceError("vector width must be positive")
        if np.any(idx < 0) or np.any(idx + (vector - 1) >= self.data.size):
            raise TraceError(
                "global index out of range in %s (vector=%d)%s"
                % (self.name, vector, " at site %r" % site if site else ""))
        return self.base + idx * self.elem


class ConstantArray(GlobalArray):
    """A float32 array in simulated constant memory."""


class SharedArray:
    """A per-block float32 shared-memory allocation (base address 0)."""

    def __init__(self, size_floats: int, name: str = "smem"):
        if size_floats < 1:
            raise TraceError("shared allocation must be positive")
        self.data = np.zeros(size_floats, dtype=np.float32)
        self.name = name
        self.elem = 4

    def addresses(self, index, vector: int = 1, site: str = "") -> np.ndarray:
        """Byte addresses of a per-lane access of ``vector`` elements.

        Like :meth:`GlobalArray.addresses`, the full ``vector`` span of
        every lane is bounds-checked.
        """
        idx = np.asarray(index, dtype=np.int64)
        if vector < 1:
            raise TraceError("vector width must be positive")
        if np.any(idx < 0) or np.any(idx + (vector - 1) >= self.data.size):
            raise TraceError(
                "shared index out of range in %s (vector=%d)%s"
                % (self.name, vector, " at site %r" % site if site else ""))
        return idx * self.elem


class Warp:
    """One warp's SIMT view: lane-vectorized loads, stores, arithmetic."""

    def __init__(self, block: "Block", warp_id: int, lanes: np.ndarray):
        self.block = block
        self.warp_id = warp_id
        self.lane = lanes                 # global thread ids of the lanes
        self._tracer = block.executor.tracer

    # --- global memory -----------------------------------------------------
    def gload(self, arr: GlobalArray, index, vector: int = 1,
              site: str = "gmem") -> np.ndarray:
        """Per-lane load of ``vector`` consecutive elements each."""
        idx = np.asarray(index, dtype=np.int64)
        addrs = arr.addresses(idx, vector, site)
        self._tracer.gmem_read(addrs, arr.elem * vector, count=1.0, site=site)
        gathered = arr.data[idx[:, np.newaxis] + np.arange(vector)]
        return gathered[:, 0] if vector == 1 else gathered

    def gstore(self, arr: GlobalArray, index, values, vector: int = 1,
               site: str = "gmem") -> None:
        idx = np.asarray(index, dtype=np.int64)
        addrs = arr.addresses(idx, vector, site)
        self._tracer.gmem_write(addrs, arr.elem * vector, count=1.0, site=site)
        vals = np.asarray(values, dtype=np.float32)
        if vector == 1:
            arr.data[idx] = vals.reshape(-1)
        else:
            arr.data[idx[:, np.newaxis] + np.arange(vector)] = \
                vals.reshape(-1, vector)

    # --- shared memory -------------------------------------------------------
    def sload(self, arr: SharedArray, index, vector: int = 1,
              site: str = "smem") -> np.ndarray:
        idx = np.asarray(index, dtype=np.int64)
        addrs = arr.addresses(idx, vector, site)
        self._tracer.smem_read(addrs, arr.elem * vector, count=1.0, site=site)
        gathered = arr.data[idx[:, np.newaxis] + np.arange(vector)]
        return gathered[:, 0] if vector == 1 else gathered

    def sstore(self, arr: SharedArray, index, values, vector: int = 1,
               site: str = "smem") -> None:
        idx = np.asarray(index, dtype=np.int64)
        addrs = arr.addresses(idx, vector, site)
        self._tracer.smem_write(addrs, arr.elem * vector, count=1.0, site=site)
        vals = np.asarray(values, dtype=np.float32)
        if vector == 1:
            arr.data[idx] = vals.reshape(-1)
        else:
            arr.data[idx[:, np.newaxis] + np.arange(vector)] = \
                vals.reshape(-1, vector)

    # --- constant memory -----------------------------------------------------
    def cload(self, arr: ConstantArray, index, site: str = "cmem") -> np.ndarray:
        idx = np.asarray(index, dtype=np.int64)
        if idx.ndim == 0:
            idx = np.full(self.lane.size, int(idx), dtype=np.int64)
        addrs = arr.addresses(idx, 1, site)
        self._tracer.cmem_read(addrs, count=1.0, site=site)
        return arr.data[idx]

    # --- arithmetic ------------------------------------------------------------
    def fma(self, acc: np.ndarray, a, b) -> np.ndarray:
        """Per-lane fused multiply-add; counts 2 flops per result value."""
        out = np.asarray(acc, dtype=np.float32) + (
            np.asarray(a, dtype=np.float32) * np.asarray(b, dtype=np.float32)
        )
        self._tracer.flops(2.0 * np.asarray(out).size)
        return out


class Block:
    """One thread block: warps, shared memory, and the barrier."""

    def __init__(self, executor: "DeviceExecutor", block_idx: Tuple[int, int],
                 threads: int):
        if threads < 1:
            raise TraceError("a block needs at least one thread")
        self.executor = executor
        self.block_idx = block_idx
        self.threads = threads
        self._shared: List[SharedArray] = []

    def shared(self, size_floats: int, name: str = "smem") -> SharedArray:
        arr = SharedArray(size_floats, name)
        self._shared.append(arr)
        return arr

    def warps(self) -> Iterator[Warp]:
        warp_size = self.executor.arch.warp_size
        for w in range(warp_count(self.threads, warp_size)):
            yield Warp(self, w, lane_ids(w, self.threads, warp_size))

    def sync(self) -> None:
        """__syncthreads(): warp-synchronous execution makes this a
        pure cost event."""
        self.executor.tracer.sync(1.0)

    @property
    def smem_bytes(self) -> int:
        return sum(a.data.size * 4 for a in self._shared)


class DeviceExecutor:
    """Allocates simulated memory and runs block programs under trace."""

    def __init__(
        self,
        arch: GPUArchitecture = KEPLER_K40M,
        bank_policy: BankConflictPolicy = BankConflictPolicy.WORD_MERGE,
    ):
        self.arch = arch
        self.tracer = KernelTracer(arch, bank_policy)
        self._next_base = _GLOBAL_ALIGN
        self._max_smem = 0
        self._blocks_run = 0
        self._threads_per_block: Optional[int] = None

    # --- memory ------------------------------------------------------------
    def alloc_global(self, data: np.ndarray, name: str = "garr") -> GlobalArray:
        arr = GlobalArray(np.asarray(data), self._next_base, name)
        span = arr.data.size * arr.elem
        self._next_base += (span + _GLOBAL_ALIGN - 1) // _GLOBAL_ALIGN * _GLOBAL_ALIGN
        return arr

    def alloc_constant(self, data: np.ndarray, name: str = "carr") -> ConstantArray:
        arr = ConstantArray(np.asarray(data), 0, name)
        if arr.data.size * arr.elem > self.arch.const_memory_size:
            raise TraceError("constant allocation exceeds constant memory")
        return arr

    # --- execution -----------------------------------------------------------
    def run_block(self, body: Callable, block_idx: Tuple[int, int],
                  threads: int, *args) -> Block:
        """Execute one block program; its accesses accumulate in the ledger."""
        block = Block(self, block_idx, threads)
        body(block, *args)
        self._blocks_run += 1
        self._max_smem = max(self._max_smem, block.smem_bytes)
        if self._threads_per_block is None:
            self._threads_per_block = threads
        elif self._threads_per_block != threads:
            raise TraceError("all blocks of one launch must have equal size")
        return block

    def finish(self, name: str, registers_per_thread: int = 32,
               grid: Optional[Dim3] = None,
               software_prefetch: bool = False,
               block: Optional[Dim3] = None) -> KernelCost:
        """Package the executed trace as a KernelCost.  ``grid`` and
        ``block`` lay out the blocks run and their threads (default:
        one row of each)."""
        if self._blocks_run == 0 or self._threads_per_block is None:
            raise TraceError("no blocks were executed")
        launch = LaunchConfig(
            grid=grid or Dim3(x=self._blocks_run),
            block=block or Dim3(x=self._threads_per_block),
            registers_per_thread=registers_per_thread,
            smem_per_block=self._max_smem,
        )
        return self.tracer.finish(name=name, launch=launch,
                                  software_prefetch=software_prefetch)
