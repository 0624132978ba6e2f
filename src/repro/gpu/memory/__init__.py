"""Memory-hierarchy models: shared-memory banks, global-memory
coalescing and constant-memory broadcast.  Register accounting is the
occupancy rule's (:mod:`repro.gpu.occupancy`)."""

from repro.gpu.memory.banks import (
    BankConflictPolicy,
    SharedMemoryModel,
    SmemAccessResult,
)
from repro.gpu.memory.globalmem import GlobalMemoryModel, GmemAccessResult
from repro.gpu.memory.constmem import ConstantMemoryModel, CmemAccessResult

__all__ = [
    "BankConflictPolicy",
    "SharedMemoryModel",
    "SmemAccessResult",
    "GlobalMemoryModel",
    "GmemAccessResult",
    "ConstantMemoryModel",
    "CmemAccessResult",
]
