"""Shared-memory bank model.

This module implements the shared-memory access model of Sec. 2.1 of the
paper.  Shared memory is organized as ``bank_count`` banks, each
``bank_width`` bytes wide (8 bytes on Kepler, 4 bytes on Fermi/Maxwell);
successive ``bank_width``-byte words map to successive banks.  A warp's
access request is served in one or more cycles depending on how the
lanes' addresses distribute over the banks.

Two serialization policies are provided:

``PAPER``
    The model used by the paper (Fig. 1): *any two accesses that fall
    into the same bank have to be serialized* unless they target the
    identical address (the broadcast case).  Under this policy a warp of
    32 lanes reading consecutive ``float`` values on Kepler (n = 2)
    needs two cycles per 16 banks' worth of data — half the bandwidth of
    the matched ``float2`` pattern.

``WORD_MERGE``
    A more charitable model of the hardware in which accesses that fall
    into the same *bank word* are merged and the word is multicast.
    Under this policy the unmatched pattern completes in one cycle but
    only moves half the bytes a matched access would, so the *bandwidth
    utilization* still halves.  Either way the paper's conclusion — a
    bandwidth-bound kernel loses a factor ``n`` — is unchanged; the
    ablation benchmark ``bench_ablation_bank_policy`` quantifies this.

Wide accesses (``float2``/``float4``) are decomposed into
``ceil(size / bank_width)`` phases of one bank word each, mirroring how
the hardware splits 64-/128-bit warp requests into multiple transactions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.gpu.arch import GPUArchitecture

__all__ = ["BankConflictPolicy", "SmemAccessResult", "SharedMemoryModel"]

_VALID_ACCESS_SIZES = (1, 2, 4, 8, 16)


class BankConflictPolicy(enum.Enum):
    """How same-bank accesses from different lanes are serialized."""

    PAPER = "paper"
    WORD_MERGE = "word-merge"


@dataclass(frozen=True)
class SmemAccessResult:
    """Outcome of one warp-level shared-memory request."""

    lanes: int                  # active lanes in the request
    access_size: int            # bytes requested per lane
    request_bytes: int          # lanes * access_size
    unique_bytes: int           # distinct bytes touched by the warp
    cycles: int                 # serialized cycles to satisfy the request
    conflict_degree: int        # max per-bank serialization in any phase
    phases: int                 # sub-requests for wide accesses
    bank_count: int
    bank_width: int

    @property
    def conflict_free(self) -> bool:
        """True when no bank serves two separate requests in any phase."""
        return self.conflict_degree == 1

    @property
    def bandwidth_utilization(self) -> float:
        """Fraction of the peak bank bandwidth this request used.

        Peak delivery is ``bank_count * bank_width`` bytes per cycle;
        anything below 1.0 is either conflict serialization or partial
        word use (the unmatched pattern of Fig. 1a).
        """
        peak = self.cycles * self.bank_count * self.bank_width
        return self.unique_bytes / peak if peak else 0.0


class SharedMemoryModel:
    """Bank-conflict simulator for one architecture's shared memory."""

    def __init__(
        self,
        arch: GPUArchitecture,
        policy: BankConflictPolicy = BankConflictPolicy.PAPER,
    ):
        self.arch = arch
        self.policy = policy
        self.bank_count = arch.smem_bank_count
        self.bank_width = arch.smem_bank_width

    # ------------------------------------------------------------------
    def access(self, addresses, size: int) -> SmemAccessResult:
        """Simulate one warp request.

        Parameters
        ----------
        addresses:
            Byte address accessed by each active lane (length <= warp
            size).  Addresses must be aligned to ``size``, as CUDA
            requires.
        size:
            Bytes accessed per lane (the ``W_CD`` of the paper's model,
            or ``n * W_CD`` for vectorized accesses).
        """
        addrs = np.asarray(addresses, dtype=np.int64)
        if addrs.ndim != 1 or addrs.size == 0:
            raise TraceError("addresses must be a non-empty 1-D sequence")
        if addrs.size > self.arch.warp_size:
            raise TraceError(
                "a warp request has at most %d lanes, got %d"
                % (self.arch.warp_size, addrs.size)
            )
        if size not in _VALID_ACCESS_SIZES:
            raise TraceError("access size must be one of %s" % (_VALID_ACCESS_SIZES,))
        # At most a warp's worth of lanes: Python sets beat numpy here.
        lanes = addrs.tolist()
        if min(lanes) < 0:
            raise TraceError("negative shared-memory address")
        if any(a % size for a in lanes):
            raise TraceError("shared-memory accesses must be %d-byte aligned" % size)

        # Wide accesses are split into sub-requests of lane *groups*, as
        # the hardware does: each transaction can deliver at most one
        # full bank row (bank_count * bank_width bytes), so a warp of
        # float4 accesses on Kepler is served as two half-warp
        # transactions, each covering all 32 banks conflict-free.
        width = self.bank_width
        row_bytes = self.bank_count * width
        lanes_per_group = max(1, row_bytes // size)
        word_offsets = range(0, max(1, math.ceil(size / width)) * width, width)
        phases = math.ceil(len(lanes) / lanes_per_group)

        total_cycles = 0
        worst_degree = 1
        for start in range(0, len(lanes), lanes_per_group):
            # Expand each lane access into its bank words.
            chunks = {a + off for a in lanes[start : start + lanes_per_group]
                      for off in word_offsets}
            if self.policy is BankConflictPolicy.PAPER:
                # Distinct addresses hitting the same bank serialize;
                # identical addresses broadcast.
                banks = [c // width % self.bank_count for c in chunks]
            else:
                # Accesses within one bank word merge (word multicast).
                words = {c // width for c in chunks}
                banks = [w % self.bank_count for w in words]
            # Under either policy a key (the address, or its word) fixes
            # its bank, so a bank serializes once per distinct key in it.
            per_bank: dict = {}
            for bank in banks:
                per_bank[bank] = per_bank.get(bank, 0) + 1
            degree = max(per_bank.values())
            worst_degree = max(worst_degree, degree)
            total_cycles += degree

        # Addresses are size-aligned, so two lane accesses either
        # coincide or are disjoint: distinct addresses count the bytes.
        return SmemAccessResult(
            lanes=len(lanes),
            access_size=size,
            request_bytes=len(lanes) * size,
            unique_bytes=len(set(lanes)) * size,
            cycles=total_cycles,
            conflict_degree=worst_degree,
            phases=phases,
            bank_count=self.bank_count,
            bank_width=self.bank_width,
        )

    # Convenience aliases: loads and stores obey the same bank rules.
    read = access
    write = access

