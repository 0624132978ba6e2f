"""Traffic ledger and kernel tracer.

A :class:`KernelTracer` is the simulated analogue of running a kernel
under ``nvprof``: a kernel's cost model replays the *actual byte
addresses* of each of its memory-access sites through the bank /
coalescing / broadcast models and records the resulting transaction and
cycle counts, scaled by how many times the site executes.  The result is
a :class:`KernelCost`, which the timing model converts into seconds.

The scaling is exact rather than sampled: every kernel in this package
uses access patterns whose bank- and segment-structure is identical
across repetitions (all strides and bases are multiples of the relevant
alignment), so one representative warp request per site fully
characterizes the traffic.  A site whose requests differ (one per
vector unit of a register row, or one per distinct base alignment of a
filter run) is a multi-row :class:`PreparedBatch`: each row is one
distinct request, folded with its multiplicity times the site's count.
:func:`lane_batch` and :func:`prepare_rows` keep the rows in order and
unmerged; :func:`prepare_batch` merges equal canonical rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Dict, Optional

import numpy as np

from repro.errors import TraceError
from repro.gpu.arch import GPUArchitecture
from repro.gpu.memory.banks import BankConflictPolicy, SharedMemoryModel
from repro.gpu.memory.constmem import ConstantMemoryModel
from repro.gpu.memory.globalmem import GlobalMemoryModel
from repro.gpu.simt import LaunchConfig
from repro.obs import metrics as _metrics

__all__ = [
    "SiteStats",
    "TrafficLedger",
    "KernelCost",
    "KernelTracer",
    "PreparedBatch",
    "prepare_batch",
    "prepare_rows",
    "lane_batch",
    "gmem_floor",
    "cross_block_reuse",
    "publish_kernel_cost",
    "access_cache_stats",
    "clear_access_caches",
]


# ----------------------------------------------------------------------
# Canonical-pattern memoization of memory-model results
# ----------------------------------------------------------------------
#
# Every model outcome is invariant under translating a warp's addresses
# by a multiple of the structure period: the bank row (bank_count *
# bank_width bytes) for shared memory, lcm(access size, sector) for
# global memory, and any constant for the broadcast model.  Shifting a
# pattern down to its canonical window therefore collapses the millions
# of distinct absolute address vectors a sweep replays into a few dozen
# canonical ones, whose results are memoized process-wide per
# (architecture parameters, policy).  Results are frozen dataclasses, so
# sharing them is safe; invalid requests (negative addresses,
# misalignment, too many lanes) bypass the cache and raise exactly as
# before.

_ACCESS_CACHE_CAP = 1 << 16

_model_caches: Dict[tuple, dict] = {}
_access_cache_hits = 0
_access_cache_misses = 0

# The memory models hold no state beyond their architecture, so the
# tracers of one (architecture, bank policy) share them along with
# their access caches.  The entry holds the architecture itself, which
# keeps its ``id`` from being reused while the entry lives.
_tracer_models: Dict[tuple, tuple] = {}

# "site[kind]" ledger keys by (site, kind); site names are literals in
# the kernels, so this stays a few dozen entries.
_site_keys: Dict[tuple, str] = {}


def _cache_for(key: tuple) -> dict:
    return _model_caches.setdefault(key, {})


def clear_access_caches() -> None:
    """Drop every memoized memory-model result and the tracers' shared
    memory models (mainly for tests)."""
    _model_caches.clear()
    _tracer_models.clear()


def access_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of the canonical-pattern access cache."""
    return {
        "hits": _access_cache_hits,
        "misses": _access_cache_misses,
        "entries": sum(len(c) for c in _model_caches.values()),
    }


def cross_block_reuse(arch: "GPUArchitecture", slab_bytes: float,
                      sharing_blocks: float, cap: float = 16.0) -> float:
    """L2 reuse factor for a read-only slab shared by many blocks.

    When ``sharing_blocks`` thread blocks stream the same ``slab_bytes``
    (e.g. every output-tile block re-reads the full filter set), the L2
    serves all but the first pass as long as the slab fits; the credit
    is capped because only a bounded number of sharing blocks are
    co-resident at any time.
    """
    if slab_bytes <= 0:
        return 1.0
    return max(1.0, min(float(sharing_blocks), arch.l2_size / slab_bytes, cap))


class PreparedBatch:
    """A canonicalized, deduplicated warp-request batch.

    ``rows`` are the distinct canonical address patterns, ``keys`` their
    serialized cache keys, ``mults`` their integer row multiplicities.
    A prepared batch captures only a batch's *geometry* — callers that
    replay the same address structure under many different execution
    counts (a config sweep, the general fast simulator) build it once,
    cache it, and fold it repeatedly through the ``*_prepared`` tracer
    methods with a per-use uniform scale.
    """

    __slots__ = ("rows", "keys", "mults", "_distinct")

    def __init__(self, rows, keys, mults):
        self.rows = rows
        self.keys = keys
        self.mults = mults
        self._distinct = None

    @property
    def distinct(self) -> list:
        """Each row's number of distinct lane addresses, counted on first
        use and kept with the batch (:func:`gmem_floor` reads it)."""
        if self._distinct is None:
            self._distinct = [len(set(row.tolist())) for row in self.rows]
        return self._distinct


def prepare_batch(matrix, mod: int, counts=None) -> PreparedBatch:
    """Canonicalize and deduplicate a ``(warps, lanes)`` address matrix.

    ``mod`` is the structure period the patterns are invariant under
    (:meth:`KernelTracer.smem_batch_mod`, or
    :meth:`KernelTracer.gmem_batch_mod` for global memory).  Each row
    is one warp request; equal canonical rows merge into one, with
    multiplicity the number of rows or, given per-row ``counts``, the
    sum of their counts.  Raises :class:`TraceError` on malformed input,
    a negative count or a negative address.
    """
    m = np.ascontiguousarray(np.asarray(matrix, dtype=np.int64))
    if m.ndim == 1:
        m = m[np.newaxis, :]
    if m.ndim != 2 or m.size == 0:
        raise TraceError("batch address matrix must be (warps, lanes)")
    if counts is None:
        weights = None
    else:
        weights = np.asarray(counts, dtype=np.float64)
        if weights.shape != (m.shape[0],):
            raise TraceError(
                "counts must have one entry per warp request row")
        if weights.min() < 0:
            raise TraceError("count cannot be negative")
        weights = weights.tolist()
    lo = m.min(axis=1)
    if lo.min() < 0:
        raise TraceError("negative address in batch request")
    canon = m - ((lo // mod) * mod)[:, np.newaxis]
    # Row dedup via a dict of raw row bytes: np.unique(axis=0)'s
    # void-view machinery costs more than the model calls it saves on
    # typical batch sizes.  Insertion order keeps the fold
    # deterministic; integer-valued weights keep it exact.  The raw row
    # bytes double as the cache key downstream, so each pattern is
    # canonicalized and serialized exactly once: one ``tobytes`` of the
    # matrix, sliced per row.
    groups: Dict[bytes, float] = {}
    rows: Dict[bytes, np.ndarray] = {}
    buf = canon.tobytes()
    width = len(buf) // len(canon)
    for i in range(len(canon)):
        key = buf[i * width:(i + 1) * width]
        weight = 1.0 if weights is None else weights[i]
        if key in groups:
            groups[key] += weight
        else:
            groups[key] = weight
            rows[key] = canon[i]
    return PreparedBatch(
        [rows[key] for key in groups], list(groups),
        [float(groups[key]) for key in groups],
    )


def prepare_rows(rows, mults, mod: int) -> PreparedBatch:
    """Canonicalize an ordered list of warp requests without merging any.

    Each of ``rows`` is one warp request's byte addresses (rows may
    have different lane counts) and ``mults`` its multiplicity.  Unlike
    :func:`prepare_batch`, equal patterns stay separate rows in their
    given order, so a ``*_prepared`` fold performs exactly the model
    lookups and float accumulations of issuing each row on its own with
    ``count = mult * scale``.  Sites whose per-row terms are not
    integers (a global read divided by its ``l2_reuse``) need that to
    keep their sums.  Raises :class:`TraceError` on an empty row, a
    negative address or a negative multiplicity.
    """
    rows, mults = list(rows), list(mults)
    if len(rows) != len(mults):
        raise TraceError("prepare_rows needs one multiplicity per row")
    canon, keys, weights = [], [], []
    for row, mult in zip(rows, mults):
        addrs = np.asarray(row, dtype=np.int64)
        if addrs.ndim != 1 or addrs.size == 0:
            raise TraceError("each prepared row must be one warp request")
        lo = int(addrs.min())
        if lo < 0:
            raise TraceError("negative address in batch request")
        if mult < 0:
            raise TraceError("count cannot be negative")
        shift = (lo // mod) * mod
        addrs = addrs - shift if shift else addrs
        canon.append(addrs)
        keys.append(addrs.tobytes())
        weights.append(float(mult))
    return PreparedBatch(canon, keys, weights)


@functools.lru_cache(maxsize=4096)
def lane_batch(lanes: int, step: int, mod: int, base: int = 0,
               run: Optional[int] = None, pitch: int = 0, rows: int = 1,
               row_step: int = 0) -> PreparedBatch:
    """The cached warp requests of one strided access site.

    Row ``r`` is one request in which lane ``l`` (of ``lanes``) accesses
    byte ``base + r * row_step + (l % run) * step + (l // run) * pitch``:
    runs of ``run`` lanes (default: all of them) advance by ``step``,
    and successive runs start ``pitch`` bytes apart.  The rows are
    canonicalized with period ``mod`` and kept in order, unmerged, each
    with multiplicity 1 (:func:`prepare_rows`), so folding the batch
    with ``scale=count`` performs exactly the model lookups and float
    accumulations of issuing every row on its own ``count`` times.  The
    batch is shared through the cache: never mutate it.
    """
    lane = np.arange(lanes, dtype=np.int64)
    if run is None:
        pattern = lane * step
    else:
        pattern = (lane % run) * step + (lane // run) * pitch
    return prepare_rows(
        [pattern + (base + r * row_step) for r in range(rows)],
        [1.0] * rows, mod)


def gmem_floor(ledger: "TrafficLedger", sites) -> None:
    """Add to ``ledger`` the global-memory bytes that folding ``sites``
    (:meth:`KernelTracer.gmem_sites`) cannot go below.

    Row by row, in the fold's order and with its multiplicity ``mult *
    scale``, each row adds its distinct bytes (its
    :attr:`PreparedBatch.distinct` lanes times ``size``: the memory
    model's ``unique_bytes``) where the fold adds the bytes it moves: to
    ``gmem_l2_bytes``, and divided by ``l2_reuse`` to the direction's
    DRAM bytes.  A request moves at least the distinct bytes its lanes
    touch, and IEEE products, quotients and sums are monotone, so every
    field stays at or below the fold's, also when a kernel's fold has
    sites this one leaves out.  No memory model is consulted.
    """
    l2 = ledger.gmem_l2_bytes
    read = ledger.gmem_read_bytes_moved
    written = ledger.gmem_write_bytes_moved
    for _, prep, size, scale, write, l2_reuse in sites:
        dram = written if write else read
        for distinct, m in zip(prep.distinct, prep.mults):
            mult = m * scale
            if not mult:
                continue
            row = distinct * size * mult
            l2 += row
            dram += row / l2_reuse
        if write:
            written = dram
        else:
            read = dram
    ledger.gmem_l2_bytes = l2
    ledger.gmem_read_bytes_moved = read
    ledger.gmem_write_bytes_moved = written


@dataclass
class SiteStats:
    """Aggregated statistics for one named memory-access site."""

    kind: str                   # 'smem.read', 'gmem.write', 'cmem.read', ...
    executions: float = 0.0     # warp-level requests issued
    cycles: float = 0.0         # smem/cmem serialized cycles
    transactions: float = 0.0   # gmem segments moved
    request_bytes: float = 0.0
    unique_bytes: float = 0.0

    def merge_from(self, other: "SiteStats") -> None:
        if other.kind != self.kind:
            raise TraceError("cannot merge site stats of different kinds")
        for name in _SITE_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))


#: Every field of a :class:`SiteStats`, in declaration order, and its
#: counters (all but ``kind``): each one adds and scales on its own.
_SITE_FIELDS = tuple(f.name for f in fields(SiteStats))
_SITE_COUNTERS = _SITE_FIELDS[1:]


@dataclass
class TrafficLedger:
    """Whole-kernel traffic counters (the profiler's summary page)."""

    flops: float = 0.0

    gmem_read_transactions: float = 0.0
    gmem_read_request_bytes: float = 0.0
    gmem_read_bytes_moved: float = 0.0
    gmem_write_transactions: float = 0.0
    gmem_write_request_bytes: float = 0.0
    gmem_write_bytes_moved: float = 0.0
    gmem_segment_size: int = 128

    gmem_l2_bytes: float = 0.0

    smem_requests: float = 0.0
    smem_cycles: float = 0.0
    smem_min_cycles: float = 0.0   # phase count: the conflict-free floor
    smem_request_bytes: float = 0.0

    cmem_requests: float = 0.0
    cmem_cycles: float = 0.0

    syncthreads: float = 0.0

    sites: Dict[str, SiteStats] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def gmem_bytes_moved(self) -> float:
        return self.gmem_read_bytes_moved + self.gmem_write_bytes_moved

    @property
    def gmem_read_efficiency(self) -> float:
        moved = self.gmem_read_bytes_moved
        return self.gmem_read_request_bytes / moved if moved else 1.0

    @property
    def smem_conflict_overhead(self) -> float:
        """Serialized cycles over the conflict-free floor (1.0 = clean).

        The floor counts the phases a wide access needs even without
        conflicts (a float4 warp access on 8-byte banks takes two clean
        cycles), so this ratio isolates genuine bank conflicts.
        """
        if not self.smem_min_cycles:
            return 1.0
        return self.smem_cycles / self.smem_min_cycles

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per DRAM byte actually moved."""
        moved = self.gmem_bytes_moved
        return self.flops / moved if moved else float("inf")

    def scale(self, factor: float) -> None:
        """Multiply every counter (e.g. to batch identical launches)."""
        if factor < 0:
            raise TraceError("scale factor cannot be negative")
        for name in _LEDGER_COUNTERS:
            setattr(self, name, getattr(self, name) * factor)
        for stats in self.sites.values():
            for name in _SITE_COUNTERS:
                setattr(stats, name, getattr(stats, name) * factor)

    def merge(self, other: "TrafficLedger") -> None:
        """Accumulate another ledger (e.g. a second kernel launch) into this one."""
        if other.gmem_segment_size != self.gmem_segment_size:
            raise TraceError("cannot merge ledgers with different segment sizes")
        for name in _LEDGER_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name, stats in other.sites.items():
            if name in self.sites:
                self.sites[name].merge_from(stats)
            else:
                self.sites[name] = SiteStats(**vars(stats))


#: Every scalar field of a :class:`TrafficLedger`, in declaration order,
#: and its counters (all but the segment size): each one adds and
#: scales on its own.
_LEDGER_FIELDS = tuple(f.name for f in fields(TrafficLedger)
                       if f.name != "sites")
_LEDGER_COUNTERS = tuple(name for name in _LEDGER_FIELDS
                         if name != "gmem_segment_size")


@dataclass
class KernelCost:
    """Everything the timing model needs about one kernel launch."""

    name: str
    launch: LaunchConfig
    ledger: TrafficLedger
    software_prefetch: bool = False
    launches: int = 1

    @property
    def flops(self) -> float:
        return self.ledger.flops


def _kernel_cost_counters(reg) -> tuple:
    """The counters :func:`publish_kernel_cost` writes, in creation order."""
    return (
        reg.counter(
            "gpu_gmem_transactions_total",
            "Modeled global-memory transactions, by kernel and direction",
            labelnames=("kernel", "op")),
        reg.counter(
            "gpu_gmem_bytes_moved_total",
            "Modeled DRAM bytes moved, by kernel and direction",
            labelnames=("kernel", "op")),
        reg.counter(
            "gpu_smem_cycles_total",
            "Modeled shared-memory serialized cycles, by kernel",
            labelnames=("kernel",)),
        reg.counter(
            "gpu_smem_bank_conflict_cycles_total",
            "Shared-memory cycles beyond the conflict-free floor, by kernel",
            labelnames=("kernel",)),
        reg.counter(
            "gpu_cmem_cycles_total",
            "Modeled constant-memory serialization cycles, by kernel",
            labelnames=("kernel",)),
        reg.counter(
            "gpu_flops_total", "Modeled floating-point operations, by kernel",
            labelnames=("kernel",)),
        reg.counter(
            "gpu_kernel_costs_total", "Kernel costs traced, by kernel",
            labelnames=("kernel",)),
        reg.counter(
            "gpu_site_executions_total",
            "Warp-level requests issued, by kernel and access site",
            labelnames=("kernel", "site")),
        reg.counter(
            "gpu_site_transactions_total",
            "Global-memory segments moved, by kernel and access site",
            labelnames=("kernel", "site")),
        reg.counter(
            "gpu_site_cycles_total",
            "Serialized smem/cmem cycles, by kernel and access site",
            labelnames=("kernel", "site")),
    )


def publish_kernel_cost(cost: KernelCost, registry=None) -> None:
    """Publish a finished kernel cost's ledger to a metrics registry.

    Every number the paper's argument rests on — global-memory
    transactions, shared-memory serialized cycles over the conflict-free
    floor (i.e. genuine bank conflicts), constant-memory broadcasts —
    becomes a labeled counter series keyed by kernel name, plus
    per-site breakdowns.  ``registry=None`` publishes to the
    process-wide registry (:func:`repro.obs.metrics.get_registry`).
    Counter values are exactly the ledger's return values, so the
    telemetry surface and the cost model can never disagree.  The
    counters are resolved once per registry (:meth:`Registry.handles`).
    Pricing never calls it; ``TimingModel.publish`` does.
    """
    reg = registry if registry is not None else _metrics.get_registry()
    (gmem_tx, gmem_bytes, smem_cycles, conflict_cycles, cmem_cycles, flops,
     costs, site_exec, site_tx, site_cycles) = reg.handles(
         _kernel_cost_counters)
    led = cost.ledger
    k = cost.name
    gmem_tx.inc_key((k, "read"), led.gmem_read_transactions)
    gmem_tx.inc_key((k, "write"), led.gmem_write_transactions)
    gmem_bytes.inc_key((k, "read"), led.gmem_read_bytes_moved)
    gmem_bytes.inc_key((k, "write"), led.gmem_write_bytes_moved)
    smem_cycles.inc_key((k,), led.smem_cycles)
    conflict_cycles.inc_key(
        (k,), max(0.0, led.smem_cycles - led.smem_min_cycles))
    cmem_cycles.inc_key((k,), led.cmem_cycles)
    flops.inc_key((k,), led.flops)
    costs.inc_key((k,))
    for site, stats in led.sites.items():
        site_exec.inc_key((k, site), stats.executions)
        if stats.transactions:
            site_tx.inc_key((k, site), stats.transactions)
        if stats.cycles:
            site_cycles.inc_key((k, site), stats.cycles)


class KernelTracer:
    """Builds a :class:`KernelCost` from per-site warp address patterns.

    Each ``*_read``/``*_write`` call replays one representative warp
    request through the corresponding memory model and accumulates the
    outcome ``count`` times into the ledger.  ``count`` is typically
    ``warps_per_block * iterations * total_blocks``.
    """

    def __init__(
        self,
        arch: GPUArchitecture,
        bank_policy: BankConflictPolicy = BankConflictPolicy.WORD_MERGE,
    ):
        # WORD_MERGE is the hardware's behaviour and the default for
        # end-to-end timing; the paper's stricter serialization model is
        # available for the bank-policy ablation (see core.bankwidth).
        self.arch = arch
        shared = _tracer_models.get((id(arch), bank_policy))
        if shared is None:
            shared = _tracer_models[id(arch), bank_policy] = (
                arch,
                SharedMemoryModel(arch, bank_policy),
                GlobalMemoryModel(arch),
                ConstantMemoryModel(arch),
                _cache_for(("smem", arch.warp_size, arch.smem_bank_count,
                            arch.smem_bank_width, bank_policy)),
                _cache_for(("gmem", arch.warp_size)),
                _cache_for(("cmem", arch.warp_size)),
            )
        (_, self.smem, self.gmem, self.cmem,
         self._smem_cache, self._gmem_cache, self._cmem_cache) = shared
        self.ledger = TrafficLedger(gmem_segment_size=arch.gmem_transaction_size)
        self._smem_row_bytes = arch.smem_bank_count * arch.smem_bank_width

    # --- canonical cached model access -------------------------------------
    def _lookup(self, cache, model_access, canon, args, rowbytes):
        """Cache lookup for an already-canonicalized pattern."""
        global _access_cache_hits, _access_cache_misses
        key = (args, rowbytes)
        res = cache.get(key)
        if res is None:
            _access_cache_misses += 1
            res = model_access(canon, *args)
            if len(cache) < _ACCESS_CACHE_CAP:
                cache[key] = res
        else:
            _access_cache_hits += 1
        return res

    @staticmethod
    def _request(addresses, mod, model_access, args):
        """One warp request's canonical row and its cache key.

        Malformed or negative addresses (and a zero ``mod``, which a
        non-positive global access size gives) go to the model, which
        raises its own error for them.
        """
        addrs = np.asarray(addresses, dtype=np.int64)
        lo = int(addrs.min()) if addrs.ndim == 1 and addrs.size else -1
        if lo < 0 or not mod:
            model_access(addrs, *args)
        shift = (lo // mod) * mod
        canon = addrs - shift if shift else addrs
        return canon, canon.tobytes()

    def _empty_site(self, cache, model_access, canon, args, rowbytes, site,
                    kind):
        """A zero-count request: priced and named, nothing folded."""
        res = self._lookup(cache, model_access, canon, args, rowbytes)
        self._site(site, kind)
        return res

    # --- shared memory ----------------------------------------------------
    def smem_read(self, addresses, size: int, count: float = 1.0, site: str = "smem"):
        return self._smem(addresses, size, count, site, "smem.read")

    def smem_write(self, addresses, size: int, count: float = 1.0, site: str = "smem"):
        return self._smem(addresses, size, count, site, "smem.write")

    def _smem(self, addresses, size, count, site, kind):
        if count < 0:
            raise TraceError("count cannot be negative")
        access, args = self.smem.access, (size,)
        canon, key = self._request(addresses, self._smem_row_bytes, access,
                                   args)
        if not count:
            return self._empty_site(self._smem_cache, access, canon, args,
                                    key, site, kind)
        return self._smem_fold((canon,), (key,), (count,), 1.0, size, site,
                               kind)

    # --- global memory ------------------------------------------------------
    #: Global accesses on the modeled devices bypass L1 and are serviced
    #: by the L2 in 32-byte sectors (Kepler caches global loads in L2
    #: only); both loads and stores are priced at sector granularity.
    SECTOR_BYTES = 32

    def gmem_read(self, addresses, size: int, count: float = 1.0,
                  site: str = "gmem", l2_reuse: float = 1.0):
        return self._gmem(addresses, size, count, site, write=False,
                          l2_reuse=l2_reuse)

    def gmem_write(self, addresses, size: int, count: float = 1.0, site: str = "gmem"):
        return self._gmem(addresses, size, count, site, write=True)

    def _gmem(self, addresses, size, count, site, write, l2_reuse=1.0):
        if count < 0:
            raise TraceError("count cannot be negative")
        if l2_reuse < 1.0:
            raise TraceError("l2_reuse must be >= 1")
        sector = self.SECTOR_BYTES
        access, args = self.gmem.access, (size, sector)
        mod = math.lcm(int(size), sector) if size > 0 else 0
        canon, key = self._request(addresses, mod, access, args)
        if not count:
            return self._empty_site(
                self._gmem_cache, access, canon, args, key, site,
                "gmem.write" if write else "gmem.read")
        return self._gmem_fold((canon,), (key,), (count,), 1.0, size, site,
                               write, l2_reuse)

    # --- constant memory -----------------------------------------------------
    def cmem_read(self, addresses, count: float = 1.0, site: str = "cmem"):
        if count < 0:
            raise TraceError("count cannot be negative")
        access = self.cmem.access
        canon, key = self._request(addresses, 1, access, ())
        if not count:
            return self._empty_site(self._cmem_cache, access, canon, (), key,
                                    site, "cmem.read")
        return self._cmem_fold((canon,), (key,), (count,), 1.0, site)

    # --- prepared batches ---------------------------------------------------
    # A whole block's (or launch's) worth of warp requests for one site,
    # as a :class:`PreparedBatch` whose canonicalization and dedup
    # already happened (and was typically cached across kernels sharing
    # the geometry).  Each row executes ``row multiplicity * scale``
    # times, one model lookup per distinct row.  Because per-request
    # model outcomes are integers, folding a :func:`prepare_batch` of
    # integer counts with ``scale=1`` is bit-identical to issuing every
    # row individually — the general fast simulator in
    # :mod:`repro.gpu.fastsim` relies on exactly that.

    def smem_batch_mod(self) -> int:
        """The period to :func:`prepare_batch` shared-memory batches with."""
        return self._smem_row_bytes

    @staticmethod
    def gmem_batch_mod(size: int) -> int:
        """The period to :func:`prepare_batch` global-memory batches with."""
        if size <= 0:
            raise TraceError("access size must be positive")
        return math.lcm(int(size), KernelTracer.SECTOR_BYTES)

    def smem_read_prepared(self, prep: PreparedBatch, size: int,
                           scale: float = 1.0, site: str = "smem") -> None:
        self._smem_prepared(prep, size, scale, site, "smem.read")

    def smem_write_prepared(self, prep: PreparedBatch, size: int,
                            scale: float = 1.0, site: str = "smem") -> None:
        self._smem_prepared(prep, size, scale, site, "smem.write")

    def _smem_prepared(self, prep, size, scale, site, kind):
        if scale < 0:
            raise TraceError("count cannot be negative")
        self._smem_fold(prep.rows, prep.keys, prep.mults, scale, size, site,
                        kind)

    def gmem_read_prepared(self, prep: PreparedBatch, size: int,
                           scale: float = 1.0, site: str = "gmem",
                           l2_reuse: float = 1.0) -> None:
        if l2_reuse < 1.0:
            raise TraceError("l2_reuse must be >= 1")
        self._gmem_prepared(prep, size, scale, site, False, l2_reuse)

    def gmem_write_prepared(self, prep: PreparedBatch, size: int,
                            scale: float = 1.0, site: str = "gmem") -> None:
        self._gmem_prepared(prep, size, scale, site, True, 1.0)

    def gmem_sites(self, sites) -> None:
        """Fold global-memory sites in order, each a ``(site, batch,
        size, scale, write, l2_reuse)`` tuple (:func:`gmem_floor` bounds
        the same tuples)."""
        for site, prep, size, scale, write, l2_reuse in sites:
            if l2_reuse < 1.0:
                raise TraceError("l2_reuse must be >= 1")
            self._gmem_prepared(prep, size, scale, site, write, l2_reuse)

    def _gmem_prepared(self, prep, size, scale, site, write, l2_reuse):
        if size <= 0:
            raise TraceError("access size must be positive")
        if scale < 0:
            raise TraceError("count cannot be negative")
        self._gmem_fold(prep.rows, prep.keys, prep.mults, scale, size, site,
                        write, l2_reuse)

    def cmem_read_prepared(self, prep: PreparedBatch, scale: float = 1.0,
                           site: str = "cmem") -> None:
        if scale < 0:
            raise TraceError("count cannot be negative")
        self._cmem_fold(prep.rows, prep.keys, prep.mults, scale, site)

    # --- the folds -----------------------------------------------------------
    # One loop per memory space folds a site's rows in order.  Row ``i``
    # runs ``mults[i] * scale`` times; a zero row is skipped without a
    # lookup, every other row is one ``_lookup``.  The ledger's and the
    # site's sums are held in locals, loaded on the first non-zero row
    # and written back once (also when a lookup raises), so each field
    # sees exactly the additions of folding the rows one at a time.
    # The site is resolved on the first non-zero row, so an all-zero
    # fold leaves none.  Each returns the last row's model result.

    def _smem_fold(self, rows, keys, mults, scale, size, site, kind):
        lookup, cache = self._lookup, self._smem_cache
        access, args = self.smem.access, (size,)
        res = st = None
        try:
            for canon, rowbytes, m in zip(rows, keys, mults):
                mult = m * scale
                if not mult:
                    continue
                res = lookup(cache, access, canon, args, rowbytes)
                if st is None:
                    led = self.ledger
                    st = self._site(site, kind)
                    requests, cycles = led.smem_requests, led.smem_cycles
                    floor, nbytes = led.smem_min_cycles, led.smem_request_bytes
                    st_exec, st_cycles = st.executions, st.cycles
                    st_bytes, st_unique = st.request_bytes, st.unique_bytes
                row_cycles = res.cycles * mult
                row_bytes = res.request_bytes * mult
                requests += mult
                cycles += row_cycles
                floor += res.phases * mult
                nbytes += row_bytes
                st_exec += mult
                st_cycles += row_cycles
                st_bytes += row_bytes
                st_unique += res.unique_bytes * mult
        finally:
            if st is not None:
                led.smem_requests, led.smem_cycles = requests, cycles
                led.smem_min_cycles, led.smem_request_bytes = floor, nbytes
                st.executions, st.cycles = st_exec, st_cycles
                st.request_bytes, st.unique_bytes = st_bytes, st_unique
        return res

    def _gmem_fold(self, rows, keys, mults, scale, size, site, write,
                   l2_reuse):
        # Every transaction passes through the L2; only 1/l2_reuse of
        # them miss to DRAM (temporal reuse within the cache's reach,
        # declared by the kernel's cost model and audited in tests).
        # Writes pass l2_reuse = 1.0, and x / 1.0 == x exactly.
        lookup, cache = self._lookup, self._gmem_cache
        access, args = self.gmem.access, (size, self.SECTOR_BYTES)
        res = st = None
        try:
            for canon, rowbytes, m in zip(rows, keys, mults):
                mult = m * scale
                if not mult:
                    continue
                res = lookup(cache, access, canon, args, rowbytes)
                if st is None:
                    led = self.ledger
                    kind = "gmem.write" if write else "gmem.read"
                    st = self._site(site, kind)
                    l2 = led.gmem_l2_bytes
                    if write:
                        tx = led.gmem_write_transactions
                        nbytes = led.gmem_write_request_bytes
                        dram = led.gmem_write_bytes_moved
                    else:
                        tx = led.gmem_read_transactions
                        nbytes = led.gmem_read_request_bytes
                        dram = led.gmem_read_bytes_moved
                    st_exec, st_tx = st.executions, st.transactions
                    st_bytes, st_unique = st.request_bytes, st.unique_bytes
                row_moved = res.bytes_moved * mult
                row_tx = res.transactions * mult
                row_bytes = res.request_bytes * mult
                l2 += row_moved
                tx += row_tx
                nbytes += row_bytes
                dram += row_moved / l2_reuse
                st_exec += mult
                st_tx += row_tx
                st_bytes += row_bytes
                st_unique += res.unique_bytes * mult
        finally:
            if st is not None:
                led.gmem_l2_bytes = l2
                if write:
                    led.gmem_write_transactions = tx
                    led.gmem_write_request_bytes = nbytes
                    led.gmem_write_bytes_moved = dram
                else:
                    led.gmem_read_transactions = tx
                    led.gmem_read_request_bytes = nbytes
                    led.gmem_read_bytes_moved = dram
                st.executions, st.transactions = st_exec, st_tx
                st.request_bytes, st.unique_bytes = st_bytes, st_unique
        return res

    def _cmem_fold(self, rows, keys, mults, scale, site):
        lookup, cache = self._lookup, self._cmem_cache
        access = self.cmem.access
        res = st = None
        try:
            for canon, rowbytes, m in zip(rows, keys, mults):
                mult = m * scale
                if not mult:
                    continue
                res = lookup(cache, access, canon, (), rowbytes)
                if st is None:
                    led = self.ledger
                    st = self._site(site, "cmem.read")
                    requests, cycles = led.cmem_requests, led.cmem_cycles
                    st_exec, st_cycles = st.executions, st.cycles
                row_cycles = res.serializations * mult
                requests += mult
                cycles += row_cycles
                st_exec += mult
                st_cycles += row_cycles
        finally:
            if st is not None:
                led.cmem_requests, led.cmem_cycles = requests, cycles
                st.executions, st.cycles = st_exec, st_cycles
        return res

    # --- compute / control ------------------------------------------------------
    def flops(self, count: float) -> None:
        if count < 0:
            raise TraceError("flop count cannot be negative")
        self.ledger.flops += count

    def sync(self, count: float = 1.0) -> None:
        if count < 0:
            raise TraceError("sync count cannot be negative")
        self.ledger.syncthreads += count

    # --- finalize -------------------------------------------------------------
    def finish(
        self,
        name: str,
        launch: LaunchConfig,
        software_prefetch: bool = False,
    ) -> KernelCost:
        launch.validate(self.arch)
        return KernelCost(
            name=name,
            launch=launch,
            ledger=self.ledger,
            software_prefetch=software_prefetch,
        )

    # ------------------------------------------------------------------
    def _site(self, site: str, kind: str) -> SiteStats:
        key = _site_keys.get((site, kind))
        if key is None:
            key = _site_keys[site, kind] = "%s[%s]" % (site, kind)
        sites = self.ledger.sites
        st = sites.get(key)
        if st is None:
            st = sites[key] = SiteStats(kind=kind)
        return st
