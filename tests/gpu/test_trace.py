"""Tests for the traffic ledger and kernel tracer."""

import dataclasses
import math

import numpy as np
import pytest

from repro.errors import TraceError
from repro.gpu.memory.banks import BankConflictPolicy
from repro.gpu.simt import Dim3, LaunchConfig
from repro.gpu.timing import TimingModel
from repro.gpu.trace import (
    KernelTracer,
    SiteStats,
    TrafficLedger,
    access_cache_stats,
    clear_access_caches,
    cross_block_reuse,
    prepare_batch,
    prepare_rows,
)
from repro.obs.metrics import (
    Registry,
    get_registry,
    reset_registry,
    set_registry,
)


@pytest.fixture
def tracer(kepler):
    return KernelTracer(kepler)


def _launch():
    return LaunchConfig(grid=Dim3(4), block=Dim3(128),
                        registers_per_thread=32, smem_per_block=1024)


class TestAccumulation:
    def test_smem_counts_scale_with_count(self, tracer):
        tracer.smem_read(np.arange(32) * 8, 8, count=10, site="a")
        led = tracer.ledger
        assert led.smem_requests == 10
        assert led.smem_cycles == 10
        assert led.smem_request_bytes == 10 * 32 * 8

    def test_gmem_read_and_write_separate(self, tracer):
        tracer.gmem_read(np.arange(32) * 4, 4, count=2)
        tracer.gmem_write(np.arange(32) * 4, 4, count=3)
        led = tracer.ledger
        assert led.gmem_read_request_bytes == 2 * 128
        assert led.gmem_write_request_bytes == 3 * 128
        # Reads and writes both priced in 32-byte sectors.
        assert led.gmem_read_bytes_moved == 2 * 128
        assert led.gmem_write_bytes_moved == 3 * 128

    def test_l2_reuse_divides_dram_reads_only(self, tracer):
        tracer.gmem_read(np.arange(32) * 4, 4, count=8, l2_reuse=4.0)
        led = tracer.ledger
        assert led.gmem_read_bytes_moved == pytest.approx(8 * 128 / 4)
        assert led.gmem_l2_bytes == pytest.approx(8 * 128)

    def test_cmem_broadcast_counts(self, tracer):
        tracer.cmem_read(np.zeros(32, dtype=np.int64), count=5)
        assert tracer.ledger.cmem_cycles == 5

    def test_flops_and_sync(self, tracer):
        tracer.flops(1000)
        tracer.sync(3)
        assert tracer.ledger.flops == 1000
        assert tracer.ledger.syncthreads == 3

    def test_site_stats_recorded(self, tracer):
        tracer.smem_read(np.arange(32) * 8, 8, count=2, site="load_row")
        key = "load_row[smem.read]"
        assert key in tracer.ledger.sites
        assert tracer.ledger.sites[key].executions == 2

    def test_negative_count_rejected(self, tracer):
        with pytest.raises(TraceError):
            tracer.smem_read(np.arange(4) * 8, 8, count=-1)
        with pytest.raises(TraceError):
            tracer.flops(-5)
        with pytest.raises(TraceError):
            tracer.gmem_read(np.arange(4) * 4, 4, l2_reuse=0.5)

    def test_finish_validates_launch(self, tracer, kepler):
        bad = LaunchConfig(grid=Dim3(1), block=Dim3(2048))
        with pytest.raises(Exception):
            tracer.finish(name="k", launch=bad)

    def test_finish_returns_cost(self, tracer):
        tracer.flops(10)
        cost = tracer.finish(name="k", launch=_launch(), software_prefetch=True)
        assert cost.flops == 10
        assert cost.software_prefetch


class TestLedgerProperties:
    def test_efficiencies_default_to_one(self):
        led = TrafficLedger()
        assert led.gmem_read_efficiency == 1.0
        assert led.smem_conflict_overhead == 1.0

    def test_arithmetic_intensity(self):
        led = TrafficLedger()
        led.flops = 100.0
        led.gmem_read_bytes_moved = 50.0
        assert led.arithmetic_intensity == pytest.approx(2.0)

    def test_merge_is_additive(self, kepler):
        t1, t2 = KernelTracer(kepler), KernelTracer(kepler)
        for t, n in ((t1, 2), (t2, 3)):
            t.flops(n * 10)
            t.smem_read(np.arange(32) * 8, 8, count=n, site="x")
            t.gmem_read(np.arange(32) * 4, 4, count=n, site="y")
        t1.ledger.merge(t2.ledger)
        assert t1.ledger.flops == 50
        assert t1.ledger.smem_requests == 5
        assert t1.ledger.sites["x[smem.read]"].executions == 5

    def test_merge_mismatched_segment_size_rejected(self):
        a = TrafficLedger(gmem_segment_size=128)
        b = TrafficLedger(gmem_segment_size=64)
        with pytest.raises(TraceError):
            a.merge(b)

    def test_site_merge_kind_mismatch_rejected(self):
        a = SiteStats(kind="smem.read")
        b = SiteStats(kind="gmem.read")
        with pytest.raises(TraceError):
            a.merge_from(b)


class TestCrossBlockReuse:
    def test_slab_fits_reuse_is_sharing(self, kepler):
        assert cross_block_reuse(kepler, 1024, 4) == 4.0

    def test_slab_too_big_reuse_capped_by_size(self, kepler):
        r = cross_block_reuse(kepler, kepler.l2_size * 2, 100)
        assert r == pytest.approx(0.5) or r == 1.0
        assert r >= 1.0

    def test_cap_applies(self, kepler):
        assert cross_block_reuse(kepler, 1024, 1000) == 16.0

    def test_never_below_one(self, kepler):
        assert cross_block_reuse(kepler, 10 * kepler.l2_size, 2) == 1.0

    def test_zero_slab(self, kepler):
        assert cross_block_reuse(kepler, 0, 10) == 1.0


# ----------------------------------------------------------------------
# Prepared batches: geometry built once, folded with a per-use scale
# ----------------------------------------------------------------------

def _ledger_state(tracer):
    """Every ledger field and per-site field, plus the site order."""
    return dataclasses.asdict(tracer.ledger), list(tracer.ledger.sites)


def _fold_one_by_one(tracer, kind, prep, scale, site, size=None, l2_reuse=1.0):
    """Issue each non-zero row of ``prep`` as its own single-row call."""
    for row, mult in zip(prep.rows, prep.mults):
        count = mult * scale
        if not count:
            continue
        if kind == "smem.read":
            tracer.smem_read(row, size, count=count, site=site)
        elif kind == "smem.write":
            tracer.smem_write(row, size, count=count, site=site)
        elif kind == "gmem.read":
            tracer.gmem_read(row, size, count=count, site=site,
                             l2_reuse=l2_reuse)
        elif kind == "gmem.write":
            tracer.gmem_write(row, size, count=count, site=site)
        else:
            tracer.cmem_read(row, count=count, site=site)


def _fold_prepared(tracer, kind, prep, scale, site, size=None, l2_reuse=1.0):
    if kind == "smem.read":
        tracer.smem_read_prepared(prep, size, scale=scale, site=site)
    elif kind == "smem.write":
        tracer.smem_write_prepared(prep, size, scale=scale, site=site)
    elif kind == "gmem.read":
        tracer.gmem_read_prepared(prep, size, scale=scale, site=site,
                                  l2_reuse=l2_reuse)
    elif kind == "gmem.write":
        tracer.gmem_write_prepared(prep, size, scale=scale, site=site)
    else:
        tracer.cmem_read_prepared(prep, scale=scale, site=site)


def _smem_matrix():
    lanes = np.arange(32, dtype=np.int64)
    # Rows 0 and 2 repeat after canonicalization (256 B = one bank row
    # apart), row 1 has a 2-way conflict.
    return np.stack([lanes * 8, (lanes % 16) * 16, lanes * 8 + 256])


def _gmem_rows():
    lanes = np.arange(32, dtype=np.int64) * 4
    # Ragged rows (full warp, remainder), one repeating a canonical
    # pattern, with non-integer multiplicities.
    return [lanes + 12, lanes[:7] + 140, lanes + 44, lanes + 12], \
        [2.5, 1.0, 3.0, 0.75]


class TestPreparedFolds:
    @pytest.mark.parametrize("kind", ["smem.read", "smem.write"])
    def test_smem_prepared_equals_rows_one_by_one(self, kepler, kind):
        prepared, single = KernelTracer(kepler), KernelTracer(kepler)
        prep = prepare_batch(_smem_matrix(), prepared.smem_batch_mod())
        assert prep.mults == [2.0, 1.0]
        for site, scale in (("b", 3.7), ("a", 0.3), ("b", 11.0)):
            _fold_prepared(prepared, kind, prep, scale, site, size=8)
            _fold_one_by_one(single, kind, prep, scale, site, size=8)
        assert _ledger_state(prepared) == _ledger_state(single)
        assert list(prepared.ledger.sites) == [
            "b[%s]" % kind, "a[%s]" % kind]

    @pytest.mark.parametrize("kind", ["gmem.read", "gmem.write"])
    def test_gmem_prepared_equals_rows_one_by_one(self, kepler, kind):
        prepared, single = KernelTracer(kepler), KernelTracer(kepler)
        rows, mults = _gmem_rows()
        prep = prepare_rows(rows, mults, prepared.gmem_batch_mod(4))
        assert len(prep.rows) == 4 and prep.mults == mults
        for site, scale, reuse in (("f", 7.0, 3.3), ("i", 0.1, 1.0),
                                   ("f", 13.0, 2.9)):
            _fold_prepared(prepared, kind, prep, scale, site, size=4,
                           l2_reuse=reuse)
            _fold_one_by_one(single, kind, prep, scale, site, size=4,
                             l2_reuse=reuse)
        assert _ledger_state(prepared) == _ledger_state(single)
        assert prepared.ledger.gmem_l2_bytes > 0

    def test_cmem_prepared_equals_rows_one_by_one(self, kepler):
        prepared, single = KernelTracer(kepler), KernelTracer(kepler)
        matrix = np.stack([np.zeros(32, dtype=np.int64),
                           np.arange(32, dtype=np.int64) % 4 * 4])
        prep = prepare_batch(matrix, 1)
        for site, scale in (("w", 5.0), ("v", 0.5)):
            _fold_prepared(prepared, "cmem.read", prep, scale, site)
            _fold_one_by_one(single, "cmem.read", prep, scale, site)
        assert _ledger_state(prepared) == _ledger_state(single)
        assert prepared.ledger.cmem_cycles == 5.0 * 1 + 5.0 * 4 + 0.5 * 5

    def test_prepare_rows_keeps_order_and_duplicates(self, kepler):
        rows, mults = _gmem_rows()
        prep = prepare_rows(rows, mults, 32)
        assert prep.keys[0] == prep.keys[3]
        assert [len(r) for r in prep.rows] == [32, 7, 32, 32]
        # Canonical rows are translated down by whole 32-byte periods.
        assert prep.rows[1][0] == 140 % 32
        assert all(key == row.tobytes()
                   for key, row in zip(prep.keys, prep.rows))

    @pytest.mark.parametrize("kind", ["smem.read", "smem.write", "gmem.read",
                                      "gmem.write", "cmem.read"])
    def test_zero_multiplicity_and_zero_scale_create_no_site(self, kepler,
                                                             kind):
        tracer = KernelTracer(kepler)
        lanes = np.arange(32, dtype=np.int64) * 8
        prep = prepare_rows([lanes, lanes + 8], [0.0, 2.0], 256)
        _fold_prepared(tracer, kind, prep, 0.0, "zero", size=8)
        _fold_prepared(tracer, kind, prepare_rows([lanes], [0.0], 256), 4.0,
                       "zero_rows", size=8)
        assert tracer.ledger.sites == {}
        assert _ledger_state(tracer) == _ledger_state(KernelTracer(kepler))
        _fold_prepared(tracer, kind, prep, 1.0, "one", size=8)
        assert list(tracer.ledger.sites) == ["one[%s]" % kind]
        assert tracer.ledger.sites["one[%s]" % kind].executions == 2.0

    def test_negative_scale_rejected(self, kepler):
        tracer = KernelTracer(kepler)
        prep = prepare_batch(np.arange(32) * 4, 32)
        with pytest.raises(TraceError):
            tracer.smem_read_prepared(prep, 4, scale=-1.0)
        with pytest.raises(TraceError):
            tracer.smem_write_prepared(prep, 4, scale=-1.0)
        with pytest.raises(TraceError):
            tracer.gmem_read_prepared(prep, 4, scale=-1.0)
        with pytest.raises(TraceError):
            tracer.gmem_write_prepared(prep, 4, scale=-1.0)
        with pytest.raises(TraceError):
            tracer.cmem_read_prepared(prep, scale=-1.0)
        assert tracer.ledger.sites == {}

    def test_non_positive_gmem_size_rejected(self, kepler):
        tracer = KernelTracer(kepler)
        prep = prepare_batch(np.arange(32) * 4, 32)
        for size in (0, -4):
            with pytest.raises(TraceError):
                tracer.gmem_read_prepared(prep, size)
            with pytest.raises(TraceError):
                tracer.gmem_write_prepared(prep, size)
            with pytest.raises(TraceError):
                tracer.gmem_batch_mod(size)

    def test_l2_reuse_below_one_rejected(self, kepler):
        tracer = KernelTracer(kepler)
        prep = prepare_batch(np.arange(32) * 4, 32)
        with pytest.raises(TraceError):
            tracer.gmem_read_prepared(prep, 4, l2_reuse=0.99)
        assert tracer.ledger.sites == {}

    def test_prepare_rows_rejects_bad_rows(self):
        lanes = np.arange(32, dtype=np.int64)
        with pytest.raises(TraceError):
            prepare_rows([lanes], [-1.0], 32)
        with pytest.raises(TraceError):
            prepare_rows([lanes - 1], [1.0], 32)
        with pytest.raises(TraceError):
            prepare_rows([lanes[:0]], [1.0], 32)
        with pytest.raises(TraceError):
            prepare_rows([lanes, lanes], [1.0], 32)


# ----------------------------------------------------------------------
# The one-pass folds against a frozen copy of the per-row folds
# ----------------------------------------------------------------------
#
# ``frozen_*`` below copy the folds the one-pass loops replaced (one
# method call per row, each adding straight into the ledger and the
# site), applied to a tracer from outside.  Do not edit them: they are
# the reference.

def frozen_site(tracer, site, kind):
    key = "%s[%s]" % (site, kind)
    if key not in tracer.ledger.sites:
        tracer.ledger.sites[key] = SiteStats(kind=kind)
    return tracer.ledger.sites[key]


def frozen_smem_fold(tracer, res, count, st):
    led = tracer.ledger
    led.smem_requests += count
    led.smem_cycles += res.cycles * count
    led.smem_min_cycles += res.phases * count
    led.smem_request_bytes += res.request_bytes * count
    st.executions += count
    st.cycles += res.cycles * count
    st.request_bytes += res.request_bytes * count
    st.unique_bytes += res.unique_bytes * count


def frozen_gmem_fold(tracer, res, count, st, write, l2_reuse=1.0):
    led = tracer.ledger
    led.gmem_l2_bytes += res.bytes_moved * count
    if write:
        led.gmem_write_transactions += res.transactions * count
        led.gmem_write_request_bytes += res.request_bytes * count
        led.gmem_write_bytes_moved += res.bytes_moved * count
    else:
        led.gmem_read_transactions += res.transactions * count
        led.gmem_read_request_bytes += res.request_bytes * count
        led.gmem_read_bytes_moved += res.bytes_moved * count / l2_reuse
    st.executions += count
    st.transactions += res.transactions * count
    st.request_bytes += res.request_bytes * count
    st.unique_bytes += res.unique_bytes * count


def frozen_cmem_fold(tracer, res, count, st):
    tracer.ledger.cmem_requests += count
    tracer.ledger.cmem_cycles += res.serializations * count
    st.executions += count
    st.cycles += res.serializations * count


def frozen_fold_prepared(tracer, prep, scale, cache, access, args, site,
                         kind, fold, *fold_args):
    if scale < 0:
        raise TraceError("count cannot be negative")
    st = None
    for row, rowbytes, m in zip(prep.rows, prep.keys, prep.mults):
        mult = m * scale
        if mult:
            res = tracer._lookup(cache, access, row, args, rowbytes)
            if st is None:
                st = frozen_site(tracer, site, kind)
            fold(tracer, res, mult, st, *fold_args)


def frozen_prepared(tracer, kind, prep, scale, site, size=None,
                    l2_reuse=1.0):
    if kind.startswith("smem"):
        frozen_fold_prepared(tracer, prep, scale, tracer._smem_cache,
                             tracer.smem.access, (size,), site, kind,
                             frozen_smem_fold)
    elif kind.startswith("gmem"):
        write = kind == "gmem.write"
        frozen_fold_prepared(tracer, prep, scale, tracer._gmem_cache,
                             tracer.gmem.access,
                             (size, KernelTracer.SECTOR_BYTES), site, kind,
                             frozen_gmem_fold, write,
                             1.0 if write else l2_reuse)
    else:
        frozen_fold_prepared(tracer, prep, scale, tracer._cmem_cache,
                             tracer.cmem.access, (), site, kind,
                             frozen_cmem_fold)


def frozen_cached(tracer, cache, model_access, addrs, mod, *args):
    if addrs.ndim != 1 or addrs.size == 0:
        return model_access(addrs, *args)
    lo = int(addrs.min())
    if lo < 0:
        return model_access(addrs, *args)
    shift = (lo // mod) * mod
    canon = addrs - shift if shift else addrs
    return tracer._lookup(cache, model_access, canon, args, canon.tobytes())


def frozen_single(tracer, kind, addresses, count, site, size=None,
                  l2_reuse=1.0):
    """The single-request calls: count checks, then one fold."""
    if count < 0:
        raise TraceError("count cannot be negative")
    addrs = np.asarray(addresses, dtype=np.int64)
    if kind.startswith("smem"):
        res = frozen_cached(tracer, tracer._smem_cache, tracer.smem.access,
                            addrs, tracer._smem_row_bytes, size)
        frozen_smem_fold(tracer, res, count, frozen_site(tracer, site, kind))
    elif kind.startswith("gmem"):
        write = kind == "gmem.write"
        sector = KernelTracer.SECTOR_BYTES
        res = frozen_cached(tracer, tracer._gmem_cache, tracer.gmem.access,
                            addrs, math.lcm(int(size), sector), size, sector)
        frozen_gmem_fold(tracer, res, count, frozen_site(tracer, site, kind),
                         write, 1.0 if write else l2_reuse)
    else:
        res = frozen_cached(tracer, tracer._cmem_cache, tracer.cmem.access,
                            addrs, 1)
        frozen_cmem_fold(tracer, res, count, frozen_site(tracer, site, kind))
    return res


def _single_request(tracer, kind, addresses, count, site, size=None,
                    l2_reuse=1.0):
    if kind == "smem.read":
        return tracer.smem_read(addresses, size, count=count, site=site)
    if kind == "smem.write":
        return tracer.smem_write(addresses, size, count=count, site=site)
    if kind == "gmem.read":
        return tracer.gmem_read(addresses, size, count=count, site=site,
                                l2_reuse=l2_reuse)
    if kind == "gmem.write":
        return tracer.gmem_write(addresses, size, count=count, site=site)
    return tracer.cmem_read(addresses, count=count, site=site)


def _hex_state(tracer):
    """Every ledger and site field as float hex, sites in order."""
    led = tracer.ledger
    fields = [(f.name, float(getattr(led, f.name)).hex())
              for f in dataclasses.fields(led) if f.name != "sites"]
    sites = [(key, st.kind) + tuple(
        float(getattr(st, name)).hex()
        for name in ("executions", "cycles", "transactions",
                     "request_bytes", "unique_bytes"))
        for key, st in led.sites.items()]
    return fields, sites


def _seed(tracer, kind):
    """Non-integer sums already in the ledger and in a site of ``kind``."""
    led = tracer.ledger
    for i, f in enumerate(dataclasses.fields(led)):
        if f.name not in ("sites", "gmem_segment_size"):
            setattr(led, f.name, (i + 1) / 3.0)
    led.sites["s[%s]" % kind] = SiteStats(
        kind=kind, executions=0.1, cycles=2.0 / 3.0, transactions=1e-3,
        request_bytes=7.7, unique_bytes=1.0 / 7.0)


ALL_KINDS = ["smem.read", "smem.write", "gmem.read", "gmem.write",
             "cmem.read"]


def _batch(tracer, kind):
    """A multi-row batch of ``kind``: merged smem rows plus a 4-way bank
    conflict, ragged gmem rows with non-integer multiplicities, two cmem
    patterns."""
    if kind.startswith("smem"):
        conflict = (np.arange(32, dtype=np.int64) % 4) * 256
        return prepare_batch(np.vstack([_smem_matrix(), conflict]),
                             tracer.smem_batch_mod()), 8
    if kind.startswith("gmem"):
        rows, mults = _gmem_rows()
        return prepare_rows(rows, mults, tracer.gmem_batch_mod(4)), 4
    return prepare_batch(np.stack([np.zeros(32, dtype=np.int64),
                                   np.arange(32, dtype=np.int64) % 4 * 4]),
                         1), None


class TestOnePassFoldsMatchFrozen:
    def _pair(self, kepler):
        return KernelTracer(kepler), KernelTracer(kepler)

    def _fold_both(self, new, old, kind, prep, scale, site, size,
                   l2_reuse=1.0):
        _fold_prepared(new, kind, prep, scale, site, size=size,
                       l2_reuse=l2_reuse)
        frozen_prepared(old, kind, prep, scale, site, size=size,
                        l2_reuse=l2_reuse)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_multi_row_batches_non_integer_scales(self, kepler, kind):
        new, old = self._pair(kepler)
        prep, size = _batch(new, kind)
        assert len(prep.rows) > 1
        if kind.startswith("smem"):
            results = [new.smem.access(row, size) for row in prep.rows]
            assert any(r.cycles > r.phases for r in results)
        for site, scale in (("b", 3.7), ("a", 1.0 / 3.0), ("c", 0.1),
                            ("b", 1e7 + 0.3)):
            self._fold_both(new, old, kind, prep, scale, site, size)
        assert _hex_state(new) == _hex_state(old)
        assert list(new.ledger.sites) == [
            "b[%s]" % kind, "a[%s]" % kind, "c[%s]" % kind]

    @pytest.mark.parametrize("write", [False, True])
    def test_l2_reuse_above_one(self, kepler, write):
        kind = "gmem.write" if write else "gmem.read"
        new, old = self._pair(kepler)
        prep, size = _batch(new, kind)
        for scale, reuse in ((7.0, 3.3), (0.1, 1.0), (13.0, 2.9),
                             (5.5, 16.0)):
            self._fold_both(new, old, kind, prep, scale, "f", size,
                            l2_reuse=reuse)
        assert _hex_state(new) == _hex_state(old)
        if not write:
            led = new.ledger
            assert led.gmem_read_bytes_moved < led.gmem_l2_bytes

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_zero_multiplicities_and_zero_scale_leave_no_site(self, kepler,
                                                             kind):
        new, old = self._pair(kepler)
        lanes = np.arange(32, dtype=np.int64) * 8
        zero_rows = prepare_rows([lanes, lanes + 8], [0.0, 0.0], 256)
        mixed = prepare_rows([lanes, lanes + 8], [0.0, 2.5], 256)
        before = access_cache_stats()
        self._fold_both(new, old, kind, mixed, 0.0, "zero_scale", 8)
        self._fold_both(new, old, kind, zero_rows, 4.0, "zero_rows", 8)
        assert access_cache_stats() == before      # no lookups at all
        assert new.ledger.sites == {} and old.ledger.sites == {}
        self._fold_both(new, old, kind, mixed, 1.5, "one", 8)
        assert _hex_state(new) == _hex_state(old)
        assert list(new.ledger.sites) == ["one[%s]" % kind]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_same_site_folded_twice(self, kepler, kind):
        new, old = self._pair(kepler)
        prep, size = _batch(new, kind)
        for scale in (2.2, 0.7, 2.2):
            self._fold_both(new, old, kind, prep, scale, "twice", size)
        _single_request(new, kind, prep.rows[0], 1.3, "twice", size=size)
        frozen_single(old, kind, prep.rows[0], 1.3, "twice", size=size)
        assert _hex_state(new) == _hex_state(old)
        assert list(new.ledger.sites) == ["twice[%s]" % kind]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_fold_onto_non_integer_sums(self, kepler, kind):
        new, old = self._pair(kepler)
        _seed(new, kind)
        _seed(old, kind)
        assert _hex_state(new) == _hex_state(old)
        prep, size = _batch(new, kind)
        for site, scale in (("s", 0.3), ("t", 11.0), ("s", 1.0 / 7.0)):
            self._fold_both(new, old, kind, prep, scale, site, size,
                            l2_reuse=1.7)
        assert _hex_state(new) == _hex_state(old)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_single_request_counts_zero_and_one(self, kepler, kind):
        new, old = self._pair(kepler)
        size = None if kind == "cmem.read" else 8
        # Four words in one bank, so a conflict: cycles differ from phases.
        addrs = (np.arange(32, dtype=np.int64) % 4) * 256 + 512
        for site, count in (("empty", 0), ("empty", 0.0), ("one", 1),
                            ("one", 1.0), ("frac", 2.75)):
            ours = _single_request(new, kind, addrs, count, site,
                                   size=size, l2_reuse=2.5)
            theirs = frozen_single(old, kind, addrs, count, site, size=size,
                                   l2_reuse=2.5)
            assert ours == theirs
        assert _hex_state(new) == _hex_state(old)
        empty = new.ledger.sites["empty[%s]" % kind]
        assert empty == SiteStats(kind=kind)
        assert list(new.ledger.sites) == [
            "empty[%s]" % kind, "one[%s]" % kind, "frac[%s]" % kind]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_single_request_errors_unchanged(self, kepler, kind):
        size = None if kind == "cmem.read" else 8
        bad = (np.arange(32) * 8 - 8, np.zeros((2, 32), dtype=np.int64),
               np.zeros(0, dtype=np.int64), np.arange(33) * 8)
        for addrs in bad:
            new, old = self._pair(kepler)
            with pytest.raises(TraceError) as ours:
                _single_request(new, kind, addrs, 0, "x", size=size)
            with pytest.raises(TraceError) as theirs:
                frozen_single(old, kind, addrs, 0, "x", size=size)
            assert str(ours.value) == str(theirs.value)
            assert new.ledger.sites == {} == old.ledger.sites

    def test_non_positive_gmem_size_raises_the_models_error(self, kepler):
        tracer = KernelTracer(kepler)
        for size in (0, -4):
            for addrs, text in ((np.arange(32) * 4, "access size"),
                                (np.zeros((2, 2)), "1-D sequence")):
                with pytest.raises(TraceError, match=text):
                    tracer.gmem_read(addrs, size)
        assert tracer.ledger.sites == {}


class TestSharedMemoryModels:
    def test_tracers_share_models_per_arch_and_policy(self, kepler):
        a, b = KernelTracer(kepler), KernelTracer(kepler)
        assert (a.smem, a.gmem, a.cmem) == (b.smem, b.gmem, b.cmem)
        assert a.smem is b.smem and a._smem_cache is b._smem_cache
        paper = KernelTracer(kepler, BankConflictPolicy.PAPER)
        assert paper.smem is not a.smem
        assert paper.smem.policy is BankConflictPolicy.PAPER
        assert paper.gmem is not a.gmem      # one entry per (arch, policy)
        assert a.ledger is not b.ledger

    def test_clear_access_caches_drops_the_models(self, kepler):
        before = KernelTracer(kepler)
        clear_access_caches()
        after = KernelTracer(kepler)
        assert after.smem is not before.smem
        assert after._smem_cache is not before._smem_cache
        assert after._smem_cache == {}


# ----------------------------------------------------------------------
# Publishers resolve their counters once per registry
# ----------------------------------------------------------------------

def _small_cost(kepler):
    tracer = KernelTracer(kepler)
    tracer.gmem_read(np.arange(32) * 4, 4, count=3.0, site="in")
    tracer.smem_read(np.arange(32) * 8, 8, count=5.0, site="row")
    tracer.flops(640.0)
    return tracer.finish(name="tiny", launch=_launch())


def _series(registry, name):
    for metric in registry.collect():
        if metric["name"] == name:
            return {tuple(sorted(s["labels"].items())): s["value"]
                    for s in metric["series"]}
    return None


def _assert_published_once(registry, cost):
    led = cost.ledger
    tx = _series(registry, "gpu_gmem_transactions_total")
    assert tx[(("kernel", "tiny"), ("op", "read"))] == \
        led.gmem_read_transactions
    assert _series(registry, "gpu_smem_cycles_total") == {
        (("kernel", "tiny"),): led.smem_cycles}
    assert _series(registry, "gpu_flops_total") == {
        (("kernel", "tiny"),): led.flops}
    assert _series(registry, "gpu_kernel_costs_total") == {
        (("kernel", "tiny"),): 1.0}
    assert _series(registry, "gpu_site_executions_total")[
        (("kernel", "tiny"), ("site", "row[smem.read]"))] == 5.0
    assert _series(registry, "gpu_timing_evaluations_total") == {
        (("kernel", "tiny"),): 1.0}
    seconds = _series(registry, "gpu_modeled_seconds_total")
    assert seconds[(("component", "total"), ("kernel", "tiny"))] > 0


class TestPublisherHandles:
    def test_private_registry_clear(self, kepler):
        cost = _small_cost(kepler)
        registry = Registry()
        model = TimingModel(kepler, registry=registry)
        model.publish(cost, model.evaluate(cost))
        _assert_published_once(registry, cost)
        registry.clear()
        assert registry.collect() == []
        model.publish(cost, model.evaluate(cost))
        _assert_published_once(registry, cost)

    def test_global_registry_reset_set_and_clear(self, kepler):
        cost = _small_cost(kepler)
        model = TimingModel(kepler)

        def set_fresh():
            set_registry(Registry())
            return get_registry()

        def clear_current():
            get_registry().clear()
            return get_registry()

        previous = get_registry()
        try:
            model.publish(cost, model.evaluate(cost))
            for swap in (reset_registry, set_fresh, clear_current):
                registry = swap()
                assert registry is get_registry()
                assert _series(registry, "gpu_flops_total") is None
                model.publish(cost, model.evaluate(cost))
                _assert_published_once(registry, cost)
        finally:
            set_registry(previous)

    def test_handles_resolve_once_until_clear(self):
        registry = Registry()
        calls = []

        def resolve(reg):
            calls.append(reg)
            return reg.counter("c_total", "a counter")

        first = registry.handles(resolve)
        assert registry.handles(resolve) is first
        assert calls == [registry]
        registry.clear()
        second = registry.handles(resolve)
        assert second is not first and calls == [registry, registry]
        assert registry.get("c_total") is second
