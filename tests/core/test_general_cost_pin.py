"""Pins ``GeneralCaseKernel.cost`` to its original per-site replay.

``GeneralCaseKernel.cost`` folds every access site from geometry-cached
prepared batches.  ``frozen_general_cost`` below is a copy of the replay
it replaced (comments dropped), which traced four of the eight sites
from fresh address patterns, one tracer call per request row.  Both
must produce the same ``KernelCost`` field for field (exact ``==``, so
a one-ulp drift in any counter fails), the same site insertion order,
and the same canonical-pattern cache traffic, over the whole Table 1
search space and the serving palette.
"""

import functools
import math

import numpy as np
import pytest

from repro.conv.blocking import BlockGrid
from repro.conv.tensors import ConvProblem, Padding
from repro.core.dse import default_general_problem, enumerate_general_configs
from repro.core.general import GeneralCaseKernel, palette
from repro.errors import ReproError
from repro.gpu.arch import FERMI_M2090, KEPLER_K40M
from repro.gpu.fastsim import kernel_cost_diffs
from repro.gpu.simt import Dim3, LaunchConfig
from repro.gpu.trace import (
    KernelTracer,
    access_cache_stats,
    clear_access_caches,
    cross_block_reuse,
    prepare_batch,
)


# ----------------------------------------------------------------------
# The frozen replay (do not edit: it is the reference)
# ----------------------------------------------------------------------

def frozen_general_cost(kernel, problem):
    valid = kernel._check_problem(problem)
    cfg = kernel.config_for(valid)
    k = valid.kernel_size
    n = kernel.n
    s, d = valid.stride, valid.dilation
    grid = BlockGrid(valid, cfg.block_spec())
    fgroups = math.ceil(valid.filters / cfg.ftb)
    launch = LaunchConfig(
        grid=Dim3(x=fgroups, y=grid.total_blocks),
        block=Dim3(x=cfg.tx, y=cfg.ty),
        registers_per_thread=cfg.registers_per_thread(k, n, s, d),
        smem_per_block=cfg.smem_bytes(k, n, kernel.elem_bytes, s, d),
    )
    blocks = float(grid.total_blocks * fgroups)
    threads = cfg.threads
    warps = math.ceil(threads / kernel.arch.warp_size)
    c_total = valid.channels
    chunks = math.ceil(c_total / cfg.csh)

    tracer = KernelTracer(kernel.arch, kernel.bank_policy)
    warp_lanes = kernel.arch.warp_size
    lanes = np.arange(warp_lanes, dtype=np.int64)
    elem = kernel.elem_bytes
    unit = n * elem

    halo = d * (k - 1)
    img_row_floats = (cfg.w - 1) * s + halo + 1
    img_rows = (cfg.h - 1) * s + halo + 1

    row_lanes = min(warp_lanes, math.ceil(img_row_floats / n))
    row_pattern = np.arange(row_lanes, dtype=np.int64) * unit
    full_row_reqs = math.ceil(img_row_floats / (n * warp_lanes))
    img_slab = valid.channels * valid.height * valid.width * elem
    tracer.gmem_read(
        row_pattern,
        unit,
        count=float(full_row_reqs) * img_rows * c_total * blocks,
        site="gm.load_image",
        l2_reuse=cross_block_reuse(kernel.arch, img_slab, fgroups),
    )

    run_floats = cfg.csh * k * k
    stride = c_total * k * k * elem
    flt_reuse = cross_block_reuse(
        kernel.arch,
        valid.filters * c_total * k * k * elem,
        grid.total_blocks,
    )
    seg = KernelTracer.SECTOR_BYTES
    base_values, base_freqs = _frozen_base_alignments(
        cfg.ftb, stride, cfg.csh * k * k * elem, chunks, seg)
    scalar_lanes = lanes * elem
    full_reqs, rem = divmod(run_floats, warp_lanes)
    for base, freq in zip(base_values, base_freqs):
        if full_reqs:
            tracer.gmem_read(
                base + scalar_lanes, elem,
                count=float(full_reqs) * freq * blocks,
                site="gm.load_filter", l2_reuse=flt_reuse,
            )
        if rem:
            rem_base = base + full_reqs * warp_lanes * elem
            tracer.gmem_read(
                rem_base + scalar_lanes[:rem], elem,
                count=float(freq) * blocks,
                site="gm.load_filter", l2_reuse=flt_reuse,
            )

    img_units = cfg.csh * img_rows * math.ceil(img_row_floats / n)
    tracer.smem_write(
        lanes * unit,
        unit,
        count=img_units / warp_lanes * chunks * blocks,
        site="sm.store_image",
    )
    flt_row_stride = (cfg.ftb + cfg.smem_filter_pad(n)) * elem
    t_of_lane = lanes // min(cfg.ftb, warp_lanes)
    f_of_lane = lanes % min(cfg.ftb, warp_lanes)
    store_pattern = t_of_lane * flt_row_stride + f_of_lane * elem
    flt_values = cfg.csh * k * k * cfg.ftb
    tracer.smem_write(
        store_pattern,
        elem,
        count=flt_values / warp_lanes * chunks * blocks,
        site="sm.store_filter",
    )

    row_bytes = tracer.smem_batch_mod()
    tracer.smem_read_prepared(
        _frozen_img_row_read_batch(warp_lanes, cfg.tx, cfg.ty, cfg.wt, cfg.w,
                                   k, elem, n, row_bytes, s, d),
        unit,
        scale=float(warps) * k * c_total * blocks,
        site="sm.load_image_row",
    )
    tracer.smem_read_prepared(
        _frozen_flt_row_read_batch(warp_lanes, cfg.tx, cfg.ft, elem, n,
                                   row_bytes),
        unit,
        scale=float(warps) * k * k * c_total * blocks,
        site="sm.load_filter_row",
    )

    tracer.flops(2.0 * k * k * c_total * cfg.ftb * cfg.w * cfg.h * blocks)

    map_stride = valid.out_height * valid.out_width * elem
    wb_prep, wide = _frozen_writeback_batch(
        warp_lanes, cfg.tx, cfg.ty, cfg.ft, cfg.wt, map_stride, elem, n)
    tracer.gmem_write_prepared(
        wb_prep, wide, scale=float(warps) * blocks, site="gm.store_out",
    )

    tracer.sync((2.0 * chunks + 2.0) * blocks)

    return tracer.finish(
        name=kernel.name, launch=launch, software_prefetch=True,
    )


@functools.lru_cache(maxsize=None)
def _frozen_img_row_read_batch(warp_lanes, tx, ty, wt, w, k, elem, n,
                               row_bytes, stride=1, dilation=1):
    lanes = np.arange(warp_lanes, dtype=np.int64)
    ty_ids = (lanes // tx) % ty
    pitch = (w - 1) * stride + dilation * (k - 1) + 1
    base = (
        ((ty_ids * wt) // w) * stride * pitch
        + ((ty_ids * wt) % w) * stride
    ) * elem
    u_img = math.ceil(((wt - 1) * stride + dilation * (k - 1) + 1) / n)
    unit = n * elem
    matrix = (
        base[np.newaxis, :]
        + np.arange(u_img, dtype=np.int64)[:, np.newaxis] * unit
    )
    return prepare_batch(matrix, row_bytes)


@functools.lru_cache(maxsize=None)
def _frozen_flt_row_read_batch(warp_lanes, tx, ft, elem, n, row_bytes):
    lanes = np.arange(warp_lanes, dtype=np.int64)
    base = (lanes % tx) * ft * elem
    u_flt = max(1, ft // n)
    unit = n * elem
    matrix = (
        base[np.newaxis, :]
        + np.arange(u_flt, dtype=np.int64)[:, np.newaxis] * unit
    )
    return prepare_batch(matrix, row_bytes)


@functools.lru_cache(maxsize=None)
def _frozen_writeback_batch(warp_lanes, tx, ty, ft, wt, map_stride, elem, n):
    lanes = np.arange(warp_lanes, dtype=np.int64)
    tx_ids = lanes % tx
    ty_ids = (lanes // tx) % ty
    wide = 16 if (wt * elem) % 16 == 0 else n * elem
    u_out = math.ceil(wt * elem / wide)
    wb_addrs = tx_ids * ft * map_stride + ty_ids * wt * elem
    wb_offsets = (
        np.arange(ft, dtype=np.int64)[:, np.newaxis] * map_stride
        + np.arange(u_out, dtype=np.int64) * wide
    ).reshape(-1, 1)
    matrix = wb_addrs[np.newaxis, :] + wb_offsets
    matrix -= matrix % wide
    return prepare_batch(matrix, math.lcm(wide, KernelTracer.SECTOR_BYTES)), wide


@functools.lru_cache(maxsize=None)
def _frozen_base_alignments(ftb, stride, chunk_step, chunks, seg):
    base_grid = (
        np.arange(ftb, dtype=np.int64)[:, np.newaxis] * stride
        + np.arange(chunks, dtype=np.int64) * chunk_step
    ) % seg
    values, freqs = np.unique(base_grid, return_counts=True)
    return tuple(values.tolist()), tuple(freqs.tolist())


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

ARCHS = [KEPLER_K40M, FERMI_M2090]     # matched vector n = 2 and n = 1


def churn_style_shapes():
    """32 distinct serving shapes: plain, stride 2 and dilation 2 in
    turn; K 3 and 5; C through every value 1-16 twice (so odd C, not
    divisible by any C_SH > 1, is covered); H 16-64 and F 4-16."""
    shapes = []
    for i in range(32):
        axes = ({}, {"stride": 2}, {"dilation": 2})[i % 3]
        shapes.append(ConvProblem.square(
            16 + (13 * i) % 49, (3, 5)[(i // 3) % 2],
            channels=1 + (7 * i) % 16, filters=4 + (5 * i) % 13,
            padding=(Padding.VALID, Padding.SAME)[(i // 6) % 2], **axes))
    return shapes


def serving_cases(arch):
    n = GeneralCaseKernel(arch=arch).n
    return [
        (GeneralCaseKernel(arch=arch, config=cfg), problem)
        for problem in churn_style_shapes()
        for cfg in palette(problem.kernel_size, n)
    ]


@pytest.fixture
def lookup_log(monkeypatch):
    """Every canonical-pattern lookup, as (memory model, args, pattern).

    Comparing the log as well as the ledgers catches a changed request
    row whose model outcome happens not to change.
    """
    log = []
    real_lookup = KernelTracer._lookup

    def recording_lookup(self, cache, access, canon, args, rowbytes):
        log.append((type(access.__self__).__name__, args, rowbytes))
        return real_lookup(self, cache, access, canon, args, rowbytes)

    monkeypatch.setattr(KernelTracer, "_lookup", recording_lookup)
    return log


def outcome(cost_fn, kernel, problem):
    """The cost, or the (type, message) of the error it raised."""
    try:
        return cost_fn(kernel, problem)
    except ReproError as exc:
        return (type(exc).__name__, str(exc))


def replay(cost_fn, kernel, problem, log):
    del log[:]
    return outcome(cost_fn, kernel, problem), list(log)


def assert_same(kernel, problem, log):
    ours, our_lookups = replay(GeneralCaseKernel.cost, kernel, problem, log)
    frozen, frozen_lookups = replay(frozen_general_cost, kernel, problem, log)
    where = (kernel.config_for(problem), problem.describe())
    assert our_lookups == frozen_lookups, where
    if isinstance(frozen, tuple):
        assert ours == frozen, where
        return
    assert kernel_cost_diffs(ours, frozen) == [], where
    assert list(ours.ledger.sites) == list(frozen.ledger.sites), where
    assert ours.name == frozen.name


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------

class TestTable1SearchSpace:
    @pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_every_candidate_matches_frozen_replay(self, arch, k,
                                                   lookup_log):
        n = GeneralCaseKernel(arch=arch).n
        problem = default_general_problem(k)
        configs = enumerate_general_configs(k, n, arch)
        assert configs
        for cfg in configs:
            assert_same(GeneralCaseKernel(arch=arch, config=cfg), problem,
                        lookup_log)


class TestServingPalette:
    def test_shapes_cover_the_serving_axes(self):
        shapes = churn_style_shapes()
        assert len(set(shapes)) == 32
        assert {p.channels for p in shapes} == set(range(1, 17))
        assert {(p.stride, p.dilation) for p in shapes} == {
            (1, 1), (2, 1), (1, 2)}
        assert {p.kernel_size for p in shapes} == {3, 5}
        for k in (3, 5):
            assert len(palette(k, 2)) == 7

    @pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
    def test_palette_matches_frozen_replay(self, arch, lookup_log):
        for kernel, problem in serving_cases(arch):
            assert_same(kernel, problem, lookup_log)

    @pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
    def test_access_cache_traffic_matches_frozen_replay(self, arch):
        cases = serving_cases(arch)

        def deltas(cost_fn):
            clear_access_caches()
            before = access_cache_stats()
            for kernel, problem in cases:
                outcome(cost_fn, kernel, problem)
            after = access_cache_stats()
            return (after["hits"] - before["hits"],
                    after["misses"] - before["misses"])

        ours = deltas(GeneralCaseKernel.cost)
        frozen = deltas(frozen_general_cost)
        clear_access_caches()
        assert ours == frozen
        assert ours[1] > 0 and ours[0] > ours[1]
