"""Pins the baseline kernels' costs to their original per-request replay.

``TiledGemmKernel.cost``, ``ImplicitGemmKernel._cost_with``,
``Im2colKernel.cost`` and ``NaiveDirectKernel.cost`` fold every access
site from geometry-cached prepared batches.  The ``frozen_*`` functions
below are copies of the replays they replaced (comments dropped), which
traced every site from fresh address patterns, one tracer call per warp
request.  Both must produce the same ``KernelCost`` field for field
(exact ``==``), the same site insertion order and the same sequence of
canonical-pattern lookups.
"""

import math

import numpy as np
import pytest

from repro.baselines.direct_naive import NaiveDirectKernel
from repro.baselines.gemm import (
    CUBLAS_KEPLER_TILING,
    GemmShape,
    TiledGemmKernel,
    _panel_load_width,
    cublas_like_gemm,
    magma_fermi_gemm,
    magma_matched_gemm,
)
from repro.baselines.im2col import Im2colKernel
from repro.baselines.implicit_gemm import (
    DEFAULT_TILE_PALETTE,
    ImplicitGemmKernel,
    _aligned_width,
)
from repro.conv.tensors import ConvProblem, Layout, Padding
from repro.conv.workloads import gemm_sweep_dims
from repro.errors import ReproError, ShapeError
from repro.gpu.arch import ARCHITECTURES, FERMI_M2090, KEPLER_K40M
from repro.gpu.fastsim import kernel_cost_diffs
from repro.gpu.memory.banks import BankConflictPolicy
from repro.gpu.simt import Dim3, LaunchConfig
from repro.gpu.trace import (
    KernelCost,
    KernelTracer,
    access_cache_stats,
    clear_access_caches,
    cross_block_reuse,
)

_F32 = 4


# ----------------------------------------------------------------------
# The frozen replays (do not edit: they are the reference)
# ----------------------------------------------------------------------

def frozen_gemm_cost(kernel, shape):
    t = kernel.tiling
    arch = kernel.arch
    launch = kernel.launch_config(shape)
    blocks = float(launch.total_blocks)
    warps = math.ceil(t.threads / arch.warp_size)
    ksteps = math.ceil(shape.k / t.bk)

    tracer = KernelTracer(arch, kernel.bank_policy)
    lanes = np.arange(arch.warp_size, dtype=np.int64)
    unit = t.n * _F32

    grid_x = math.ceil(shape.m / t.bm)
    grid_y = math.ceil(shape.n / t.bn)
    frozen_trace_panel_load(kernel, tracer, t.bm, t.bk, shape.k,
                            ksteps * blocks, site="gm.load_a",
                            l2_reuse=cross_block_reuse(
                                arch, shape.m * shape.k * _F32, grid_y))
    frozen_trace_panel_load(kernel, tracer, t.bk, t.bn, shape.n,
                            ksteps * blocks, site="gm.load_b",
                            l2_reuse=cross_block_reuse(
                                arch, shape.k * shape.n * _F32, grid_x))

    panel_units = (t.bm * t.bk + t.bk * t.bn) / (4.0 * arch.warp_size)
    tracer.smem_write(lanes * 16, 16, count=panel_units * ksteps * blocks,
                      site="sm.store_panels")

    x_ids = lanes % t.threads_x
    y_ids = lanes // t.threads_x
    rounds = float(warps) * t.bk * ksteps * blocks
    for u in range(t.tm // t.n):
        tracer.smem_read((u * t.threads_x + x_ids) * unit, unit,
                         count=rounds, site="sm.load_a_col")
    for u in range(t.tn // t.n):
        tracer.smem_read((u * t.threads_y + y_ids) * unit, unit,
                         count=rounds, site="sm.load_b_row")

    tracer.flops(2.0 * t.bm * t.bn * t.bk * ksteps * blocks)

    wb_rows = t.bm
    run_units = t.bn // t.n
    per_warp_rows = max(1, arch.warp_size // run_units)
    wb = (lanes % run_units) * unit + (lanes // run_units) * shape.n * _F32
    reqs = wb_rows * run_units / arch.warp_size
    tracer.gmem_write(wb[: min(arch.warp_size, run_units * per_warp_rows)],
                      unit, count=reqs * blocks, site="gm.store_c")

    tracer.sync(2.0 * ksteps * blocks)
    return tracer.finish(name=kernel.name, launch=launch,
                         software_prefetch=True)


def frozen_trace_panel_load(kernel, tracer, rows, cols, pitch_elems, count,
                            site, l2_reuse=1.0):
    arch = kernel.arch
    width = _panel_load_width(cols, pitch_elems)
    run_units = max(1, cols * _F32 // width)
    lanes = np.arange(arch.warp_size, dtype=np.int64)
    addrs = ((lanes % run_units) * width
             + (lanes // run_units) * pitch_elems * _F32)
    total_units = rows * run_units
    reqs = total_units / arch.warp_size
    tracer.gmem_read(addrs, width, count=reqs * count, site=site,
                     l2_reuse=l2_reuse)


def frozen_implicit_cost_with(kernel, problem, t):
    valid = problem.as_valid()
    shape = kernel.gemm_shape(problem)
    arch = kernel.arch

    grid_x = math.ceil(shape.m / t.bm)
    grid_y = math.ceil(shape.n / t.bn)
    blocks = float(grid_x * grid_y)
    ksteps = math.ceil(shape.k / t.bk)
    warps = math.ceil(t.threads / arch.warp_size)

    launch = LaunchConfig(
        grid=Dim3(x=grid_x, y=grid_y),
        block=Dim3(x=t.threads_x, y=t.threads_y),
        registers_per_thread=min(t.registers_per_thread() + 8,
                                 arch.max_registers_per_thread),
        smem_per_block=t.smem_bytes(),
    )

    tracer = KernelTracer(arch, kernel.bank_policy)
    lanes = np.arange(arch.warp_size, dtype=np.int64)
    unit = t.n * _F32

    a_rows_total = min(shape.k, ksteps * t.bk)
    width = _aligned_width(shape.k)
    run_units = max(1, t.bk * _F32 // width)
    a_addrs = ((lanes % run_units) * width
               + (lanes // run_units) * shape.k * _F32)
    a_reqs = min(shape.m, grid_x * t.bm) * run_units / arch.warp_size
    a_slab = shape.m * shape.k * _F32
    tracer.gmem_read(a_addrs, width,
                     count=a_reqs * (a_rows_total / t.bk) * grid_y,
                     site="gm.load_filters",
                     l2_reuse=cross_block_reuse(arch, a_slab, grid_y))

    ow = valid.out_width
    s = valid.stride
    run = min(ow, arch.warp_size)
    b_addrs = ((lanes % run) * s * _F32
               + (lanes // run) * valid.width * s * _F32)
    b_reqs_per_row = t.bn / arch.warp_size
    k_taps = valid.kernel_size ** 2
    tracer.gmem_read(b_addrs, _F32,
                     count=b_reqs_per_row * shape.k * grid_y * grid_x,
                     site="gm.load_image_gather",
                     l2_reuse=float(k_taps))

    panel_units = (t.bm * t.bk + t.bk * t.bn) / (4.0 * arch.warp_size)
    tracer.smem_write(lanes * 16, 16, count=panel_units * ksteps * blocks,
                      site="sm.store_panels")

    x_ids = lanes % t.threads_x
    y_ids = lanes // t.threads_x
    rounds = float(warps) * t.bk * ksteps * blocks
    for u in range(t.tm // t.n):
        tracer.smem_read((u * t.threads_x + x_ids) * unit, unit,
                         count=rounds, site="sm.load_a_col")
    for u in range(t.tn // t.n):
        tracer.smem_read((u * t.threads_y + y_ids) * unit, unit,
                         count=rounds, site="sm.load_b_row")

    tracer.flops(2.0 * t.bm * t.bn * t.bk * ksteps * blocks)

    w_width = _aligned_width(shape.n)
    run_w = max(1, t.bn * _F32 // w_width)
    wb = (lanes % run_w) * w_width + (lanes // run_w) * shape.n * _F32
    wb_rows = min(shape.m, grid_x * t.bm)
    tracer.gmem_write(wb, w_width,
                      count=wb_rows * run_w / arch.warp_size * grid_y,
                      site="gm.store_out")

    tracer.sync(2.0 * ksteps * blocks)
    return tracer.finish(name=kernel.name, launch=launch,
                         software_prefetch=True)


def frozen_im2col_cost(kernel, problem):
    valid = problem.as_valid()
    shape = kernel.gemm_shape(problem)
    gemm_cost = frozen_gemm_cost(kernel.gemm, shape)

    tracer = KernelTracer(kernel.arch, kernel.bank_policy)
    lanes = np.arange(kernel.arch.warp_size, dtype=np.int64)
    total = shape.k * shape.n
    ow = valid.out_width
    s = valid.stride
    run = min(ow, kernel.arch.warp_size)
    gather = ((lanes % run) * s * _F32
              + (lanes // run) * valid.width * s * _F32)
    reqs = total / kernel.arch.warp_size
    tracer.gmem_read(gather, _F32, count=reqs, site="gm.im2col_gather",
                     l2_reuse=float(valid.kernel_size ** 2))
    tracer.gmem_write(lanes * _F32, _F32, count=reqs,
                      site="gm.im2col_store")

    threads = 256
    grid = max(1, math.ceil(total / threads))
    lower_launch = LaunchConfig(
        grid=Dim3(x=grid), block=Dim3(x=threads),
        registers_per_thread=20, smem_per_block=0,
    )
    lower_cost = tracer.finish(name="im2col.lower", launch=lower_launch)

    gemm_cost.ledger.merge(lower_cost.ledger)
    if valid.groups > 1:
        gemm_cost.ledger.scale(float(valid.groups))
    return KernelCost(
        name=kernel.name,
        launch=gemm_cost.launch,
        ledger=gemm_cost.ledger,
        software_prefetch=True,
        launches=2 * valid.groups,
    )


def frozen_naive_cost(kernel, problem):
    valid = problem.as_valid()
    k = valid.kernel_size
    launch = kernel.launch_config(problem)
    arch = kernel.arch
    tracer = KernelTracer(arch)
    lanes = np.arange(arch.warp_size, dtype=np.int64)

    outputs = valid.filters * valid.out_height * valid.out_width
    warp_count = outputs / arch.warp_size
    taps = k * k * valid.channels_per_group

    s = valid.stride
    x_step = s * _F32
    row_step = valid.width * s * _F32
    if valid.layout is Layout.NHWC:
        x_step *= valid.channels
        row_step *= valid.channels
    run = min(valid.out_width, arch.warp_size)
    gather = (lanes % run) * x_step + (lanes // run) * row_step
    tracer.gmem_read(gather, _F32, count=warp_count * taps,
                     site="gm.image_tap", l2_reuse=float(k * k))

    flt_slab = valid.filters * taps * _F32
    tracer.gmem_read(np.zeros(arch.warp_size, dtype=np.int64), _F32,
                     count=warp_count * taps, site="gm.filter_tap",
                     l2_reuse=cross_block_reuse(
                         arch, flt_slab, warp_count, cap=1024.0))

    tracer.flops(2.0 * taps * outputs)

    out_run = min(valid.out_width, arch.warp_size)
    out_x = _F32
    out_row = valid.out_width * _F32
    if valid.layout is Layout.NHWC:
        out_x *= valid.filters
        out_row *= valid.filters
    out_pat = (lanes % out_run) * out_x + (lanes // out_run) * out_row
    tracer.gmem_write(out_pat, _F32, count=warp_count, site="gm.store_out")

    return tracer.finish(name=kernel.name, launch=launch)


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------

ARCHS = [KEPLER_K40M, FERMI_M2090]
POLICIES = [BankConflictPolicy.WORD_MERGE, BankConflictPolicy.PAPER]


@pytest.fixture
def lookup_log(monkeypatch):
    """Every canonical-pattern lookup, as (memory model, args, pattern)."""
    log = []
    real_lookup = KernelTracer._lookup

    def recording_lookup(self, cache, access, canon, args, rowbytes):
        log.append((type(access.__self__).__name__, args, rowbytes))
        return real_lookup(self, cache, access, canon, args, rowbytes)

    monkeypatch.setattr(KernelTracer, "_lookup", recording_lookup)
    return log


def outcome(cost_fn, *args):
    """The cost, or the (type, message) of the error it raised."""
    try:
        return cost_fn(*args)
    except ReproError as exc:
        return (type(exc).__name__, str(exc))


def assert_same(cost_fn, frozen_fn, args, log):
    """Ledger, site order and lookups equal; returns whether it costed."""
    del log[:]
    ours = outcome(cost_fn, *args)
    our_lookups = list(log)
    del log[:]
    frozen = outcome(frozen_fn, *args)
    where = tuple(getattr(a, "name", a) for a in args)
    assert our_lookups == list(log), where
    if isinstance(frozen, tuple):
        assert ours == frozen, where
        return False
    assert kernel_cost_diffs(ours, frozen) == [], where
    assert list(ours.ledger.sites) == list(frozen.ledger.sites), where
    assert ours.name == frozen.name, where
    return True


def churn_style_shapes():
    """32 serving shapes: plain, stride 2, dilation 2 and depthwise in
    turn; K 3 and 5; H 16-64; C through every value 1-16 twice."""
    shapes = []
    for i in range(32):
        c = 1 + (7 * i) % 16
        axes = ({}, {"stride": 2}, {"dilation": 2}, {"groups": c})[i % 4]
        shapes.append(ConvProblem.square(
            16 + (13 * i) % 49, (3, 5)[(i // 4) % 2], channels=c,
            filters=c * (1 + (5 * i) % 4),
            padding=(Padding.VALID, Padding.SAME)[(i // 8) % 2], **axes))
    return shapes


def conv_shapes():
    """Churn shapes plus the paper's figure shapes and layout variants."""
    return churn_style_shapes() + [
        ConvProblem.square(512, 3, channels=1, filters=32),
        ConvProblem.square(128, 5, channels=64, filters=128),
        ConvProblem.square(58, 3, channels=16, filters=24, stride=2),
        ConvProblem.square(47, 7, channels=3, filters=8, dilation=2),
        ConvProblem.square(33, 3, channels=12, filters=12, groups=4),
        ConvProblem.square(40, 3, channels=8, filters=16, stride=2,
                           groups=2, padding=Padding.SAME),
        ConvProblem.square(36, 3, channels=4, filters=8,
                           layout=Layout.NHWC),
        ConvProblem.square(35, 5, channels=6, filters=10, stride=3,
                           dilation=2, layout=Layout.NHWC),
    ]


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------

class TestShapes:
    def test_shapes_cover_the_serving_axes(self):
        shapes = churn_style_shapes()
        assert len(set(shapes)) == 32
        assert {p.channels for p in shapes} == set(range(1, 17))
        assert {(p.stride, p.dilation) for p in shapes} == {
            (1, 1), (2, 1), (1, 2)}
        assert any(p.groups == p.channels > 1 for p in shapes)
        assert {p.kernel_size for p in shapes} == {3, 5}
        assert min(p.height for p in shapes) == 16
        assert max(p.height for p in shapes) == 64


class TestTiledGemm:
    @pytest.mark.parametrize("arch", list(ARCHITECTURES.values()),
                             ids=lambda a: a.name)
    def test_fig2_tilings_match(self, arch, lookup_log):
        for make in (magma_fermi_gemm, magma_matched_gemm, cublas_like_gemm):
            kernel = make(arch)
            for dim in gemm_sweep_dims():
                assert assert_same(TiledGemmKernel.cost, frozen_gemm_cost,
                                   (kernel, GemmShape.square(dim)),
                                   lookup_log)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
    def test_ragged_shapes_and_policies(self, policy, lookup_log):
        shapes = [GemmShape(m=m, n=n, k=k)
                  for m, n, k in ((1, 1, 1), (7, 900, 27), (96, 3025, 363),
                                  (128, 196, 1152), (33, 65, 17))]
        for arch in ARCHS:
            for tiling in (CUBLAS_KEPLER_TILING,) + DEFAULT_TILE_PALETTE:
                kernel = TiledGemmKernel(tiling, arch, bank_policy=policy)
                for shape in shapes:
                    assert assert_same(TiledGemmKernel.cost,
                                       frozen_gemm_cost, (kernel, shape),
                                       lookup_log)


def ungrouped_conv_shapes():
    """The conv shapes the implicit GEMM prices (it refuses groups > 1)."""
    return [p for p in conv_shapes() if p.groups == 1]


class TestImplicitGemm:
    @pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
    def test_every_palette_tile_matches(self, arch, lookup_log):
        costed = 0
        for policy in POLICIES:
            kernel = ImplicitGemmKernel(arch=arch, bank_policy=policy)
            for problem in ungrouped_conv_shapes():
                for tiling in DEFAULT_TILE_PALETTE:
                    costed += assert_same(
                        ImplicitGemmKernel._cost_with,
                        frozen_implicit_cost_with,
                        (kernel, problem, tiling), lookup_log)
        assert costed == (2 * len(ungrouped_conv_shapes())
                          * len(DEFAULT_TILE_PALETTE))

    @pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
    def test_fixed_tiling_matches(self, arch, lookup_log):
        kernel = ImplicitGemmKernel(arch=arch, tiling=CUBLAS_KEPLER_TILING)

        def frozen(kernel, problem):
            return frozen_implicit_cost_with(kernel, problem,
                                             CUBLAS_KEPLER_TILING)

        for problem in ungrouped_conv_shapes():
            assert assert_same(ImplicitGemmKernel.cost, frozen,
                               (kernel, problem), lookup_log)

    @pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
    def test_grouped_problems_raise(self, arch):
        grouped = [p for p in conv_shapes() if p.groups > 1]
        assert grouped
        palette = ImplicitGemmKernel(arch=arch)
        fixed = ImplicitGemmKernel(arch=arch, tiling=CUBLAS_KEPLER_TILING)
        for problem in grouped:
            message = ("the implicit-GEMM kernel handles ungrouped "
                       "convolution, got %s" % problem.describe())
            for price in (
                    lambda: palette.cost(problem),
                    lambda: fixed.cost(problem),
                    lambda: palette._cost_with(problem, CUBLAS_KEPLER_TILING),
                    lambda: palette.predict(problem),
                    lambda: fixed.predict(problem),
                    lambda: palette.select_tiling(problem)):
                with pytest.raises(ShapeError) as info:
                    price()
                assert str(info.value) == message
        # ``run`` refuses the same problems with the same message.
        problem = grouped[0]
        image = np.zeros(problem.image_shape, dtype=np.float32)
        filters = np.zeros((problem.filters, problem.channels_per_group,
                            problem.kernel_size, problem.kernel_size),
                           dtype=np.float32)
        with pytest.raises(ShapeError, match="handles ungrouped"):
            fixed.run(image, filters, problem=problem)


class TestIm2col:
    @pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
    def test_grouped_and_strided_problems_match(self, arch, lookup_log):
        shapes = conv_shapes()
        assert any(p.groups > 1 for p in shapes)
        assert any(p.stride > 1 for p in shapes)
        for policy in POLICIES:
            kernel = Im2colKernel(arch=arch, bank_policy=policy)
            for problem in shapes:
                assert assert_same(Im2colKernel.cost, frozen_im2col_cost,
                                   (kernel, problem), lookup_log)


class TestNaive:
    @pytest.mark.parametrize("arch", list(ARCHITECTURES.values()),
                             ids=lambda a: a.name)
    def test_layouts_strides_and_dilations_match(self, arch, lookup_log):
        shapes = conv_shapes()
        assert any(p.layout is Layout.NHWC and p.stride > 1 for p in shapes)
        kernel = NaiveDirectKernel(arch=arch)
        for problem in shapes:
            assert assert_same(NaiveDirectKernel.cost, frozen_naive_cost,
                               (kernel, problem), lookup_log)


class TestAccessCacheTraffic:
    @pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
    def test_hits_and_misses_match_frozen_replays(self, arch):
        im2col = Im2colKernel(arch=arch)
        implicit = ImplicitGemmKernel(arch=arch)
        naive = NaiveDirectKernel(arch=arch)

        def deltas(cost_im2col, cost_with, cost_naive):
            clear_access_caches()
            before = access_cache_stats()
            for problem in churn_style_shapes():
                outcome(cost_im2col, im2col, problem)
                if problem.groups == 1:
                    for tiling in DEFAULT_TILE_PALETTE:
                        outcome(cost_with, implicit, problem, tiling)
                outcome(cost_naive, naive, problem)
            after = access_cache_stats()
            return (after["hits"] - before["hits"],
                    after["misses"] - before["misses"])

        ours = deltas(Im2colKernel.cost, ImplicitGemmKernel._cost_with,
                      NaiveDirectKernel.cost)
        frozen = deltas(frozen_im2col_cost, frozen_implicit_cost_with,
                        frozen_naive_cost)
        clear_access_caches()
        assert ours == frozen
        assert ours[1] > 0 and ours[0] > ours[1]
