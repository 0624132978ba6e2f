"""Pins ``SpecialCaseKernel.cost`` to its original per-request replay.

``SpecialCaseKernel.cost`` (and through it ``DepthwiseKernel.cost`` and
both special-case searches) folds every access site from
geometry-cached prepared batches.  ``frozen_special_cost`` below is a
copy of the replay it replaced (comments dropped), which traced every
site from fresh address patterns, one tracer call per warp request.
Both must produce the same ``KernelCost`` field for field (exact
``==``, so a one-ulp drift in any counter fails), the same site
insertion order and the same sequence of canonical-pattern lookups.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from repro.conv.blocking import BlockGrid
from repro.conv.tensors import ConvProblem, Layout, Padding
from repro.core.bankwidth import DataType
from repro.core.config import SpecialCaseConfig
from repro.core.depthwise import DepthwiseKernel
from repro.core.dse import enumerate_special_configs
from repro.core.special import SpecialCaseKernel
from repro.errors import ReproError
from repro.gpu.arch import ARCHITECTURES
from repro.gpu.fastsim import kernel_cost_diffs
from repro.gpu.memory.banks import BankConflictPolicy
from repro.gpu.simt import Dim3, LaunchConfig
from repro.gpu.trace import KernelCost, KernelTracer


# ----------------------------------------------------------------------
# The frozen replay (do not edit: it is the reference)
# ----------------------------------------------------------------------

def frozen_launch_config(kernel, problem):
    valid = kernel._check_problem(problem)
    grid = BlockGrid(valid, kernel.config.block_spec())
    k = valid.kernel_size
    s, d = valid.stride, valid.dilation
    return LaunchConfig(
        grid=Dim3(x=grid.blocks_x, y=grid.blocks_y),
        block=Dim3(x=kernel.config.threads(kernel.n)),
        registers_per_thread=kernel.config.registers_per_thread(
            k, kernel.n, s, d),
        smem_per_block=kernel.config.smem_bytes(
            k, kernel.n, kernel.elem_bytes, s, d),
    )


def frozen_special_cost(kernel, problem):
    valid = kernel._check_problem(problem)
    cfg = kernel.config
    k = valid.kernel_size
    n = kernel.n
    launch = frozen_launch_config(kernel, problem)
    blocks = launch.total_blocks
    threads = cfg.threads(n)
    warps = math.ceil(threads / kernel.arch.warp_size)
    h = cfg.block_h
    f_count = valid.filters

    tracer = KernelTracer(kernel.arch, kernel.bank_policy)
    lanes = np.arange(kernel.arch.warp_size, dtype=np.int64)
    elem = kernel.elem_bytes
    unit = n * elem
    s, d = valid.stride, valid.dilation
    span = valid.span

    rows_per_block = (h - 1) * s + span
    footprint = (cfg.block_w - 1) * s + span
    row_pattern = lanes * unit
    if s == 1:
        tracer.gmem_read(
            row_pattern, unit, count=float(warps * rows_per_block * blocks),
            site="gm.load_row",
        )
        halo_units = math.ceil((span - 1) / n)
        if halo_units:
            halo_pattern = cfg.block_w * elem + np.arange(halo_units) * unit
            tracer.gmem_read(
                halo_pattern, unit, count=float(rows_per_block * blocks),
                site="gm.load_row_halo",
            )
    else:
        total_units = math.ceil(footprint / n)
        full_rounds = total_units // kernel.arch.warp_size
        tail_units = total_units % kernel.arch.warp_size
        if full_rounds:
            tracer.gmem_read(
                row_pattern, unit,
                count=float(full_rounds * rows_per_block * blocks),
                site="gm.load_row",
            )
        if tail_units:
            tracer.gmem_read(
                lanes[:tail_units] * unit, unit,
                count=float(rows_per_block * blocks),
                site="gm.load_row_halo",
            )

    if s == 1:
        tracer.smem_write(
            row_pattern, unit, count=float(warps * rows_per_block * blocks),
            site="sm.store_row",
        )
        if halo_units:
            halo_sm = cfg.block_w * elem + np.arange(halo_units) * unit
            tracer.smem_write(
                halo_sm, unit, count=float(rows_per_block * blocks),
                site="sm.store_row_halo",
            )
    else:
        if full_rounds:
            tracer.smem_write(
                row_pattern, unit,
                count=float(full_rounds * rows_per_block * blocks),
                site="sm.store_row",
            )
        if tail_units:
            tracer.smem_write(
                lanes[:tail_units] * unit, unit,
                count=float(rows_per_block * blocks),
                site="sm.store_row_halo",
            )

    slice_floats = (n - 1) * s + span
    window_units = math.ceil(slice_floats / n)
    fresh_taps = s // d if (s % d == 0 and s // d < k) else k
    row_reads = (k - fresh_taps) + h * fresh_taps
    for u in range(window_units):
        pattern = lanes * (n * s * elem) + u * unit
        tracer.smem_read(
            pattern, unit, count=float(warps * row_reads * blocks),
            site="sm.load_window",
        )

    cm = kernel.arch
    working_set = f_count * k * k * elem
    hit = tracer.cmem.hit_rate(working_set)
    broadcasts = float(warps * h * f_count * k * k * blocks)
    tracer.cmem_read(np.zeros(cm.warp_size, dtype=np.int64), count=broadcasts,
                     site="cm.filter_tap")
    if hit < 1.0:
        miss_reads = broadcasts * (1.0 - hit)
        tracer.gmem_read(np.zeros(1, dtype=np.int64), elem, count=miss_reads,
                         site="gm.cm_miss")

    tracer.flops(2.0 * k * k * f_count * cfg.block_w * h * blocks)

    ow = valid.out_width
    write_pattern = lanes * unit
    if (ow * elem) % kernel.arch.gmem_transaction_size:
        tracer.gmem_write(write_pattern, unit,
                          count=float(warps * h * f_count * blocks) / 2.0,
                          site="gm.store_out")
        tracer.gmem_write(write_pattern + unit, unit,
                          count=float(warps * h * f_count * blocks) / 2.0,
                          site="gm.store_out_misaligned")
    else:
        tracer.gmem_write(write_pattern, unit,
                          count=float(warps * h * f_count * blocks),
                          site="gm.store_out")

    tracer.sync(float((2 * h + 1) * blocks))

    return tracer.finish(
        name=kernel.name, launch=launch, software_prefetch=True,
    )


def frozen_depthwise_cost(kernel, problem):
    valid = kernel._check_problem(problem)
    g_cost = frozen_special_cost(kernel.special, kernel.group_problem(valid))
    ledger = g_cost.ledger
    if valid.groups > 1:
        ledger.scale(float(valid.groups))
    launch = replace(g_cost.launch,
                     grid=replace(g_cost.launch.grid, z=valid.groups))
    return KernelCost(
        name=kernel.name,
        launch=launch,
        ledger=ledger,
        software_prefetch=g_cost.software_prefetch,
        launches=g_cost.launches,
    )


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------

ARCHS = list(ARCHITECTURES.values())
POLICIES = [BankConflictPolicy.WORD_MERGE, BankConflictPolicy.PAPER]
AXES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]


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


def outcome(cost_fn, kernel, problem):
    """The cost, or the (type, message) of the error it raised."""
    try:
        return cost_fn(kernel, problem)
    except ReproError as exc:
        return (type(exc).__name__, str(exc))


def replay(cost_fn, kernel, problem, log):
    del log[:]
    return outcome(cost_fn, kernel, problem), list(log)


def assert_same(cost_fn, frozen_fn, kernel, problem, log):
    """Ledger, site order and lookups equal; returns whether it costed."""
    ours, our_lookups = replay(cost_fn, kernel, problem, log)
    frozen, frozen_lookups = replay(frozen_fn, kernel, problem, log)
    where = (kernel.name, getattr(kernel, "config", None), problem.describe())
    assert our_lookups == frozen_lookups, where
    if isinstance(frozen, tuple):
        assert ours == frozen, where
        return False
    assert kernel_cost_diffs(ours, frozen) == [], where
    assert list(ours.ledger.sites) == list(frozen.ledger.sites), where
    assert ours.name == frozen.name, where
    return True


def assert_special(kernel, problem, log):
    return assert_same(SpecialCaseKernel.cost, frozen_special_cost,
                       kernel, problem, log)


def assert_depthwise(kernel, problem, log):
    return assert_same(DepthwiseKernel.cost, frozen_depthwise_cost,
                       kernel, problem, log)


def churn_style_shapes(depthwise=False):
    """32 serving shapes: plain, stride 2, dilation 2 and stride 2 with
    dilation 2 in turn; K 3 and 5; H 16-64 and F 1-16.  ``depthwise``
    gives every shape C 1-16 channels in as many groups."""
    shapes = []
    for i in range(32):
        stride, dilation = ((1, 1), (2, 1), (1, 2), (2, 2))[i % 4]
        channels = 1 + (7 * i) % 16 if depthwise else 1
        shapes.append(ConvProblem.square(
            16 + (13 * i) % 49, (3, 5)[(i // 4) % 2],
            channels=channels, filters=channels * (1 + (5 * i) % 4),
            groups=channels,
            padding=(Padding.VALID, Padding.SAME)[(i // 8) % 2],
            stride=stride, dilation=dilation))
    return shapes


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------

class TestSearchSpace:
    """Every special-case search candidate, on every preset."""

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
    @pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
    def test_configs_kernel_sizes_and_axes(self, arch, policy, lookup_log):
        costed = 0
        for cfg in enumerate_special_configs():
            kernel = SpecialCaseKernel(arch=arch, config=cfg,
                                       bank_policy=policy)
            for k in (1, 3, 5, 7):
                for stride, dilation in AXES:
                    for n, padding in ((300, Padding.VALID),
                                       (256, Padding.SAME)):
                        if padding is Padding.SAME and k % 2 == 0:
                            continue
                        problem = ConvProblem.square(
                            n, k, channels=1, filters=8, padding=padding,
                            stride=stride, dilation=dilation)
                        costed += assert_special(kernel, problem, lookup_log)
        assert costed > 400

    def test_both_writeback_alignments_are_covered(self):
        """The pinned shapes hit the aligned and the split writeback."""
        kernel = SpecialCaseKernel()
        sites = set()
        for n, padding in ((300, Padding.VALID), (256, Padding.SAME)):
            problem = ConvProblem.square(n, 3, channels=1, filters=8,
                                         padding=padding)
            sites |= set(kernel.cost(problem).ledger.sites)
        assert "gm.store_out_misaligned[gmem.write]" in sites
        assert "gm.store_out[gmem.write]" in sites


class TestVectorWidthAndDataType:
    @pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
    def test_unmatched_and_short_types(self, arch, lookup_log):
        costed = 0
        for matched in (True, False):
            for dtype in (DataType.FLOAT, DataType.HALF, DataType.CHAR):
                for policy in POLICIES:
                    for cfg in (SpecialCaseConfig(block_w=256, block_h=8),
                                SpecialCaseConfig(block_w=64, block_h=2)):
                        kernel = SpecialCaseKernel(
                            arch=arch, config=cfg, matched=matched,
                            bank_policy=policy, dtype=dtype)
                        for k in (1, 3, 5):
                            for stride, dilation in AXES:
                                problem = ConvProblem.square(
                                    129, k, channels=1, filters=32,
                                    stride=stride, dilation=dilation)
                                costed += assert_special(
                                    kernel, problem, lookup_log)
        assert costed > 200

    def test_constant_cache_misses_are_covered(self, lookup_log):
        """A filter bank past the constant cache prices ``gm.cm_miss``."""
        kernel = SpecialCaseKernel()
        problem = ConvProblem.square(256, 7, channels=1, filters=300)
        assert assert_special(kernel, problem, lookup_log)
        assert "gm.cm_miss[gmem.read]" in kernel.cost(problem).ledger.sites


class TestDepthwise:
    @pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
    def test_grouped_costs_match(self, arch, lookup_log):
        costed = 0
        for policy in POLICIES:
            for cfg in (SpecialCaseConfig(block_w=256, block_h=8),
                        SpecialCaseConfig(block_w=64, block_h=4)):
                kernel = DepthwiseKernel(arch=arch, config=cfg,
                                         bank_policy=policy)
                for problem in churn_style_shapes(depthwise=True):
                    costed += assert_depthwise(kernel, problem, lookup_log)
                nhwc = ConvProblem.square(40, 3, channels=8, filters=16,
                                          groups=8, layout=Layout.NHWC)
                costed += assert_depthwise(kernel, nhwc, lookup_log)
        assert costed > 100


class TestChurnShapes:
    def test_shapes_cover_the_serving_axes(self):
        for depthwise in (False, True):
            shapes = churn_style_shapes(depthwise)
            assert len(set(shapes)) == 32
            assert {(p.stride, p.dilation) for p in shapes} == set(AXES[:4])
            assert {p.kernel_size for p in shapes} == {3, 5}
            assert min(p.height for p in shapes) == 16
            assert max(p.height for p in shapes) == 64
        assert {p.channels for p in churn_style_shapes(True)} == set(
            range(1, 17))

    @pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
    def test_special_search_space_on_churn_shapes(self, arch, lookup_log):
        costed = 0
        for cfg in enumerate_special_configs():
            kernel = SpecialCaseKernel(arch=arch, config=cfg)
            for problem in churn_style_shapes():
                costed += assert_special(kernel, problem, lookup_log)
        assert costed > 100


class TestValidation:
    def test_cost_checks_the_problem_once(self):
        """The launch comes from the already-checked problem."""
        kernel = SpecialCaseKernel()
        problem = ConvProblem.square(64, 3, channels=1, filters=4)
        with mock.patch.object(SpecialCaseKernel, "_check_problem",
                               autospec=True,
                               side_effect=SpecialCaseKernel._check_problem
                               ) as check:
            cost = kernel.cost(problem)
        assert check.call_count == 1
        assert cost.launch == kernel.launch_config(problem)
