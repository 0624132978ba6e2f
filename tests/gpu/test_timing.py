"""Tests for the analytical timing model."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core import dse
from repro.errors import TraceError
from repro.gpu import timing
from repro.gpu.arch import FERMI_M2090, KEPLER_K40M
from repro.gpu.simt import Dim3, LaunchConfig
from repro.gpu.timing import (
    COMPUTE_EFFICIENCY,
    ETA_MAX,
    LAUNCH_OVERHEAD_S,
    TimingBreakdown,
    TimingModel,
)
from repro.gpu.trace import KernelCost, KernelTracer


def make_cost(kepler, flops=1e9, gmem_reqs=0, smem_reqs=0, blocks=1000,
              threads=256, prefetch=False, smem_bytes=0):
    tracer = KernelTracer(kepler)
    tracer.flops(flops)
    if gmem_reqs:
        tracer.gmem_read(np.arange(32) * 4, 4, count=gmem_reqs)
    if smem_reqs:
        tracer.smem_read(np.arange(32) * 8, 8, count=smem_reqs)
    launch = LaunchConfig(grid=Dim3(blocks), block=Dim3(threads),
                          registers_per_thread=32, smem_per_block=smem_bytes)
    return tracer.finish(name="t", launch=launch, software_prefetch=prefetch)


class TestComponents:
    def test_pure_compute_time(self, kepler):
        model = TimingModel(kepler)
        cost = make_cost(kepler, flops=1e9)
        tb = model.evaluate(cost)
        expected = 1e9 / (kepler.peak_sp_gflops * 1e9 * COMPUTE_EFFICIENCY)
        assert tb.t_compute == pytest.approx(expected)
        assert tb.bound_by == "compute"

    def test_gmem_bound_kernel(self, kepler):
        model = TimingModel(kepler)
        cost = make_cost(kepler, flops=1.0, gmem_reqs=1e7)
        tb = model.evaluate(cost)
        assert tb.bound_by == "gmem"
        assert tb.t_gmem > tb.t_compute

    def test_smem_bound_kernel(self, kepler):
        model = TimingModel(kepler)
        cost = make_cost(kepler, flops=1.0, smem_reqs=1e8)
        tb = model.evaluate(cost)
        assert tb.bound_by == "smem"

    def test_l2_never_dominates_dram_for_unreused_traffic(self, kepler):
        model = TimingModel(kepler)
        cost = make_cost(kepler, flops=1.0, gmem_reqs=1e7)
        tb = model.evaluate(cost)
        assert tb.t_l2 < tb.t_gmem

    def test_total_at_least_max_component(self, kepler):
        model = TimingModel(kepler)
        cost = make_cost(kepler, flops=1e10, gmem_reqs=1e6, smem_reqs=1e6)
        tb = model.evaluate(cost)
        assert tb.total >= max(tb.t_compute, tb.t_gmem, tb.t_smem)

    def test_launch_overhead_floor(self, kepler):
        model = TimingModel(kepler)
        cost = make_cost(kepler, flops=1.0)
        assert model.evaluate(cost).total >= LAUNCH_OVERHEAD_S


class TestOverlap:
    def test_prefetch_helps_at_low_occupancy(self, kepler):
        # 24 KB of smem per block -> 2 blocks/SM -> 16 warps; without
        # prefetch that is exactly the hiding threshold, with prefetch
        # it saturates.  Use 8 warps to see the difference.
        cost = make_cost(kepler, flops=1e9, gmem_reqs=1e6, threads=128,
                         smem_bytes=24 * 1024)
        model = TimingModel(kepler)
        with_pf = model.evaluate(dataclasses.replace(cost, software_prefetch=True))
        without = model.evaluate(dataclasses.replace(cost, software_prefetch=False))
        assert with_pf.eta >= without.eta
        assert with_pf.total <= without.total

    def test_eta_bounded(self, kepler):
        model = TimingModel(kepler)
        tb = model.evaluate(make_cost(kepler, flops=1e9))
        assert 0.0 <= tb.eta <= ETA_MAX


class TestWaves:
    def test_small_grid_pays_quantization(self, kepler):
        model = TimingModel(kepler)
        big = model.evaluate(make_cost(kepler, flops=1e10, blocks=10000))
        small = model.evaluate(make_cost(kepler, flops=1e10, blocks=10))
        # Same work on 10 blocks cannot use the whole machine.
        assert small.total > big.total
        assert small.waves < 1.0

    def test_gflops_helper(self, kepler):
        model = TimingModel(kepler)
        tb = model.evaluate(make_cost(kepler, flops=1e9))
        assert tb.gflops(1e9) == pytest.approx(1.0 / tb.total / 1e9 * 1e9)

    def test_gflops_rejects_zero_time(self, kepler):
        model = TimingModel(kepler)
        tb = model.evaluate(make_cost(kepler, flops=1e9))
        bad = dataclasses.replace(tb, total=0.0)
        with pytest.raises(TraceError):
            bad.gflops(1e9)


class TestSync:
    def test_sync_cost_scales_with_barriers(self, kepler):
        model = TimingModel(kepler)
        tracer = KernelTracer(kepler)
        tracer.flops(1e9)
        tracer.sync(100 * 1000)
        launch = LaunchConfig(grid=Dim3(1000), block=Dim3(256),
                              registers_per_thread=32)
        heavy = model.evaluate(tracer.finish(name="s", launch=launch))
        light = model.evaluate(make_cost(kepler, flops=1e9, blocks=1000))
        assert heavy.t_sync > light.t_sync


def frozen_bound_by(tb):
    """``TimingBreakdown.bound_by`` before it dropped the dict and lambda
    (the reference; do not edit)."""
    parts = {
        "compute": tb.t_compute,
        "gmem": tb.t_gmem,
        "l2": tb.t_l2,
        "smem": tb.t_smem,
        "cmem": tb.t_cmem,
    }
    return max(parts, key=lambda k: parts[k])


class TestBoundByMatchesFrozen:
    @pytest.mark.parametrize("times", [
        (1.0, 2.0, 3.0, 4.0, 5.0),
        (5.0, 4.0, 3.0, 2.0, 1.0),
        (0.0, 0.0, 0.0, 0.0, 0.0),          # every component ties
        (1.0, 3.0, 3.0, 0.5, 3.0),          # first of three tied maxima
        (2.0, 1.0, 2.0, 2.0, 0.0),          # ties with compute
        (0.0, 0.0, 0.0, 0.0, 1e-300),
        (float("nan"), 1.0, 2.0, 0.0, 0.0),
        (1.0, float("nan"), 2.0, 0.0, 3.0),
    ])
    def test_first_largest_component(self, times):
        tb = TimingBreakdown("k", *times, t_sync=0.0, t_launch=0.0,
                             eta=0.5, waves=1.0, occupancy_fraction=0.5,
                             total=1.0)
        assert tb.bound_by == frozen_bound_by(tb)


class TestSumOrder:
    """``evaluate`` adds its five components left to right itself, so
    a compensated built-in ``sum`` (Python 3.12's) moves no price."""

    @staticmethod
    def _rows():
        rows = []
        for arch in (KEPLER_K40M, FERMI_M2090):
            for ranked in (dse.explore_general(3, arch),
                           dse.explore_special(arch)):
                rows.extend((arch.name, repr(r.config), r.gflops.hex())
                            for r in ranked)
        return rows

    def test_rankings_hold_under_a_compensated_sum(self, monkeypatch):
        plain = self._rows()
        monkeypatch.setattr(timing, "sum", math.fsum, raising=False)
        compensated = self._rows()
        assert len(plain) > 1000
        assert [row for row, other in zip(compensated, plain)
                if row != other] == []
