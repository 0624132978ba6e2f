"""Tests for grid/block geometry and launch validation."""

import numpy as np
import pytest

from repro.errors import LaunchConfigError
from repro.gpu.occupancy import occupancy
from repro.gpu.simt import Dim3, LaunchConfig, lane_ids, warp_count
from repro.gpu.timing import TimingModel
from repro.gpu.trace import KernelCost, TrafficLedger


class TestDim3:
    def test_count(self):
        assert Dim3(4, 3, 2).count == 24

    def test_defaults(self):
        assert Dim3(5).count == 5

    def test_iteration(self):
        assert tuple(Dim3(1, 2, 3)) == (1, 2, 3)

    def test_rejects_zero(self):
        with pytest.raises(LaunchConfigError):
            Dim3(0)

    def test_rejects_negative(self):
        with pytest.raises(LaunchConfigError):
            Dim3(4, -1)


class TestWarps:
    def test_exact_warps(self):
        assert warp_count(128) == 4

    def test_partial_warp_rounds_up(self):
        assert warp_count(100) == 4

    def test_lane_ids_full_warp(self):
        lanes = lane_ids(1, 128)
        assert lanes[0] == 32 and lanes[-1] == 63

    def test_lane_ids_partial_last_warp(self):
        lanes = lane_ids(3, 100)
        assert len(lanes) == 4
        assert lanes[-1] == 99

    def test_lane_ids_out_of_range(self):
        with pytest.raises(LaunchConfigError):
            lane_ids(4, 128)

    def test_warp_count_rejects_nonpositive(self):
        with pytest.raises(LaunchConfigError):
            warp_count(0)


class TestLaunchConfig:
    def test_totals(self):
        lc = LaunchConfig(grid=Dim3(10, 2), block=Dim3(64, 2))
        assert lc.total_blocks == 20
        assert lc.threads_per_block == 128
        assert lc.total_threads == 2560
        assert lc.warps_per_block() == 4
        assert lc.total_warps() == 80

    def test_validate_passes_reasonable_launch(self, kepler):
        LaunchConfig(grid=Dim3(100), block=Dim3(256),
                     registers_per_thread=32, smem_per_block=8192).validate(kepler)

    def test_validate_rejects_too_many_threads(self, kepler):
        lc = LaunchConfig(grid=Dim3(1), block=Dim3(2048))
        with pytest.raises(LaunchConfigError):
            lc.validate(kepler)

    def test_validate_rejects_too_much_smem(self, kepler):
        lc = LaunchConfig(grid=Dim3(1), block=Dim3(32), smem_per_block=64 * 1024)
        with pytest.raises(LaunchConfigError):
            lc.validate(kepler)

    def test_validate_rejects_register_hogs(self, kepler):
        lc = LaunchConfig(grid=Dim3(1), block=Dim3(32), registers_per_thread=300)
        with pytest.raises(LaunchConfigError):
            lc.validate(kepler)

    def test_fermi_register_limit_differs(self, fermi, kepler):
        lc = LaunchConfig(grid=Dim3(1), block=Dim3(32), registers_per_thread=100)
        lc.validate(kepler)
        with pytest.raises(LaunchConfigError):
            lc.validate(fermi)

    @pytest.mark.parametrize("regs,smem,message", [
        (0, 0, "registers_per_thread must be positive, got 0"),
        (-8, 1024, "registers_per_thread must be positive, got -8"),
        (32, -4096, "smem_per_block cannot be negative, got -4096"),
    ], ids=["no-registers", "negative-registers", "negative-smem"])
    def test_launches_that_cannot_run(self, kepler, regs, smem, message):
        # Such a launch used to pass validate: occupancy then raised a
        # ResourceError for the registers, and priced negative shared
        # memory as none (16 blocks per SM, limited by threads).
        lc = LaunchConfig(grid=Dim3(4), block=Dim3(128),
                          registers_per_thread=regs, smem_per_block=smem)
        cost = KernelCost(name="k", launch=lc, ledger=TrafficLedger(flops=1.0))
        for check in (lambda: lc.validate(kepler),
                      lambda: occupancy(kepler, lc),
                      lambda: TimingModel(kepler).evaluate(cost)):
            with pytest.raises(LaunchConfigError, match="^%s$" % message):
                check()

