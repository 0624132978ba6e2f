"""Tests for grid/block geometry and launch validation."""

import copy
import dataclasses
import pickle

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

    @pytest.mark.parametrize("x, y, z", [
        (4, 3, 2), (np.int64(7), 3, 1), (np.int32(5), np.int16(6),
                                         np.uint8(9)),
        (2 ** 31 - 1, 65535, 64)])
    def test_count_is_the_int_product(self, x, y, z):
        dim = Dim3(x, y, z)
        assert dim.count == int(x) * int(y) * int(z)
        assert type(dim.count) is int

    def test_count_is_kept_not_a_field(self):
        dim = Dim3(np.int64(8), 4, 2)
        assert [f.name for f in dataclasses.fields(dim)] == ["x", "y", "z"]
        assert dim == Dim3(8, 4, 2)
        assert hash(dim) == hash(Dim3(8, 4, 2)) == hash((8, 4, 2))
        assert repr(Dim3(8, 4, 2)) == "Dim3(x=8, y=4, z=2)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            dim.count = 1
        assert dataclasses.replace(dim, z=3).count == 96

    @pytest.mark.parametrize("clone", [
        lambda d: pickle.loads(pickle.dumps(d)), copy.copy, copy.deepcopy,
        lambda d: dataclasses.replace(d)], ids=["pickle", "copy",
                                               "deepcopy", "replace"])
    def test_count_survives_copies(self, clone):
        dim = Dim3(np.int64(8), 4, 2)
        twin = clone(dim)
        assert twin == dim and twin.count == 64


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

