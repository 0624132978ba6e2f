"""Tests for the occupancy calculator."""

import pytest

from repro.errors import LaunchConfigError
from repro.gpu.occupancy import occupancy
from repro.gpu.simt import Dim3, LaunchConfig


def launch(threads=256, regs=32, smem=0):
    return LaunchConfig(grid=Dim3(64), block=Dim3(threads),
                        registers_per_thread=regs, smem_per_block=smem)


class TestLimits:
    def test_thread_limited(self, kepler):
        occ = occupancy(kepler, launch(threads=1024, regs=16))
        assert occ.blocks_per_sm == 2
        assert occ.limiter in ("threads", "warps")
        assert occ.occupancy_fraction(kepler) == pytest.approx(1.0)

    def test_smem_limited(self, kepler):
        occ = occupancy(kepler, launch(smem=16 * 1024))
        assert occ.limiter == "smem"
        assert occ.blocks_per_sm == 3

    def test_register_limited(self, kepler):
        occ = occupancy(kepler, launch(threads=256, regs=128))
        assert occ.limiter == "registers"
        assert occ.blocks_per_sm == 2

    def test_block_count_limited(self, kepler):
        occ = occupancy(kepler, launch(threads=32, regs=16))
        assert occ.limiter == "blocks"
        assert occ.blocks_per_sm == kepler.max_blocks_per_sm

    def test_warps_per_sm(self, kepler):
        occ = occupancy(kepler, launch(threads=256, regs=32))
        assert occ.warps_per_sm == occ.blocks_per_sm * 8


class TestMonotonicity:
    def test_more_registers_never_increase_occupancy(self, kepler):
        prev = None
        for regs in (16, 32, 64, 128, 255):
            occ = occupancy(kepler, launch(regs=regs))
            if prev is not None:
                assert occ.blocks_per_sm <= prev
            prev = occ.blocks_per_sm

    def test_more_smem_never_increases_occupancy(self, kepler):
        prev = None
        for smem in (1024, 4096, 16384, 48 * 1024):
            occ = occupancy(kepler, launch(smem=smem))
            if prev is not None:
                assert occ.blocks_per_sm <= prev
            prev = occ.blocks_per_sm


class TestErrors:
    def test_unresident_launch_rejected(self, fermi):
        # 1024 threads x 63 registers exceeds Fermi's register file.
        with pytest.raises(LaunchConfigError):
            occupancy(fermi, launch(threads=1024, regs=63))


class TestLimitsBreakdown:
    def test_limits_dictionary_complete(self, kepler):
        from repro.gpu.occupancy import occupancy_limits

        limits = occupancy_limits(kepler, launch(threads=256, regs=64,
                                                 smem=8192))
        assert set(limits) == {"threads", "warps", "blocks", "smem",
                               "registers"}
        assert all(v >= 0 for v in limits.values())
