"""Tests for the occupancy calculator."""

import dataclasses

import pytest

from repro.core.bankwidth import matched_vector
from repro.core.dse import (
    DEFAULT_SPECIAL_PROBLEM,
    default_general_problem,
    enumerate_general_configs,
    enumerate_special_configs,
)
from repro.core.general import GeneralCaseKernel
from repro.core.special import SpecialCaseKernel
from repro.errors import LaunchConfigError, ReproError, ResourceError
from repro.gpu.arch import ARCHITECTURES, KEPLER_K40M, GPUArchitecture
from repro.gpu.occupancy import OccupancyResult, occupancy, occupancy_limits
from repro.gpu.simt import Dim3, LaunchConfig


# ``RegisterFile`` as ``repro.gpu.memory.registers`` defined it before the
# class was deleted (the occupancy rule applies the same rounding in
# integers): the register limit the frozen references were copied with.
# Do not edit it: it is part of the reference.

class RegisterFile:
    """Register allocation rules for one architecture."""

    def __init__(self, arch: GPUArchitecture):
        self.arch = arch

    def check_thread_demand(self, registers_per_thread: int) -> None:
        """Raise if a single thread needs more registers than the ISA allows."""
        if registers_per_thread <= 0:
            raise ResourceError("registers_per_thread must be positive")
        if registers_per_thread > self.arch.max_registers_per_thread:
            raise ResourceError(
                "kernel needs %d registers/thread, %s allows %d"
                % (
                    registers_per_thread,
                    self.arch.name,
                    self.arch.max_registers_per_thread,
                )
            )

    def block_allocation(self, registers_per_thread: int, threads_per_block: int) -> int:
        """Registers actually reserved for one block (granularity-rounded)."""
        self.check_thread_demand(registers_per_thread)
        if threads_per_block <= 0:
            raise ResourceError("threads_per_block must be positive")
        raw = registers_per_thread * threads_per_block
        unit = self.arch.register_alloc_unit
        return (raw + unit - 1) // unit * unit

    def max_blocks(self, registers_per_thread: int, threads_per_block: int) -> int:
        """Blocks per SM permitted by the register file alone."""
        per_block = self.block_allocation(registers_per_thread, threads_per_block)
        if per_block > self.arch.registers_per_sm:
            return 0
        return self.arch.registers_per_sm // per_block


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


# ----------------------------------------------------------------------
# ``occupancy`` against a frozen copy of its earlier definition
# ----------------------------------------------------------------------
#
# ``frozen_occupancy`` copies the calculator before it derived the
# thread and warp counts once and picked its limiter without a lambda.
# Do not edit it: it is the reference.

def frozen_occupancy_limits(arch, launch):
    launch.validate(arch)
    threads = launch.threads_per_block
    warps = launch.warps_per_block(arch.warp_size)
    limits = {
        "threads": arch.max_threads_per_sm // threads,
        "warps": arch.max_warps_per_sm // warps,
        "blocks": arch.max_blocks_per_sm,
    }
    if launch.smem_per_block > 0:
        limits["smem"] = arch.smem_per_sm // launch.smem_per_block
    regs = RegisterFile(arch)
    limits["registers"] = regs.max_blocks(launch.registers_per_thread, threads)
    return limits


def frozen_occupancy(arch, launch):
    warps = launch.warps_per_block(arch.warp_size)
    limits = frozen_occupancy_limits(arch, launch)
    limiter = min(limits, key=lambda k: limits[k])
    blocks = limits[limiter]
    if blocks == 0:
        raise LaunchConfigError(
            "launch cannot be resident on %s: limited by %s" % (arch.name, limiter)
        )
    return OccupancyResult(blocks_per_sm=blocks, warps_per_block=warps, limiter=limiter)


def _outcome(fn, arch, launch_cfg):
    """The result's fields, or the (type, message) of the error."""
    try:
        occ = fn(arch, launch_cfg)
    except ReproError as exc:
        return (type(exc).__name__, str(exc))
    return (occ.blocks_per_sm, occ.warps_per_block, occ.limiter)


def _table1_launches(arch):
    """The launch of every candidate the Table 1 search prices."""
    n = matched_vector(arch).n
    launches = []
    for k in (3, 5, 7):
        problem = default_general_problem(k)
        for cfg in enumerate_general_configs(k, n, arch):
            launches.append(GeneralCaseKernel(arch=arch, config=cfg)
                            .launch_config(problem))
    for cfg in enumerate_special_configs():
        launches.append(SpecialCaseKernel(arch=arch, config=cfg)
                        .launch_config(DEFAULT_SPECIAL_PROBLEM))
    return launches


def _hand_built_launches():
    return [launch(threads, regs, smem)
            for threads in (32, 64, 96, 192, 256, 512, 768, 1024)
            for regs in (16, 21, 32, 63, 64, 128, 255)
            for smem in (0, 1, 1024, 3072, 8192, 16384, 24576, 49152)]


#: Shared memory per SM below the per-block maximum, so a launch can
#: pass validation and still not be resident.
SMALL_SMEM_SM = dataclasses.replace(KEPLER_K40M, name="small-smem",
                                    smem_per_sm=16 * 1024)


class TestMatchesFrozenCopy:
    @pytest.mark.parametrize("arch", list(ARCHITECTURES.values()),
                             ids=lambda a: a.name)
    def test_every_table1_launch(self, arch):
        launches = _table1_launches(arch)
        assert len(launches) > 500
        for launch_cfg in launches:
            assert _outcome(occupancy, arch, launch_cfg) == \
                _outcome(frozen_occupancy, arch, launch_cfg), launch_cfg
            assert occupancy_limits(arch, launch_cfg) == \
                frozen_occupancy_limits(arch, launch_cfg)

    def test_hand_built_launches(self):
        seen = set()
        for arch in list(ARCHITECTURES.values()) + [SMALL_SMEM_SM]:
            for launch_cfg in _hand_built_launches():
                ours = _outcome(occupancy, arch, launch_cfg)
                assert ours == _outcome(frozen_occupancy, arch, launch_cfg), \
                    (arch.name, launch_cfg)
                if isinstance(ours[0], str):
                    seen.add("resident" if "cannot be resident" in ours[1]
                             else "invalid")
                    continue
                limits = occupancy_limits(arch, launch_cfg)
                smallest = [k for k, v in limits.items() if v == ours[0]]
                if len(smallest) > 1:
                    seen.add("tie")
                if launch_cfg.smem_per_block == 0:
                    seen.add("no smem")
        # Ties between limits, launches without shared memory, launches
        # that cannot be resident and launches over the register limit.
        assert seen == {"tie", "no smem", "resident", "invalid"}

    def test_first_smallest_limit_wins_a_tie(self, kepler):
        # 1024 threads: 2048 // 1024 == 64 // 32, a threads/warps tie.
        occ = occupancy(kepler, launch(threads=1024, regs=16))
        assert occ.limiter == "threads"
        # 16 blocks by the block limit and by 3072 bytes of smem.
        occ = occupancy(kepler, launch(threads=32, regs=16, smem=3072))
        assert (occ.blocks_per_sm, occ.limiter) == (16, "blocks")

    def test_cannot_be_resident_names_the_limiter(self):
        with pytest.raises(LaunchConfigError,
                           match="cannot be resident on small-smem: "
                                 "limited by smem"):
            occupancy(SMALL_SMEM_SM, launch(smem=24576))

    def test_over_the_register_limit(self, kepler, fermi):
        with pytest.raises(LaunchConfigError, match="registers/thread"):
            occupancy(fermi, launch(regs=64))
        with pytest.raises(LaunchConfigError, match="block requires"):
            occupancy(kepler, launch(threads=1024, regs=128))
