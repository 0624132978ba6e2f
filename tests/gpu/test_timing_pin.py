"""The timing model and occupancy against frozen copies of their earlier
definitions, bit for bit.

``frozen_validate``, ``frozen_occupancy`` and ``frozen_evaluate`` copy
``LaunchConfig.validate``, ``occupancy`` and ``TimingModel.evaluate``
as they were before the model resolved its rates once per model and
occupancy became one integer rule.  Do not edit them: they are the
reference.  Every breakdown field is compared as ``float.hex`` over a
seeded sweep of launches and ledgers on every preset; every invalid
launch raises the same class and message, except the launches with no
registers or negative shared memory, which ``validate`` now rejects
(``tests/gpu/test_simt.py``).  The value types stay frozen dataclasses
with the same equality, hash, repr and ``dataclasses.replace``.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.errors import LaunchConfigError, ReproError, ResourceError
from repro.gpu.arch import ARCHITECTURES, KEPLER_K40M, GPUArchitecture
from repro.gpu.occupancy import OccupancyResult, occupancy
from repro.gpu.simt import Dim3, LaunchConfig
from repro.gpu.timing import (
    COMPUTE_EFFICIENCY,
    ETA_MAX,
    HIDE_WARPS,
    HIDE_WARPS_PREFETCH,
    LAUNCH_OVERHEAD_S,
    SAT_WARPS,
    SYNC_CYCLES,
    TimingBreakdown,
    TimingModel,
)
from repro.gpu.trace import KernelCost, TrafficLedger

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


PRESETS = list(ARCHITECTURES.values())
PRESET_IDS = list(ARCHITECTURES)

#: Shared memory per SM below the per-block maximum, so a launch can
#: pass validation and still not be resident.
SMALL_SMEM_SM = dataclasses.replace(KEPLER_K40M, name="small-smem",
                                    smem_per_sm=16 * 1024)

FIELDS = [f.name for f in dataclasses.fields(TimingBreakdown)]

#: The ledger fields the timing model reads.
LEDGER_FIELDS = ("flops", "gmem_read_bytes_moved", "gmem_write_bytes_moved",
                 "gmem_l2_bytes", "smem_cycles", "cmem_cycles", "syncthreads")


# ----------------------------------------------------------------------
# The reference: frozen copies (do not edit)
# ----------------------------------------------------------------------

def frozen_validate(launch, arch):
    if launch.threads_per_block > arch.max_threads_per_block:
        raise LaunchConfigError(
            "%d threads/block exceeds limit %d on %s"
            % (launch.threads_per_block, arch.max_threads_per_block, arch.name)
        )
    if launch.smem_per_block > arch.smem_per_block_max:
        raise LaunchConfigError(
            "%d bytes of shared memory/block exceeds limit %d on %s"
            % (launch.smem_per_block, arch.smem_per_block_max, arch.name)
        )
    if launch.registers_per_thread > arch.max_registers_per_thread:
        raise LaunchConfigError(
            "%d registers/thread exceeds limit %d on %s"
            % (launch.registers_per_thread, arch.max_registers_per_thread,
               arch.name)
        )
    block_regs = launch.registers_per_thread * launch.threads_per_block
    if block_regs > arch.registers_per_sm:
        raise LaunchConfigError(
            "block requires %d registers, SM has %d on %s"
            % (block_regs, arch.registers_per_sm, arch.name)
        )


def frozen_limits(arch, launch):
    frozen_validate(launch, arch)
    threads = launch.threads_per_block
    warps = math.ceil(threads / arch.warp_size)
    limits = {
        "threads": arch.max_threads_per_sm // threads,
        "warps": arch.max_warps_per_sm // warps,
        "blocks": arch.max_blocks_per_sm,
    }
    if launch.smem_per_block > 0:
        limits["smem"] = arch.smem_per_sm // launch.smem_per_block
    regs = RegisterFile(arch)
    limits["registers"] = regs.max_blocks(launch.registers_per_thread, threads)
    return warps, limits


def frozen_occupancy(arch, launch):
    warps, limits = frozen_limits(arch, launch)
    blocks = min(limits.values())
    for limiter, limit in limits.items():
        if limit == blocks:
            break
    if blocks == 0:
        raise LaunchConfigError(
            "launch cannot be resident on %s: limited by %s" % (arch.name, limiter)
        )
    return OccupancyResult(blocks_per_sm=blocks, warps_per_block=warps, limiter=limiter)


def frozen_evaluate(arch, cost):
    led = cost.ledger
    occ = frozen_occupancy(arch, cost.launch)

    t_compute = led.flops / (arch.peak_sp_gflops * 1e9 * COMPUTE_EFFICIENCY)
    t_gmem = led.gmem_bytes_moved / (arch.sustained_gmem_bandwidth_gbs * 1e9)
    t_l2 = led.gmem_l2_bytes / (arch.l2_bandwidth_gbs * 1e9)
    per_sm_clock = arch.sm_count * arch.clock_hz
    t_smem = led.smem_cycles / per_sm_clock
    t_cmem = led.cmem_cycles / per_sm_clock

    t_max = max(t_compute, t_gmem, t_l2, t_smem, t_cmem)
    t_sum = t_compute + t_gmem + t_l2 + t_smem + t_cmem

    blocks = cost.launch.total_blocks
    warps_per_block = occ.warps_per_block
    resident_blocks = min(
        float(occ.blocks_per_sm), max(1.0, blocks / arch.sm_count)
    )
    warps_resident = warps_per_block * resident_blocks

    hide = HIDE_WARPS_PREFETCH if cost.software_prefetch else HIDE_WARPS
    eta = ETA_MAX * min(1.0, warps_resident / hide)

    busy = t_max + (1.0 - eta) * (t_sum - t_max)

    u_warps = min(1.0, math.sqrt(warps_resident / SAT_WARPS))
    sm_fill = min(1.0, blocks / arch.sm_count)
    busy /= u_warps * sm_fill

    slots = occ.blocks_per_sm * arch.sm_count
    waves = blocks / slots
    if waves >= 1.0:
        full, frac = divmod(waves, 1.0)
        busy *= (full + math.sqrt(frac)) / waves

    syncs_per_block = led.syncthreads / max(blocks, 1)
    t_sync = syncs_per_block * SYNC_CYCLES * math.ceil(waves) / arch.clock_hz

    t_launch = LAUNCH_OVERHEAD_S * cost.launches

    total = busy + t_sync + t_launch
    return TimingBreakdown(
        name=cost.name,
        t_compute=t_compute,
        t_gmem=t_gmem,
        t_l2=t_l2,
        t_smem=t_smem,
        t_cmem=t_cmem,
        t_sync=t_sync,
        t_launch=t_launch,
        eta=eta,
        waves=waves,
        occupancy_fraction=occ.occupancy_fraction(arch),
        total=total,
    )


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------

def _launch(blocks, threads, regs, smem):
    return LaunchConfig(grid=Dim3(blocks), block=Dim3(threads),
                        registers_per_thread=regs, smem_per_block=smem)


def _limiter_launches(arch):
    """``(threads, registers, smem)`` of launches bound by each limiter."""
    return [
        (1024, 16, 0),                      # threads (ties warps)
        (193, 16, 0),                       # warps: 7 warps of 193 threads
        (32, 16, 0),                        # blocks
        (256, 16, 16 * 1024),               # smem
        (256, min(128, arch.max_registers_per_thread), 0),  # registers
    ]


def _random_launches(arch, rng, count=60):
    """Valid resource mixes drawn at random: thread counts off warp
    multiples, registers 1 to the ISA limit, shared memory 0 to the
    per-block limit."""
    mixes = []
    while len(mixes) < count:
        threads = int(rng.integers(1, arch.max_threads_per_block + 1))
        regs = int(rng.integers(1, arch.max_registers_per_thread + 1))
        smem = int(rng.choice([0, int(rng.integers(
            1, arch.smem_per_block_max + 1))]))
        if regs * threads <= arch.registers_per_sm:
            mixes.append((threads, regs, smem))
    return mixes


def _ledger(rng, zeros):
    """A ledger with the fields in ``zeros`` at zero and the rest drawn
    over many magnitudes (fractional, as folded counts are)."""
    ledger = TrafficLedger()
    for name in LEDGER_FIELDS:
        if name not in zeros:
            setattr(ledger, name, float(10 ** rng.uniform(0, 11)))
    return ledger


def _costs(arch, seed):
    """Every (cost, waves class) of the sweep on ``arch``."""
    rng = np.random.default_rng([seed, arch.sm_count, arch.max_blocks_per_sm])
    costs = []
    mixes = _limiter_launches(arch) + _random_launches(arch, rng)
    for i, (threads, regs, smem) in enumerate(mixes):
        slots = frozen_occupancy(arch, _launch(1, threads, regs, smem)) \
            .blocks_per_sm * arch.sm_count
        # Waves below 1 (one block, a partial machine), exactly 1, whole
        # numbers above 1, and fractional tails above 1.
        for blocks in sorted({1, max(1, slots // 3), slots - 1, slots,
                              slots + 1, 2 * slots, 3 * slots + slots // 2,
                              int(rng.integers(1, 20 * slots))}):
            if blocks < 1:
                continue
            zeros = {name for name in LEDGER_FIELDS if rng.random() < 0.4}
            if i == 0:
                zeros = set(LEDGER_FIELDS)
            costs.append(KernelCost(
                name="k%d" % len(costs),
                launch=_launch(blocks, threads, regs, smem),
                ledger=_ledger(rng, zeros),
                software_prefetch=bool(rng.integers(0, 2)),
                launches=int(rng.choice([1, 3]))))
    return costs


def _hex(breakdown):
    return [v if isinstance(v, str) else float(v).hex()
            for v in (getattr(breakdown, f) for f in FIELDS)]


def _outcome(fn):
    try:
        return fn()
    except ReproError as exc:
        return (type(exc), str(exc))


class TestEvaluateMatchesFrozen:
    @pytest.mark.parametrize("arch", PRESETS, ids=PRESET_IDS)
    def test_every_field_bit_for_bit(self, arch):
        model = TimingModel(arch)
        seen = {"limiters": set(), "waves": set(), "prefetch": set(),
                "launches": set(), "zero": set(), "nonzero": set()}
        costs = _costs(arch, seed=29)
        for cost in costs:
            ours = model.evaluate(cost)
            frozen = frozen_evaluate(arch, cost)
            assert _hex(ours) == _hex(frozen), cost
            assert ours == frozen
            seen["limiters"].add(frozen_occupancy(arch, cost.launch).limiter)
            seen["waves"].add("below" if frozen.waves < 1.0
                              else "at" if frozen.waves == 1.0
                              else "whole" if frozen.waves % 1.0 == 0.0
                              else "tail")
            seen["prefetch"].add(cost.software_prefetch)
            seen["launches"].add(cost.launches)
            for name in LEDGER_FIELDS:
                seen["zero" if getattr(cost.ledger, name) == 0.0
                     else "nonzero"].add(name)
        assert len(costs) > 400
        assert seen == {
            "limiters": {"threads", "warps", "blocks", "smem", "registers"},
            "waves": {"below", "at", "whole", "tail"},
            "prefetch": {False, True},
            "launches": {1, 3},
            "zero": set(LEDGER_FIELDS),
            "nonzero": set(LEDGER_FIELDS),
        }

    @pytest.mark.parametrize("arch", PRESETS, ids=PRESET_IDS)
    def test_occupancy_bit_for_bit(self, arch):
        rng = np.random.default_rng([31, arch.sm_count])
        for threads, regs, smem in (_limiter_launches(arch)
                                    + _random_launches(arch, rng, 200)):
            launch = _launch(7, threads, regs, smem)
            assert occupancy(arch, launch) == frozen_occupancy(arch, launch)


def _invalid_launches(arch):
    """Launches ``validate`` or residency rejects, each with positive
    registers and non-negative shared memory."""
    return [
        _launch(4, arch.max_threads_per_block + 1, 16, 0),
        _launch(4, arch.max_threads_per_block * 2, 300, 10 ** 6),
        _launch(4, 128, 16, arch.smem_per_block_max + 1),
        _launch(4, 128, arch.max_registers_per_thread + 1, 0),
        _launch(4, 128, arch.max_registers_per_thread + 1, 10 ** 6),
        _launch(4, 1024, arch.registers_per_sm // 1024 + 1, 0),
        _launch(4, 1024, arch.registers_per_sm // 1024 + 1, 10 ** 6),
    ]


class TestErrorsMatchFrozen:
    @pytest.mark.parametrize("arch", PRESETS + [SMALL_SMEM_SM],
                             ids=PRESET_IDS + ["small-smem"])
    def test_invalid_launches(self, arch):
        model = TimingModel(arch)
        launches = _invalid_launches(arch)
        if arch is SMALL_SMEM_SM:
            launches.append(_launch(4, 256, 16, 24 * 1024))   # not resident
        for launch in launches:
            cost = KernelCost(name="bad", launch=launch,
                              ledger=TrafficLedger(flops=1.0))
            frozen = _outcome(lambda: frozen_evaluate(arch, cost))
            assert isinstance(frozen, tuple), launch
            assert _outcome(lambda: model.evaluate(cost)) == frozen, launch
            assert _outcome(lambda: occupancy(arch, launch)) == _outcome(
                lambda: frozen_occupancy(arch, launch)) == frozen
            assert _outcome(lambda: launch.validate(arch)) == _outcome(
                lambda: frozen_validate(launch, arch))


# ----------------------------------------------------------------------
# Type semantics
# ----------------------------------------------------------------------

def _breakdown(**changes):
    values = dict(name="k", t_compute=1.0, t_gmem=2.0, t_l2=0.5, t_smem=0.25,
                  t_cmem=0.0, t_sync=1e-6, t_launch=5e-6, eta=0.9, waves=1.5,
                  occupancy_fraction=0.5, total=3.0)
    values.update(changes)
    return TimingBreakdown(**values)


class TestValueTypes:
    def test_frozen_dataclasses(self):
        launch = _launch(4, 128, 32, 1024)
        for value in (Dim3(2, 3), launch, _breakdown()):
            assert dataclasses.is_dataclass(value)
            field = dataclasses.fields(value)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field, getattr(value, field))
            with pytest.raises(dataclasses.FrozenInstanceError):
                value.extra = 1

    def test_breakdown_is_not_a_tuple(self):
        assert not isinstance(_breakdown(), tuple)
        assert TimingBreakdown("k", *range(11)) == _breakdown(
            **dict(zip(FIELDS[1:], range(11))))

    def test_equality_hash_and_repr(self):
        assert Dim3(2, 3) == Dim3(x=2, y=3, z=1) == Dim3(np.int64(2), 3)
        assert Dim3(2, 3) != Dim3(3, 2)
        assert hash(Dim3(2, 3)) == hash((2, 3, 1))
        assert repr(Dim3(2, 3)) == "Dim3(x=2, y=3, z=1)"
        launch = _launch(4, 128, 32, 1024)
        assert launch == LaunchConfig(Dim3(4), Dim3(128), 32, 1024)
        assert launch != _launch(4, 128, 32, 0)
        assert hash(launch) == hash((Dim3(4), Dim3(128), 32, 1024))
        assert repr(launch) == (
            "LaunchConfig(grid=Dim3(x=4, y=1, z=1), block=Dim3(x=128, y=1, "
            "z=1), registers_per_thread=32, smem_per_block=1024)")
        assert LaunchConfig(Dim3(4), Dim3(128)) == _launch(4, 128, 32, 0)
        breakdown = _breakdown()
        assert breakdown == _breakdown() and breakdown != _breakdown(eta=0.8)
        assert hash(breakdown) == hash(tuple(getattr(breakdown, f)
                                             for f in FIELDS))
        assert repr(breakdown).startswith(
            "TimingBreakdown(name='k', t_compute=1.0, t_gmem=2.0")

    def test_replace_as_its_users_call_it(self):
        # DepthwiseKernel.cost and bench.figures: the launch with a new
        # grid, the grid with a new z; repro.conv.batching: the cost
        # with a new launch and name; the timing tests: a new total.
        launch = _launch(4, 128, 32, 1024)
        grouped = dataclasses.replace(
            launch, grid=dataclasses.replace(launch.grid, z=6))
        assert grouped == LaunchConfig(Dim3(4, 1, 6), Dim3(128), 32, 1024)
        cost = KernelCost(name="k", launch=launch, ledger=TrafficLedger())
        batched = dataclasses.replace(cost, launch=grouped, name="b")
        assert (batched.launch, batched.name) == (grouped, "b")
        assert dataclasses.replace(_breakdown(), total=0.0) == _breakdown(
            total=0.0)
        with pytest.raises(LaunchConfigError):
            dataclasses.replace(launch.grid, z=0)

    @pytest.mark.parametrize("bad", [0, -1, 2.0, "2"])
    def test_dim3_rejects(self, bad):
        for axes in ((bad,), (1, bad), (1, 1, bad)):
            with pytest.raises(LaunchConfigError,
                               match="^Dim3 components must be positive "
                                     "integers$"):
                Dim3(*axes)

    def test_dim3_accepts_numpy_integers(self):
        dim = Dim3(np.int64(3), np.int32(2), np.uint8(4))
        assert dim.count == 24 and type(dim.count) is int
        assert isinstance(dim.x, np.int64)
        assert Dim3(True).count == 1
