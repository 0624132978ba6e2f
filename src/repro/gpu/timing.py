"""Analytical timing model.

Converts a :class:`~repro.gpu.trace.KernelCost` (traced traffic) into an
execution-time estimate.  The model is a bounded-overlap roofline:

1.  Each subsystem contributes a *throughput time* — the time it would
    take if that subsystem were the only bottleneck and the whole
    machine were busy:

    * compute: ``flops / peak_sp_gflops``
    * global memory: ``segments_moved * 128 B / sustained_bandwidth``
    * shared memory: one warp request per SM per clock, serialized
      cycles from the bank model
    * constant memory: one broadcast per SM per clock

2.  Subsystems overlap imperfectly.  With enough resident warps the
    total approaches ``max(components)``; with few warps it degrades
    toward ``sum(components)``.  The overlap efficiency ``eta`` grows
    with resident warps per SM and saturates at ``ETA_MAX``; software
    prefetching (both of the paper's kernels, Algorithms 1–2) halves the
    warps needed to reach saturation, because the prefetch distance
    provides intra-thread overlap that otherwise must come from
    inter-warp scheduling.

3.  Small grids cannot fill the machine.  Three separate effects:
    idle SMs (fewer blocks than SMs), insufficient resident warps to
    saturate a busy SM's pipelines (``SAT_WARPS``), and — for grids
    just over a whole number of waves — a partial tail wave priced at
    ``(floor(waves) + sqrt(frac)) / waves``.  Together these reproduce
    the paper's observation that its general-case kernel can lose to
    cuDNN only on very small images (Sec. 5.2).

4.  ``__syncthreads`` barriers and kernel launches add fixed costs.

All constants are architecture-independent and documented below; none
are tuned per experiment.

Every floor and price of a search goes through :meth:`TimingModel.evaluate`,
so it is written as straight-line arithmetic: a model resolves its
architecture's rates once, when it is built, with the expressions the
quotients always used (so every float keeps its bits), and occupancy is
the integer rule :func:`~repro.gpu.occupancy.residency` shares with
:func:`~repro.gpu.occupancy.occupancy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError, TraceError
from repro.gpu.arch import GPUArchitecture
from repro.gpu.occupancy import residency
from repro.gpu.trace import KernelCost, publish_kernel_cost
from repro.obs import metrics as _metrics

__all__ = ["Priced", "TimingBreakdown", "TimingModel", "below_every_price"]

#: Host-side cost of one kernel launch (driver + queueing), seconds.
LAUNCH_OVERHEAD_S = 5e-6

#: Pipeline cost of one block-wide barrier, cycles.
SYNC_CYCLES = 30.0

#: Resident warps per SM needed to fully hide latency without software
#: prefetching (Kepler needs ~halfway occupancy for bandwidth-bound code).
HIDE_WARPS = 16.0

#: With software prefetching the same hiding needs fewer warps.
HIDE_WARPS_PREFETCH = 6.0

#: Resident warps per SM needed to saturate the SM's issue/memory
#: pipelines at all (below this, raw throughput scales down even for a
#: perfectly overlapped kernel).
SAT_WARPS = 8.0

#: Upper bound on overlap efficiency — issue overheads and barriers keep
#: real kernels below perfect overlap.
ETA_MAX = 0.92

#: Fraction of the theoretical FMA peak a well-tuned register-blocked
#: kernel can sustain.  Dual-issue limits, operand-collector stalls and
#: address arithmetic cap even cuBLAS SGEMM at ~70% of peak on Kepler
#: (3.0 of 4.29 TFlop/s on a K40m); this is that cap, applied uniformly
#: to every kernel's compute component.
COMPUTE_EFFICIENCY = 0.70


def _timing_counters(reg) -> tuple:
    """The counters :meth:`TimingModel.publish` writes, in creation order."""
    return (
        reg.counter(
            "gpu_modeled_seconds_total",
            "Modeled execution seconds, by kernel and roofline component",
            labelnames=("kernel", "component")),
        reg.counter(
            "gpu_timing_evaluations_total",
            "Timing-model evaluations, by kernel",
            labelnames=("kernel",)),
    )


@dataclass(frozen=True, init=False)
class TimingBreakdown:
    """Component times (seconds) and derived totals for one launch.

    Every evaluation builds one, so it fills its instance dict in one
    step rather than one frozen ``__setattr__`` per field.
    """

    name: str
    t_compute: float
    t_gmem: float
    t_l2: float
    t_smem: float
    t_cmem: float
    t_sync: float
    t_launch: float
    eta: float                  # overlap efficiency actually applied
    waves: float                # grid waves over the machine
    occupancy_fraction: float
    total: float                # end-to-end estimate, seconds

    def __init__(self, name: str, t_compute: float, t_gmem: float,
                 t_l2: float, t_smem: float, t_cmem: float, t_sync: float,
                 t_launch: float, eta: float, waves: float,
                 occupancy_fraction: float, total: float):
        self.__dict__.update(
            name=name, t_compute=t_compute, t_gmem=t_gmem, t_l2=t_l2,
            t_smem=t_smem, t_cmem=t_cmem, t_sync=t_sync, t_launch=t_launch,
            eta=eta, waves=waves, occupancy_fraction=occupancy_fraction,
            total=total)

    @property
    def bound_by(self) -> str:
        """Which throughput component dominates (the first on a tie)."""
        bound, longest = "compute", self.t_compute
        for part, t in (("gmem", self.t_gmem), ("l2", self.t_l2),
                        ("smem", self.t_smem), ("cmem", self.t_cmem)):
            if t > longest:
                bound, longest = part, t
        return bound

    def gflops(self, flops: float) -> float:
        """Achieved GFlop/s for a nominal operation count."""
        if self.total <= 0:
            raise TraceError("cannot compute a rate for non-positive time")
        return flops / self.total / 1e9


class TimingModel:
    """Bounded-overlap roofline evaluator for one architecture."""

    def __init__(self, arch: GPUArchitecture, registry=None):
        self.arch = arch
        # Where :meth:`publish` writes: None = the process-wide metrics
        # registry at call time; pass a private Registry to redirect.
        self.registry = registry
        # The architecture's rates, resolved once: each is the
        # expression :meth:`evaluate` divides by, so every quotient
        # keeps its bits.
        self._flop_rate = arch.peak_sp_gflops * 1e9 * COMPUTE_EFFICIENCY
        self._gmem_rate = arch.sustained_gmem_bandwidth_gbs * 1e9
        self._l2_rate = arch.l2_bandwidth_gbs * 1e9
        self._sm_count = arch.sm_count
        self._clock_hz = arch.clock_hz
        self._per_sm_clock = arch.sm_count * arch.clock_hz
        self._max_warps = arch.max_warps_per_sm

    # ------------------------------------------------------------------
    def publish(self, cost: KernelCost, breakdown: TimingBreakdown) -> None:
        """Publish one prediction: the ledger (``publish_kernel_cost``)
        and the breakdown's components, both under ``cost.name``.

        The only ``gpu_*`` writer; pricing (``cost``, :meth:`evaluate`,
        ``predict``) never publishes.
        """
        reg = self.registry if self.registry is not None \
            else _metrics.get_registry()
        publish_kernel_cost(cost, registry=reg)
        seconds, evaluations = reg.handles(_timing_counters)
        kernel = cost.name
        for part in ("compute", "gmem", "l2", "smem", "cmem", "sync", "launch"):
            seconds.inc_key((kernel, part), getattr(breakdown, "t_" + part))
        seconds.inc_key((kernel, "total"), breakdown.total)
        evaluations.inc_key((kernel,))

    # ------------------------------------------------------------------
    def evaluate(self, cost: KernelCost) -> TimingBreakdown:
        """The launch's modeled time.  Raises :class:`LaunchConfigError`
        when ``launch.validate`` does or not one block is resident."""
        arch = self.arch
        led = cost.ledger
        launch = cost.launch
        launch.validate(arch)
        blocks_per_sm, warps_per_block, _ = residency(
            arch, launch.block.count, launch.registers_per_thread,
            launch.smem_per_block)
        blocks = launch.grid.count
        sm_count = self._sm_count
        grid_per_sm = blocks / sm_count     # the grid spread evenly

        t_compute = led.flops / self._flop_rate
        t_gmem = led.gmem_bytes_moved / self._gmem_rate
        t_l2 = led.gmem_l2_bytes / self._l2_rate
        t_smem = led.smem_cycles / self._per_sm_clock
        t_cmem = led.cmem_cycles / self._per_sm_clock

        t_max = max(t_compute, t_gmem, t_l2, t_smem, t_cmem)
        # Left to right, as the built-in sum adds floats up to Python
        # 3.11; 3.12's compensated sum would move prices by an ulp.
        t_sum = t_compute + t_gmem + t_l2 + t_smem + t_cmem

        # Warps actually resident per busy SM: capped by the occupancy
        # limit, but a small grid may not supply enough blocks to reach
        # it.  Each clamp below is the comparison ``min`` or ``max``
        # would make, written out: the same value, without the call.
        spread = grid_per_sm if grid_per_sm > 1.0 else 1.0
        resident_blocks = (spread if spread < blocks_per_sm
                           else float(blocks_per_sm))
        warps_resident = warps_per_block * resident_blocks

        hide = HIDE_WARPS_PREFETCH if cost.software_prefetch else HIDE_WARPS
        hidden = warps_resident / hide
        eta = ETA_MAX * (hidden if hidden < 1.0 else 1.0)

        busy = t_max + (1.0 - eta) * (t_sum - t_max)

        # Raw throughput scaling: too few resident warps cannot keep an
        # SM's pipelines busy, and a grid smaller than the SM count
        # leaves whole SMs idle.  The square root reflects instruction-
        # level parallelism: register-tiled kernels issue many
        # independent operations per warp, so throughput degrades
        # sub-linearly as warps thin out.
        saturation = math.sqrt(warps_resident / SAT_WARPS)
        u_warps = saturation if saturation < 1.0 else 1.0
        sm_fill = grid_per_sm if grid_per_sm < 1.0 else 1.0
        busy /= u_warps * sm_fill

        waves = blocks / (blocks_per_sm * sm_count)
        if waves >= 1.0:
            # Partial-wave model: the tail wave drains early in
            # proportion to its fill; the square root reflects that
            # lone tail blocks get a whole SM pipeline to themselves
            # but cannot fully saturate it (between the linear-
            # optimistic and full-wave-pessimistic extremes).
            full, frac = divmod(waves, 1.0)
            busy *= (full + math.sqrt(frac)) / waves

        # Barriers: blocks on one SM overlap each other, so charge the
        # per-block barrier chain once per resident slot per wave (a
        # grid has at least one block).
        syncs_per_block = led.syncthreads / blocks
        t_sync = (syncs_per_block * SYNC_CYCLES * math.ceil(waves)
                  / self._clock_hz)

        t_launch = LAUNCH_OVERHEAD_S * cost.launches

        return TimingBreakdown(
            cost.name, t_compute, t_gmem, t_l2, t_smem, t_cmem, t_sync,
            t_launch, eta, waves,
            blocks_per_sm * warps_per_block / self._max_warps,
            busy + t_sync + t_launch)


def below_every_price(limit: float) -> bool:
    """Whether a time limit (seconds) lies below every price: one at or
    under zero does, since every modeled time is positive, so a search
    bounded by it prices nothing.  Raises :class:`ConfigurationError`
    for a NaN limit, which no time compares with."""
    if math.isnan(limit):
        raise ConfigurationError(
            "a time limit must be a number of seconds, got NaN")
    return limit <= 0.0


class Priced:
    """The one pricing surface of every kernel.

    A subclass defines ``arch`` and ``cost(problem)`` and inherits
    :meth:`predict` and :meth:`gflops`, so every kernel is priced by
    the same model of its own architecture.
    """

    def predict(self, problem) -> TimingBreakdown:
        """Estimated execution time for this kernel on ``problem``."""
        return TimingModel(self.arch).evaluate(self.cost(problem))

    def gflops(self, problem) -> float:
        """Achieved GFlop/s normalized by the nominal operation count."""
        return self.predict(problem).gflops(problem.flops)
