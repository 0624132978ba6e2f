"""Depthwise convolution: the special-case kernel's grouped sibling.

Depthwise convolution (``groups == channels``) is ``C`` independent
single-channel convolutions — exactly the paper's Sec. 3 special case,
one instance per channel.  The kernel maps each group to a grid-Z slice
of the special-case launch: block (bx, by, g) convolves channel ``g``
with its ``F/groups`` filters, reusing the C = 1 kernel's circular
shared-memory row window, register blocking and constant-memory filter
broadcasts verbatim.  The 2026 depthwise-serving paper (PAPERS.md)
shows this is where the memory-efficiency analysis matters at cloud
scale: depthwise layers are bandwidth-bound, so the bank/coalescing
model transfers unchanged.

The traced cost is the per-group special-case cost with every traffic
counter scaled by ``groups`` (the groups are literally identical
request streams at different base addresses) under a grid-Z-extended
launch; :meth:`DepthwiseKernel.run_traced` drives the vectorized fast
simulator per group so ``repro audit`` can hold the depthwise path to
the same interpreted-oracle standard as the special case.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

import numpy as np

from repro.conv.reference import conv2d_taps
from repro.conv.tensors import ConvProblem, Layout, Padding
from repro.core.config import BEST_SPECIAL_CONFIG, SpecialCaseConfig
from repro.core.special import SpecialCaseKernel
from repro.errors import ConfigurationError
from repro.gpu.arch import GPUArchitecture, KEPLER_K40M
from repro.gpu.memory.banks import BankConflictPolicy
from repro.gpu.timing import Priced
from repro.gpu.trace import KernelCost

__all__ = ["DepthwiseKernel"]


class DepthwiseKernel(Priced):
    """One special-case convolution per channel, batched over grid Z."""

    def __init__(
        self,
        arch: GPUArchitecture = KEPLER_K40M,
        config: SpecialCaseConfig = BEST_SPECIAL_CONFIG,
        bank_policy: BankConflictPolicy = BankConflictPolicy.WORD_MERGE,
    ):
        # Every group runs the special-case kernel with matched float
        # vectors.
        self.arch = arch
        self.config = config
        self.bank_policy = bank_policy
        self.special = SpecialCaseKernel(
            arch=arch, config=config, bank_policy=bank_policy)
        self.n = self.special.n
        self.name = "depthwise[%s,float,n=%d]" % (arch.name, self.n)

    # ------------------------------------------------------------------
    @staticmethod
    def group_problem(problem: ConvProblem) -> ConvProblem:
        """The C = 1 special-case problem one group solves."""
        return replace(
            problem,
            channels=1,
            filters=problem.filters_per_group,
            groups=1,
            layout=Layout.NCHW,
        )

    def _check_problem(self, problem: ConvProblem) -> ConvProblem:
        if problem.groups != problem.channels:
            raise ConfigurationError(
                "the depthwise kernel requires groups == channels "
                "(one channel per group), got %s" % problem.describe())
        # All groups' filters are resident in constant memory at once.
        k = problem.kernel_size
        cm_bytes = problem.filters * k * k * self.special.elem_bytes
        if cm_bytes > self.arch.const_memory_size:
            raise ConfigurationError(
                "filters need %d bytes of constant memory, %s has %d"
                % (cm_bytes, self.arch.name, self.arch.const_memory_size))
        return problem.as_valid()

    # ------------------------------------------------------------------
    @staticmethod
    def _positional(image: np.ndarray, filters: np.ndarray,
                    padding: Padding) -> ConvProblem:
        """The problem a positional pair states: one channel's problem
        under :meth:`ConvProblem.from_arrays`, with one group per image
        channel."""
        img = np.asarray(image)
        one = ConvProblem.from_arrays(img[:1] if img.ndim == 3 else img,
                                      filters, padding)
        channels = img.shape[0] if img.ndim == 3 else 1
        return replace(one, channels=channels, groups=channels)

    def run(
        self,
        image: np.ndarray,
        filters: np.ndarray,
        padding: Padding = Padding.VALID,
        problem: Optional[ConvProblem] = None,
    ) -> np.ndarray:
        """Check the problem and every group's special-case problem,
        then return the groups' outputs, channel-major
        (:func:`conv2d_taps`)."""
        if problem is None:
            problem = self._positional(image, filters, padding)
        self._check_problem(problem)
        self.special._check_problem(self.group_problem(problem))
        return conv2d_taps(problem, image, filters)

    # ------------------------------------------------------------------
    def cost(self, problem: ConvProblem) -> KernelCost:
        """The per-group traced cost scaled to all grid-Z group slices."""
        valid = self._check_problem(problem)
        return self.grouped(
            valid, self.special.cost(self.group_problem(valid)))

    def grouped(self, problem: ConvProblem,
                group_cost: KernelCost) -> KernelCost:
        """``group_cost``, the special-case cost of ``problem``'s group
        problem, scaled to all grid-Z group slices: every ledger counter
        times the group count (in place) on a grid whose Z extent is the
        group count.  ``problem`` is checked as :meth:`cost` checks it,
        so a search winner's cost becomes this kernel's cost without
        tracing the group again."""
        groups = self._check_problem(problem).groups
        ledger = group_cost.ledger
        if groups > 1:
            ledger.scale(float(groups))
        launch = replace(group_cost.launch,
                         grid=replace(group_cost.launch.grid, z=groups))
        return KernelCost(
            name=self.name,
            launch=launch,
            ledger=ledger,
            software_prefetch=group_cost.software_prefetch,
            launches=group_cost.launches,
        )

    def run_traced(
        self,
        image: np.ndarray,
        filters: np.ndarray,
        audit: bool = False,
    ) -> Tuple[np.ndarray, KernelCost]:
        """Fast-simulate every group and return (output, executed cost).

        Each group runs through :class:`repro.gpu.fastsim.FastSpecialKernel`
        (aligned shapes, unit stride/dilation — the simulator's domain);
        ``audit=True`` holds every group to the interpreted SIMT oracle.
        """
        from repro.gpu.fastsim import FastSpecialKernel

        problem = self._positional(image, filters, Padding.VALID)
        valid = self._check_problem(problem)
        img = problem.chw_image(image)
        flt = problem.check_filters(filters)[:, 0]
        fast = FastSpecialKernel(
            arch=self.arch, config=self.config, bank_policy=self.bank_policy)
        fpg = valid.filters_per_group
        out = np.empty((valid.filters, valid.out_height, valid.out_width),
                       dtype=np.float32)
        merged = None
        for g in range(valid.groups):
            g_out, g_cost = fast.run_traced(
                img[g], flt[g * fpg : (g + 1) * fpg], audit=audit,
            )
            out[g * fpg : (g + 1) * fpg] = g_out
            if merged is None:
                merged = g_cost
            else:
                merged.ledger.merge(g_cost.ledger)
        launch = replace(merged.launch,
                         grid=replace(merged.launch.grid, z=valid.groups))
        return out, KernelCost(
            name=self.name,
            launch=launch,
            ledger=merged.ledger,
            software_prefetch=merged.software_prefetch,
            launches=merged.launches,
        )
