"""Experiment definitions: one builder per table/figure of the paper,
plus the ablations DESIGN.md calls out.

Every builder returns an :class:`~repro.bench.runner.Experiment` whose
rows are regenerated from the library (never hard-coded numbers), with
``paper_expectation`` recording what the paper reports for the same
experiment.  ``ALL_EXPERIMENTS`` maps experiment ids to builders for the
benchmark suite and the CLI-style examples.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.baselines.gemm import (
    GemmShape,
    cublas_like_gemm,
    magma_fermi_gemm,
    magma_matched_gemm,
)
from repro.bench.runner import Experiment, compare_on_sweep, registry_kernels
from repro.conv.tensors import ConvProblem
from repro.conv.workloads import (
    gemm_sweep_dims,
    general_case_sweep,
    special_case_sweep,
    vgg_layers,
)
from repro.core.bankwidth import (
    conventional_pattern,
    matched_pattern,
    smem_bandwidth_gain,
)
from repro.core.dse import best_config
from repro.core.general import GeneralCaseKernel
from repro.core.special import SpecialCaseKernel
from repro.gpu.arch import KEPLER_K40M, PASCAL_P100, GPUArchitecture
from repro.gpu.memory.banks import BankConflictPolicy, SharedMemoryModel
from repro.gpu.simt import Dim3
from repro.gpu.timing import TimingModel
from repro.kernels import default_registry

__all__ = [
    "fig1_bank_patterns",
    "fig2_gemm",
    "fig7_special",
    "fig8_general",
    "table1",
    "ablation_unmatched",
    "ablation_bank_policy",
    "ablation_writeback",
    "ablation_prefetch",
    "ablation_thread_layout",
    "extension_short_dtypes",
    "extension_all_methods",
    "extension_fp16_conv",
    "extension_backend_portfolio",
    "ablation_adaptive_config",
    "extension_stencil",
    "extension_training",
    "extension_fft_batch",
    "extension_arch_port",
    "ALL_EXPERIMENTS",
]


# ----------------------------------------------------------------------
# Fig. 1 — bank access patterns
# ----------------------------------------------------------------------

def fig1_bank_patterns(arch: GPUArchitecture = KEPLER_K40M) -> Experiment:
    """Conventional vs matched shared-memory access (paper Fig. 1)."""
    exp = Experiment(
        exp_id="fig1",
        title="SM access patterns on %s (per-warp cycles, equal data)" % arch.name,
        unit="cycles",
        columns=["conventional", "matched"],
        paper_expectation="matched pattern doubles SM bandwidth when n=2",
    )
    for policy in (BankConflictPolicy.PAPER, BankConflictPolicy.WORD_MERGE):
        model = SharedMemoryModel(arch, policy)
        warp = arch.warp_size
        # Fig. 1 framing: the same `warp` elements covered both ways.
        conv = model.access(conventional_pattern(warp, 4), 4)
        n = max(1, arch.smem_bank_width // 4)
        mat = model.access(matched_pattern(warp // n, 4, n), 4 * n) if n > 1 else conv
        exp.add(
            "policy=%s" % policy.value,
            {"conventional": float(conv.cycles), "matched": float(mat.cycles)},
        )
    exp.notes = (
        "kernel-framing bandwidth gain: %.2fx (word-merge), %.2fx (paper policy)"
        % (
            smem_bandwidth_gain(arch, 4, policy=BankConflictPolicy.WORD_MERGE),
            smem_bandwidth_gain(arch, 4, policy=BankConflictPolicy.PAPER,
                                framing="fig1"),
        )
    )
    return exp


# ----------------------------------------------------------------------
# Fig. 2 — SGEMM: cuBLAS vs MAGMA vs MAGMA-modified
# ----------------------------------------------------------------------

def fig2_gemm(arch: GPUArchitecture = KEPLER_K40M) -> Experiment:
    """Single-precision GEMM execution time (paper Fig. 2)."""
    kernels = {
        "cuBLAS": cublas_like_gemm(arch),
        "MAGMA": magma_fermi_gemm(arch),
        "MAGMA mod.": magma_matched_gemm(arch),
    }
    exp = Experiment(
        exp_id="fig2",
        title="SGEMM execution time on %s" % arch.name,
        unit="ms",
        columns=list(kernels),
        paper_expectation=(
            "MAGMA 2.4x slower than cuBLAS on Kepler; the bank-width "
            "modification saves 36% of MAGMA's time"
        ),
    )
    for dim in gemm_sweep_dims():
        shape = GemmShape.square(dim)
        exp.add(
            "%dK" % (dim // 1024),
            {name: kern.time_ms(shape) for name, kern in kernels.items()},
        )
    return exp


# ----------------------------------------------------------------------
# Fig. 7 — special case vs cuDNN-like
# ----------------------------------------------------------------------

_PAPER_FIG7 = {1: "6.16x average gain", 3: "6.43x average gain; unmatched "
               "kernel 19% slower", 5: "2.90x average gain"}


def fig7_special(kernel_size: int,
                 arch: GPUArchitecture = KEPLER_K40M) -> Experiment:
    """Special-case convolution performance (paper Fig. 7a/b/c)."""
    registry = default_registry()
    kernels: Dict[str, object] = {
        "cuDNN": registry.get("implicit-gemm").build(None, arch),
        "ours": registry.get("special").build(None, arch),
    }
    if kernel_size == 3:
        kernels["unmatched"] = registry.get("special").build(
            None, arch, matched=False)
    sub = {1: "a", 3: "b", 5: "c"}[kernel_size]
    exp = Experiment(
        exp_id="fig7%s" % sub,
        title="Special case (C=1), %dx%d filter" % (kernel_size, kernel_size),
        unit="GFlop/s",
        columns=list(kernels),
        paper_expectation=_PAPER_FIG7[kernel_size],
    )
    exp.rows = compare_on_sweep(kernels, special_case_sweep(kernel_size))
    return exp


# ----------------------------------------------------------------------
# Fig. 8 — general case vs cuDNN-like
# ----------------------------------------------------------------------

_PAPER_FIG8 = {3: "30.5% average improvement", 5: "45.3% average improvement",
               7: "30.8% average improvement"}


def fig8_general(kernel_size: int,
                 arch: GPUArchitecture = KEPLER_K40M) -> Experiment:
    """General-case convolution performance (paper Fig. 8a/b/c)."""
    registry = default_registry()
    kernels = {
        "cuDNN": registry.get("implicit-gemm").build(None, arch),
        "ours": registry.get("general").build(None, arch),
    }
    sub = {3: "a", 5: "b", 7: "c"}[kernel_size]
    exp = Experiment(
        exp_id="fig8%s" % sub,
        title="General case, %dx%d filter" % (kernel_size, kernel_size),
        unit="GFlop/s",
        columns=list(kernels),
        paper_expectation=_PAPER_FIG8[kernel_size] + "; may lose only at 32x32",
    )
    exp.rows = compare_on_sweep(kernels, general_case_sweep(kernel_size))
    return exp


# ----------------------------------------------------------------------
# Table 1 — best general-case configurations by exploration
# ----------------------------------------------------------------------

def table1(arch: GPUArchitecture = KEPLER_K40M) -> Experiment:
    """Design-space exploration versus the paper's Table 1."""
    from repro.core.dse import reproduce_table1

    exp = Experiment(
        exp_id="table1",
        title="Best general-case configurations (predicted GFlop/s)",
        unit="GFlop/s",
        columns=["paper config", "explored best"],
        paper_expectation=(
            "K=3: W32 H4 FTB64 WT16 FT4 CSH2; K=5: W32 H8 FTB32 WT8 FT8 "
            "CSH1; K=7: W64 H4 FTB32 WT8 FT8 CSH1"
        ),
    )
    notes = []
    for row in reproduce_table1(arch):
        exp.add(
            "K=%d" % row.kernel_size,
            {"paper config": row.paper_gflops, "explored best": row.ours_gflops},
        )
        c = row.ours
        notes.append(
            "K=%d explored: W%d H%d FTB%d WT%d FT%d CSH%d"
            % (row.kernel_size, c.w, c.h, c.ftb, c.wt, c.ft, c.csh)
        )
    exp.notes = "; ".join(notes)
    return exp


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------

def ablation_unmatched(arch: GPUArchitecture = KEPLER_K40M) -> Experiment:
    """Matched vs unmatched W_CD for both kernels (Sec. 5.1 prediction:
    the general case degrades more, since SM holds image and filters)."""
    exp = Experiment(
        exp_id="ablation-unmatched",
        title="Cost of ignoring the bank-width model",
        unit="GFlop/s",
        columns=["matched", "unmatched"],
        paper_expectation="special case loses 19%; general case loses more",
    )
    sp = ConvProblem.square(2048, 3, channels=1, filters=32)
    exp.add("special 3x3", {
        "matched": SpecialCaseKernel(arch).gflops(sp),
        "unmatched": SpecialCaseKernel(arch, matched=False).gflops(sp),
    })
    gp = ConvProblem.square(128, 3, channels=64, filters=128)
    exp.add("general 3x3", {
        "matched": GeneralCaseKernel(arch).gflops(gp),
        "unmatched": GeneralCaseKernel(arch, matched=False).gflops(gp),
    })
    return exp


def ablation_bank_policy(arch: GPUArchitecture = KEPLER_K40M) -> Experiment:
    """The paper's serialize-on-same-bank model vs hardware word-merge.

    Reported as serialized cycles per shared-memory warp request (1.0 =
    conflict-free): the end-to-end time of the gmem-bound special kernel
    hides the difference, but the bank model sees it directly.
    """
    exp = Experiment(
        exp_id="ablation-bank-policy",
        title="SM cycles per warp request under the two conflict policies",
        unit="cycles/request",
        columns=["word-merge", "paper-policy"],
        paper_expectation=(
            "the paper's stricter model serializes unmatched same-bank "
            "accesses (2 cycles); hardware merges them into one word "
            "delivery (1 cycle at half utilization)"
        ),
    )
    p = ConvProblem.square(2048, 3, channels=1, filters=32)
    for matched, label in ((True, "matched"), (False, "unmatched")):
        exp.add(label, {
            "word-merge": SpecialCaseKernel(
                arch, matched=matched,
                bank_policy=BankConflictPolicy.WORD_MERGE,
            ).cost(p).ledger.smem_conflict_overhead,
            "paper-policy": SpecialCaseKernel(
                arch, matched=matched,
                bank_policy=BankConflictPolicy.PAPER,
            ).cost(p).ledger.smem_conflict_overhead,
        })
    return exp


def ablation_writeback(arch: GPUArchitecture = KEPLER_K40M) -> Experiment:
    """Sec. 4.2: 'the writing back phase consumes very little time'."""
    exp = Experiment(
        exp_id="ablation-writeback",
        title="Uncoalesced writeback share of general-case execution time",
        unit="%",
        columns=["write share"],
        paper_expectation="small enough to leave unoptimized",
    )
    kernel = GeneralCaseKernel(arch)
    model = TimingModel(arch)
    for k in (3, 5, 7):
        p = ConvProblem.square(128, k, channels=64, filters=128)
        cost = kernel.cost(p)
        led = cost.ledger
        total = model.evaluate(cost).total
        t_wb = led.gmem_write_bytes_moved / (
            arch.sustained_gmem_bandwidth_gbs * 1e9
        )
        exp.add("K=%d" % k, {"write share": 100.0 * t_wb / total})
    return exp


def ablation_prefetch(arch: GPUArchitecture = KEPLER_K40M) -> Experiment:
    """Software prefetching on/off (Algorithms 1-2's overlap mechanism)."""
    exp = Experiment(
        exp_id="ablation-prefetch",
        title="Effect of software prefetching on modeled time",
        unit="GFlop/s",
        columns=["prefetch", "no prefetch"],
        paper_expectation="prefetching overlaps GM loads with compute",
    )
    from repro.core.config import GeneralCaseConfig

    model = TimingModel(arch)
    # A CSH=4 variant needs 20+ KB of shared memory per block, capping
    # residency at ~8 warps/SM — the regime where prefetching matters.
    low_occ = GeneralCaseConfig(w=32, h=8, ftb=32, wt=8, ft=8, csh=4)
    cases = [
        ("special 3x3", SpecialCaseKernel(arch),
         ConvProblem.square(2048, 3, channels=1, filters=32)),
        ("general 3x3", GeneralCaseKernel(arch),
         ConvProblem.square(128, 3, channels=64, filters=128)),
        ("general 5x5 low-occupancy", GeneralCaseKernel(arch, config=low_occ),
         ConvProblem.square(128, 5, channels=64, filters=128)),
    ]
    for label, kernel, problem in cases:
        cost = kernel.cost(problem)
        without = dataclasses.replace(cost, software_prefetch=False)
        exp.add(label, {
            "prefetch": model.evaluate(cost).gflops(problem.flops),
            "no prefetch": model.evaluate(without).gflops(problem.flops),
        })
    return exp


def ablation_thread_layout(arch: GPUArchitecture = KEPLER_K40M) -> Experiment:
    """Contiguous output pixels per thread vs blocked-GEMM layout:
    the SM image-traffic factor (W_T + K - 1)/(W_T * K) of Sec. 4.2."""
    from repro.core.analysis import sm_image_traffic_ratio
    from repro.core.config import TABLE1_CONFIGS

    exp = Experiment(
        exp_id="ablation-thread-layout",
        title="SM image traffic relative to GEMM-style layout",
        unit="ratio",
        columns=["(WT+K-1)/(WT*K)"],
        paper_expectation="well below 1: one register row feeds K rounds",
    )
    for k, cfg in sorted(TABLE1_CONFIGS.items()):
        exp.add("K=%d (WT=%d)" % (k, cfg.wt),
                {"(WT+K-1)/(WT*K)": sm_image_traffic_ratio(cfg, k)})
    return exp


# ----------------------------------------------------------------------
# Extensions (paper Sec. 6 future work)
# ----------------------------------------------------------------------

def extension_short_dtypes() -> Experiment:
    """Sec. 6: short data types are mismatched even on 4-byte banks."""
    from repro.gpu.arch import MAXWELL_GM204

    exp = Experiment(
        exp_id="ext-short-dtypes",
        title="Matched-access bandwidth gain by data type (kernel framing)",
        unit="x",
        columns=["Kepler K40m", "Maxwell GM204"],
        paper_expectation=(
            "fp16/int8 benefit from the model on 4-byte-bank devices too"
        ),
    )
    for width, label in ((4, "float"), (2, "half"), (1, "char")):
        exp.add(label, {
            "Kepler K40m": smem_bandwidth_gain(KEPLER_K40M, width),
            "Maxwell GM204": smem_bandwidth_gain(MAXWELL_GM204, width),
        })
    return exp


def extension_all_methods(arch: GPUArchitecture = KEPLER_K40M) -> Experiment:
    """All convolution methods on VGG-like layers (related-work context:
    FFT and Winograd win only in their niches; direct stays general)."""
    display = {"general": "ours", "implicit-gemm": "cuDNN-like",
               "im2col": "im2col", "naive": "naive", "fft": "FFT",
               "winograd": "Winograd"}
    built = registry_kernels(arch=arch, names=tuple(display))
    kernels = {display[name]: kernel for name, kernel in built.items()}
    exp = Experiment(
        exp_id="ext-all-methods",
        title="Every implemented method on VGG-like 3x3 layers",
        unit="GFlop/s (direct-method flops)",
        columns=list(kernels),
        paper_expectation="direct (ours) competitive everywhere; FFT pays "
        "padded-filter transforms at batch 1; Winograd strong on 3x3",
    )
    exp.rows = compare_on_sweep(kernels, vgg_layers())
    return exp


def extension_fp16_conv(arch: GPUArchitecture = KEPLER_K40M) -> Experiment:
    """Sec. 6 end-to-end: the special-case kernel on short data types.

    With half/char elements the mismatch factor doubles/quadruples, and
    so does the cost of ignoring the model: the matched kernel scales
    with the smaller elements while the unmatched one barely moves.
    """
    from repro.core.bankwidth import DataType

    exp = Experiment(
        exp_id="ext-dtype-conv",
        title="Special-case 3x3 convolution by data type (N=2048, F=32)",
        unit="GFlop/s",
        columns=["matched", "unmatched", "penalty %"],
        paper_expectation=(
            "short data types make bank-width matching more valuable "
            "(Sec. 6); the unmatched penalty grows with n"
        ),
    )
    p = ConvProblem.square(2048, 3, channels=1, filters=32)
    for dtype in (DataType.FLOAT, DataType.HALF, DataType.CHAR):
        m = SpecialCaseKernel(arch, dtype=dtype).gflops(p)
        u = SpecialCaseKernel(arch, dtype=dtype, matched=False).gflops(p)
        exp.add("%s (n=%d)" % (dtype.label,
                               SpecialCaseKernel(arch, dtype=dtype).n),
                {"matched": m, "unmatched": u, "penalty %": 100 * (1 - u / m)})
    return exp


def extension_backend_portfolio() -> Experiment:
    """The whole registered backend portfolio, Kepler versus Pascal.

    One row per registered backend on a single-channel 3x3 workload
    (the one shape every built-in backend can serve), each built kernel
    priced through its own ``gflops``.  A backend whose ``supports``
    rejects the problem on an architecture reports 0.0 — the registry's
    per-arch applicability, as a figure.
    """
    registry = default_registry()
    archs = (KEPLER_K40M, PASCAL_P100)
    exp = Experiment(
        exp_id="ext-backend-portfolio",
        title="Registered backends across architectures (N=512, K=3, C=1, F=32)",
        unit="GFlop/s",
        columns=[a.name for a in archs],
        paper_expectation=(
            "the paper's kernels lead on Kepler; on Pascal's 4-byte "
            "banks (Chang & Onishi, 2022) float data is already matched"
        ),
    )
    p = ConvProblem.square(512, 3, channels=1, filters=32)
    for backend in registry:
        values = {}
        for arch in archs:
            if backend.supports(p, arch):
                values[arch.name] = backend.build(p, arch).gflops(p)
            else:
                values[arch.name] = 0.0
        exp.add(backend.name, values)
    return exp


def ablation_adaptive_config(arch: GPUArchitecture = KEPLER_K40M) -> Experiment:
    """Fixed Table 1 configs vs per-problem selection on small images.

    The paper concedes losses at 32x32; a per-problem tile selector
    (same palette idea as cuDNN's) removes them.
    """
    exp = Experiment(
        exp_id="ablation-adaptive-config",
        title="Fixed Table 1 vs adaptive tile selection (small images)",
        unit="GFlop/s",
        columns=["fixed", "adaptive", "cuDNN"],
        paper_expectation="adaptive selection removes the 32x32 losses",
    )
    registry = default_registry()
    fixed = registry.get("general").build(None, arch)
    cudnn = registry.get("implicit-gemm").build(None, arch)
    for n, c, f, k in ((32, 128, 128, 3), (32, 256, 256, 7),
                       (64, 128, 128, 5), (128, 128, 128, 3)):
        p = ConvProblem.square(n, k, channels=c, filters=f)
        exp.add("N=%d,K=%d,C=%d,F=%d" % (n, k, c, f), {
            "fixed": fixed.gflops(p),
            "adaptive": best_config(p, arch, case="general").gflops,
            "cuDNN": cudnn.gflops(p),
        })
    return exp


def _adaptive_general(problem: ConvProblem,
                      arch: GPUArchitecture) -> GeneralCaseKernel:
    """The general-case kernel at ``problem``'s own winning palette
    configuration (:func:`~repro.core.dse.best_config`)."""
    config = best_config(problem, arch, case="general").config
    return GeneralCaseKernel(arch, config=config)


def extension_stencil(arch: GPUArchitecture = KEPLER_K40M) -> Experiment:
    """Sec. 6: the kernels applied to another application (Jacobi)."""
    from repro.apps.stencil import JacobiStencil

    exp = Experiment(
        exp_id="ext-stencil",
        title="Jacobi relaxation throughput (10 sweeps)",
        unit="Gupdates/s",
        columns=["matched", "unmatched"],
        paper_expectation="bank-width matching carries over to stencils",
    )
    for n in (1024, 2048, 4096):
        exp.add("%dx%d 5-point" % (n, n), {
            "matched": JacobiStencil(arch).updates_per_second(n, n) / 1e9,
            "unmatched": JacobiStencil(arch, matched=False)
            .updates_per_second(n, n) / 1e9,
        })
    exp.add("2048x2048 9-point", {
        "matched": JacobiStencil(arch, points=9).updates_per_second(2048, 2048) / 1e9,
        "unmatched": JacobiStencil(arch, points=9, matched=False)
        .updates_per_second(2048, 2048) / 1e9,
    })
    return exp


def extension_training(arch: GPUArchitecture = KEPLER_K40M) -> Experiment:
    """CNN training passes mapped onto the paper's kernels.

    Forward and input-gradient passes run on the general-case kernel;
    the weight gradient of the deeper layers maps onto the special-case
    kernel per input channel (see conv.gradients).
    """
    from repro.conv.gradients import input_gradient_problem, weight_gradient_problem

    exp = Experiment(
        exp_id="ext-training",
        title="Training-step time per pass on the paper's kernels",
        unit="ms",
        columns=["forward", "dgrad", "wgrad"],
        paper_expectation=(
            "both training phases are served by the two kernels "
            "(wgrad per channel on the special kernel where the "
            "gradient maps fit constant memory)"
        ),
    )
    # The wgrad-as-special-case mapping needs the gradient map to fit
    # constant memory AND the K x (K+n-1) register window to fit the
    # ISA limit — i.e. OH <= ~14: the deepest CNN layers.
    layers = [
        ("late 16x16x512", ConvProblem.square(16, 3, channels=512, filters=64)),
        ("late 14x14x256", ConvProblem.square(14, 3, channels=256, filters=32)),
        ("late 12x12x128", ConvProblem.square(12, 3, channels=128, filters=16)),
    ]
    for label, p in layers:
        fwd = _adaptive_general(p, arch).predict(p).total * 1e3
        dp = input_gradient_problem(p)
        dgrad = _adaptive_general(dp, arch).predict(dp).total * 1e3
        # All C per-channel convolutions batch into one launch (the
        # z grid dimension), exactly as a real wgrad kernel would.
        wg_problem = weight_gradient_problem(p, arch.const_memory_size)
        # A 3x3-output problem wants the narrowest legal block, and even
        # then most of the block is wasted — the table quantifies why
        # production libraries ship dedicated wgrad kernels.
        from repro.core.config import SpecialCaseConfig

        wg_kernel = SpecialCaseKernel(
            arch, config=SpecialCaseConfig(block_w=64, block_h=4))
        wg_cost = wg_kernel.cost(wg_problem)
        wg_cost.ledger.scale(p.channels)
        wg_cost = dataclasses.replace(
            wg_cost,
            launch=dataclasses.replace(
                wg_cost.launch,
                grid=Dim3(wg_cost.launch.grid.x, wg_cost.launch.grid.y,
                          p.channels),
            ),
        )
        wgrad = TimingModel(arch).evaluate(wg_cost).total * 1e3
        exp.add(label, {"forward": fwd, "dgrad": dgrad, "wgrad": wgrad})
    return exp


def extension_fft_batch(arch: GPUArchitecture = KEPLER_K40M) -> Experiment:
    """Sec. 1's FFT-batch argument, quantified.

    "In order to reuse the Fourier transform of the filters, the batch
    size should be big enough": at batch 1 the filter transforms bury
    FFT convolution; the crossover against the paper's direct kernel
    appears at a moderate batch.  Rates are normalized by the
    direct-method operation count (so FFT can exceed machine peak — it
    executes fewer actual flops).
    """
    from repro.conv.batching import BatchedKernel

    exp = Experiment(
        exp_id="ext-fft-batch",
        title="Direct (ours) vs FFT convolution as the batch grows "
              "(N=64, K=5, C=128, F=128)",
        unit="GFlop/s (direct-method flops)",
        columns=["ours", "FFT"],
        paper_expectation=(
            "FFT needs a big batch to amortize the filter transforms "
            "(Sec. 1); direct convolution is batch-insensitive"
        ),
    )
    registry = default_registry()
    p = ConvProblem.square(64, 5, channels=128, filters=128)
    for batch in (1, 2, 4, 8, 16, 32, 64):
        exp.add("batch=%d" % batch, {
            "ours": BatchedKernel(
                registry.get("general").build(None, arch), batch).gflops(p),
            "FFT": BatchedKernel(
                registry.get("fft").build(None, arch), batch).gflops(p),
        })
    return exp


def extension_arch_port() -> Experiment:
    """Sec. 6: the kernels ported across architectures.

    The same special-case kernel, auto-vectorized per device: n = 2 on
    Kepler's 8-byte banks, n = 1 on Fermi/Maxwell for float.  Absolute
    rates follow each machine's bandwidth/compute; the matched/unmatched
    gap exists only where the bank widths are mismatched.
    """
    from repro.gpu.arch import ARCHITECTURES

    exp = Experiment(
        exp_id="ext-arch-port",
        title="Special-case 3x3 kernel across architectures (N=2048, F=16)",
        unit="GFlop/s",
        columns=["matched", "unmatched", "gap %"],
        paper_expectation=(
            "the kernel design ports; only Kepler pays for ignoring the "
            "bank-width model with float data"
        ),
    )
    p = ConvProblem.square(2048, 3, channels=1, filters=16)
    for name in ("kepler", "fermi", "maxwell"):
        arch = ARCHITECTURES[name]
        m = SpecialCaseKernel(arch).gflops(p)
        u = SpecialCaseKernel(arch, matched=False).gflops(p)
        exp.add("%s (n=%d)" % (arch.name, SpecialCaseKernel(arch).n),
                {"matched": m, "unmatched": u, "gap %": 100 * (1 - u / m)})
    return exp


#: Experiment id -> builder, for the benchmark suite and examples.
ALL_EXPERIMENTS = {
    "fig1": fig1_bank_patterns,
    "fig2": fig2_gemm,
    "fig7a": lambda arch=KEPLER_K40M: fig7_special(1, arch),
    "fig7b": lambda arch=KEPLER_K40M: fig7_special(3, arch),
    "fig7c": lambda arch=KEPLER_K40M: fig7_special(5, arch),
    "fig8a": lambda arch=KEPLER_K40M: fig8_general(3, arch),
    "fig8b": lambda arch=KEPLER_K40M: fig8_general(5, arch),
    "fig8c": lambda arch=KEPLER_K40M: fig8_general(7, arch),
    "table1": table1,
    "ablation-unmatched": ablation_unmatched,
    "ablation-bank-policy": ablation_bank_policy,
    "ablation-writeback": ablation_writeback,
    "ablation-prefetch": ablation_prefetch,
    "ablation-thread-layout": ablation_thread_layout,
    "ext-short-dtypes": extension_short_dtypes,
    "ext-all-methods": extension_all_methods,
    "ext-dtype-conv": extension_fp16_conv,
    "ext-backend-portfolio": extension_backend_portfolio,
    "ablation-adaptive-config": ablation_adaptive_config,
    "ext-stencil": extension_stencil,
    "ext-training": extension_training,
    "ext-fft-batch": extension_fft_batch,
    "ext-arch-port": extension_arch_port,
}
