"""Benchmarks: the ablations DESIGN.md calls out — each isolates one
design decision of the paper's kernels."""

import pytest

from repro.bench.figures import (
    ablation_adaptive_config,
    ablation_bank_policy,
    ablation_prefetch,
    ablation_thread_layout,
    ablation_unmatched,
    ablation_writeback,
)


def test_ablation_unmatched(benchmark, save_experiment):
    """Matched vs unmatched W_CD for both kernels."""
    exp = benchmark(ablation_unmatched)
    save_experiment(exp)
    for row in exp.rows:
        assert row.values["unmatched"] < row.values["matched"]


def test_ablation_bank_policy(benchmark, save_experiment):
    """Paper's serialization model vs hardware word-merge."""
    exp = benchmark(ablation_bank_policy)
    save_experiment(exp, precision=2)
    unmatched = next(r for r in exp.rows if r.label == "unmatched")
    assert unmatched.values["paper-policy"] == pytest.approx(2.0, rel=0.01)
    matched = next(r for r in exp.rows if r.label == "matched")
    assert matched.values["paper-policy"] == pytest.approx(1.0, rel=0.01)


def test_ablation_writeback(benchmark, save_experiment):
    """Sec. 4.2: the uncoalesced writeback 'consumes very little time'."""
    exp = benchmark(ablation_writeback)
    save_experiment(exp, precision=2)
    for row in exp.rows:
        assert row.values["write share"] < 10.0


def test_ablation_prefetch(benchmark, save_experiment):
    """Software prefetching matters exactly when occupancy is low."""
    exp = benchmark(ablation_prefetch)
    save_experiment(exp)
    low = next(r for r in exp.rows if "low-occupancy" in r.label)
    assert low.values["prefetch"] > 1.1 * low.values["no prefetch"]
    high = next(r for r in exp.rows if r.label == "general 3x3")
    assert high.values["prefetch"] == pytest.approx(high.values["no prefetch"])


def test_ablation_thread_layout(benchmark, save_experiment):
    """Contiguous-output-per-thread cuts SM image traffic (Sec. 4.2)."""
    exp = benchmark(ablation_thread_layout)
    save_experiment(exp, precision=3)
    for row in exp.rows:
        assert row.values["(WT+K-1)/(WT*K)"] < 0.5


def test_ablation_adaptive_config(benchmark, save_experiment):
    """Per-problem tile selection removes the paper's 32x32 losses."""
    exp = benchmark(ablation_adaptive_config)
    save_experiment(exp)
    for row in exp.rows:
        assert row.values["adaptive"] >= 0.999 * row.values["fixed"]
        # Adaptive is at least as fast as the cuDNN-like baseline on
        # every row, the smallest images included.
        assert row.values["adaptive"] >= row.values["cuDNN"]
