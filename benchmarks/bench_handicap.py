"""Benchmark: the deliberate-slowdown handicap stretches host wall time.

``REPRO_SIM_HANDICAP`` (or ``DeviceExecutor(handicap=)``) slows the
simulator's host loop so the perf gate can be shown to catch a
regression.  How much slower a run gets depends on the host (core
count, neighbours), so these wall-clock claims stay out of the
deterministic tier-1 suite, which keeps the half that says modeled
metrics do not move.  Each test runs its workload once before timing,
so one-time warm-up (imports, trace caches) does not land in the base
run.  Run them with

    PYTHONPATH=src python -m pytest benchmarks/bench_handicap.py
"""

import time

import numpy as np

from repro.gpu.arch import KEPLER_K40M
from repro.gpu.device import DeviceExecutor, HANDICAP_ENV


class TestHandicapWallClock:
    def _run_block_seconds(self, handicap=None):
        ex = DeviceExecutor(KEPLER_K40M, handicap=handicap)
        buf = ex.alloc_global(np.zeros(64, np.float32), "buf")

        def program(block, buf):
            deadline = time.perf_counter() + 0.02
            while time.perf_counter() < deadline:
                pass
            for warp in block.warps():
                warp.gload(buf, np.arange(32), site="gm.load")
                break

        start = time.perf_counter()
        ex.run_block(program, (0, 0), 32, buf)
        return time.perf_counter() - start

    def test_handicap_slows_run_block(self):
        self._run_block_seconds()
        base = self._run_block_seconds()
        slowed = self._run_block_seconds(handicap=3.0)
        assert slowed > base * 1.8

    def test_handicap_slows_simulator_workload_end_to_end(self, monkeypatch):
        from repro.obs.perf.suite import run_workload

        monkeypatch.delenv(HANDICAP_ENV, raising=False)
        run_workload("simulator", scale="smoke")
        base = run_workload("simulator", scale="smoke")
        monkeypatch.setenv(HANDICAP_ENV, "4")
        slowed = run_workload("simulator", scale="smoke")
        assert slowed["modeled_total_s"] == base["modeled_total_s"]
        assert slowed["flops"] == base["flops"]
        assert slowed["wall_s"] > base["wall_s"] * 2.0
