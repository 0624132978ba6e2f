"""Benchmark: a fanned-out design-space sweep beats the serial one.

A wall-clock claim depends on the host (core count, neighbours), so it
stays out of the deterministic tier-1 suite, which keeps the sweep's
``serial == fanned`` half.  Run it with

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_dse.py
"""

import os
import time

import pytest

from repro.core.dse import enumerate_general_configs, explore_general
from repro.gpu.arch import KEPLER_K40M
from repro.obs.metrics import reset_registry
from repro.parallel import parallel_map, shutdown_pools


@pytest.fixture(autouse=True)
def _fresh_state():
    reset_registry()
    yield
    shutdown_pools()
    reset_registry()


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="speedup needs at least 2 cores")
class TestSpeedup:
    def test_parallel_dse_sweep_is_faster_than_serial(self):
        configs = enumerate_general_configs(3, 2, KEPLER_K40M)
        # Warm the pool so fork cost doesn't count against the sweep.
        parallel_map(abs, [1, 2, 3, 4], jobs=2)
        start = time.perf_counter()
        serial = explore_general(3, configs=configs, jobs=1)
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        fanned = explore_general(3, configs=configs, jobs=2)
        fanned_s = time.perf_counter() - start
        assert serial == fanned
        assert fanned_s < serial_s
