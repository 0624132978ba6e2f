"""Pin the settable surface of the serving, fleet, timing and telemetry
constructors, and the one pricing surface of the kernels.

Bounds, retry budgets and model calibration are module constants, read
where they are used; only the values a caller really varies are
parameters.  Every kernel prices under the model of its own
architecture, so no pricing call takes a timing model.  Adding a
parameter or a config field means editing the written lists here on
purpose.
"""

import dataclasses
import inspect

import pytest

from repro.apps.stencil import JacobiStencil
from repro.baselines.gemm import TiledGemmKernel
from repro.baselines.implicit_gemm import ImplicitGemmKernel
from repro.bench.roofline import roofline_point, roofline_report
from repro.conv.batching import BatchedKernel
from repro.core.depthwise import DepthwiseKernel
from repro.core.dse import explore_general, explore_special
from repro.errors import ReproError
from repro.fleet import (
    AdmissionController,
    CircuitBreaker,
    FleetConfig,
    HealthTracker,
    SharedPlanCache,
)
from repro.fleet import admission, engine, health, shared_cache
from repro.gpu import timing
from repro.gpu.arch import KEPLER_K40M
from repro.gpu.timing import Priced, TimingModel
from repro.gpu.trace import KernelTracer
from repro.kernels import BackendRegistry, ConvBackend, default_registry
from repro.kernels import registry as kernel_registry
from repro.obs import metrics, tracing
from repro.obs.metrics import Histogram, Registry
from repro.obs.tracing import Tracer
from repro.serve import dispatch, plan_cache
from repro.serve.dispatch import Dispatcher
from repro.serve.engine import ServeEngine
from repro.serve.plan_cache import PlanCache


def test_fleet_config_fields():
    assert [f.name for f in dataclasses.fields(FleetConfig)] == [
        "arch", "replicas", "deadline_s", "max_batch", "backends",
        "queue_depth", "breaker_threshold", "hedge",
    ]


SIGNATURES = [
    (TimingModel, ["arch", "registry"]),
    (ServeEngine, ["arch", "deadline_s", "max_batch", "backends",
                   "registry", "tracer"]),
    (Dispatcher, ["arch", "cache", "backends", "registry", "tracer",
                  "kernels", "chaos"]),
    (PlanCache, ["registry"]),
    (SharedPlanCache, ["registry"]),
    (AdmissionController, ["router", "queue_depth", "window_s",
                           "registry"]),
    (HealthTracker, ["n_replicas", "registry", "failure_threshold"]),
    (CircuitBreaker, ["failure_threshold"]),
    (BackendRegistry, []),
    (Tracer, []),
    (Histogram, ["name", "help", "labelnames", "buckets"]),
    (Registry.histogram, ["name", "help", "labelnames", "buckets"]),
    (ImplicitGemmKernel, ["arch", "tiling", "bank_policy"]),
    (DepthwiseKernel, ["arch", "config", "bank_policy"]),
    (JacobiStencil, ["arch", "points", "matched"]),
    (explore_special, ["arch", "problem", "limit"]),
    (explore_general, ["kernel_size", "arch", "problem", "configs",
                       "limit"]),
    (ConvBackend.admit, ["problem", "arch", "limit"]),
    (BackendRegistry.available, ["problem", "arch", "names",
                                 "ensure_fallback", "on_error", "limit"]),
    (KernelTracer.finish, ["name", "launch", "software_prefetch"]),
    (Priced.predict, ["problem"]),
    (Priced.gflops, ["problem"]),
    (BatchedKernel.gflops, ["problem"]),
    (TiledGemmKernel.time_ms, ["shape"]),
    (JacobiStencil.predict, ["height", "width", "iterations"]),
    (roofline_point, ["kernel", "problem"]),
    (roofline_report, ["kernels", "problem"]),
]


@pytest.mark.parametrize("target,expected", SIGNATURES,
                         ids=[t.__qualname__ for t, _ in SIGNATURES])
def test_parameters(target, expected):
    names = list(inspect.signature(target).parameters)
    assert [n for n in names if n != "self"] == expected


def _kernel_classes():
    """Every class a registered backend builds, plus the GEMM and batch
    kernels: each prices through :class:`Priced`."""
    classes = []
    for backend in default_registry():
        try:
            classes.append(type(backend.build(None)))
        except ReproError:
            continue
    return classes + [TiledGemmKernel, BatchedKernel]


KERNEL_CLASSES = _kernel_classes()


@pytest.mark.parametrize("cls", KERNEL_CLASSES, ids=lambda c: c.__name__)
def test_kernels_inherit_the_pricing_surface(cls):
    assert issubclass(cls, Priced)
    assert "predict" not in vars(cls)
    # Each class inherits ``predict`` from ``Priced`` and from no other
    # kernel, so wrapping one class's ``predict`` wraps only that class.
    assert [c for c in KERNEL_CLASSES if c is not cls and issubclass(cls, c)] \
        == []


def test_no_timing_model_is_passed_around():
    assert len(KERNEL_CLASSES) == 10
    assert not hasattr(ConvBackend, "timing")
    assert not hasattr(Dispatcher(arch=KEPLER_K40M), "model")


def test_fixed_values():
    assert (timing.LAUNCH_OVERHEAD_S, timing.SYNC_CYCLES, timing.HIDE_WARPS,
            timing.HIDE_WARPS_PREFETCH, timing.SAT_WARPS, timing.ETA_MAX,
            timing.COMPUTE_EFFICIENCY) == (5e-6, 30.0, 16.0, 6.0, 8.0,
                                           0.92, 0.70)
    assert (plan_cache.CAPACITY, shared_cache.CAPACITY) == (128, 1024)
    assert (dispatch.PLAN_RETRIES, engine.FAILOVER_RETRIES,
            engine.RETRY_BACKOFF_S, health.BREAKER_COOLDOWN_S,
            health.BREAKER_THRESHOLD) == (2, 2, 1e-3, 0.05, 3)
    assert admission.DEFAULT_SHED_RECORD_CAP == 10_000
    assert (tracing.MAX_SPANS, metrics.MAX_SAMPLES) == (100_000, 65536)
    assert kernel_registry.FALLBACK_BACKEND == BackendRegistry.fallback \
        == "naive"
