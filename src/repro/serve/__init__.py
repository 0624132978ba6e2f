"""repro.serve — an inference-serving engine for the convolution stack.

Turns the repository's one-shot kernels into a serving layer: a
virtual-clock request queue with dynamic same-shape batching under a
latency deadline (:mod:`~repro.serve.batcher`), an LRU kernel-plan
cache that memoizes the design-space explorer's winner per problem
shape (:mod:`~repro.serve.plan_cache`), a cost-model-driven
multi-backend dispatcher that degrades to the naive-direct backend when
nothing else plans and executes every batch with one bit-identical
reference call (:mod:`~repro.serve.dispatch`), and a stats surface
(:mod:`~repro.serve.stats`).  See docs/SERVING.md.

Quick start::

    from repro.serve import ServeEngine, synthetic_trace

    engine = ServeEngine(deadline_s=1e-3, max_batch=16)
    responses = engine.serve_trace(synthetic_trace(100, seed=7))
    print(engine.format_stats())
"""

from repro.serve.batcher import Batch, DynamicBatcher
from repro.serve.dispatch import DEFAULT_BACKENDS, Dispatcher, KernelPlan
from repro.serve.engine import ServeEngine
from repro.serve.plan_cache import PlanCache
from repro.serve.request import (
    PRIORITY_CLASSES,
    ConvRequest,
    ConvResponse,
    plan_key,
)
from repro.serve.stats import ServeStats, format_stats
from repro.serve.trace import (
    DEFAULT_SERVING_SHAPES,
    load_trace,
    save_trace,
    synthetic_trace,
)

__all__ = [
    "ServeEngine",
    "DynamicBatcher",
    "Batch",
    "Dispatcher",
    "KernelPlan",
    "DEFAULT_BACKENDS",
    "PlanCache",
    "PRIORITY_CLASSES",
    "ConvRequest",
    "ConvResponse",
    "plan_key",
    "ServeStats",
    "format_stats",
    "DEFAULT_SERVING_SHAPES",
    "synthetic_trace",
    "save_trace",
    "load_trace",
]
