"""Request/response records for the serving engine.

A :class:`ConvRequest` is one convolution to serve: the problem
description, the input arrays, and a *modeled* arrival time (the serving
engine keeps a virtual clock in modeled seconds, the same unit every
:class:`~repro.gpu.timing.TimingBreakdown` reports).  A
:class:`ConvResponse` carries the result plus the serving metadata the
stats surface aggregates: which backend it was routed to, in which batch,
and the modeled cost attributed to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.conv.tensors import ConvProblem
from repro.errors import ReproError
from repro.gpu.arch import GPUArchitecture

__all__ = [
    "PRIORITY_CLASSES",
    "ConvRequest",
    "ConvResponse",
    "plan_key",
]


def plan_key(problem: ConvProblem, arch: GPUArchitecture) -> Tuple:
    """Cache/batching key: the full problem shape plus the architecture.

    ``ConvProblem`` is a frozen dataclass, so the problem itself is
    hashable; the architecture contributes by name (presets are unique).
    """
    return (problem, arch.name)


#: Priority classes a request may carry, most to least important.  The
#: single-engine path ignores them; the fleet's admission controller
#: (see :mod:`repro.fleet.admission`) orders backpressure by class.
PRIORITY_CLASSES = ("critical", "standard", "batch")


@dataclass(eq=False)
class ConvRequest:
    """One convolution to serve.

    ``seed`` records the ``ConvProblem.random_instance`` seed the arrays
    were generated from, when applicable — it is what trace files
    persist instead of the raw arrays.

    ``priority`` and ``deadline_s`` are serving-QoS annotations: the
    priority class (one of :data:`PRIORITY_CLASSES`) and an *absolute*
    virtual-time completion deadline.  A single :class:`ServeEngine`
    ignores both; the fleet layer sheds expired requests at admission
    and counts deadline misses at completion.
    """

    req_id: int
    problem: ConvProblem
    image: np.ndarray
    filters: np.ndarray
    arrival_s: float = 0.0
    seed: Optional[int] = None
    priority: str = "standard"
    deadline_s: Optional[float] = None

    def __post_init__(self):
        self.image = self.problem.check_image(self.image)
        self.filters = self.problem.check_filters(self.filters)
        if self.priority not in PRIORITY_CLASSES:
            raise ReproError(
                "unknown priority %r; priority classes: %s"
                % (self.priority, ", ".join(PRIORITY_CLASSES)))


@dataclass(eq=False)
class ConvResponse:
    """The served result plus batching/dispatch metadata."""

    req_id: int
    output: np.ndarray
    backend: str                 # planned backend that priced it
    batch_id: int
    batch_size: int
    modeled_seconds: float       # this request's share of the batch cost
    completed_s: float           # virtual-clock completion time
    latency_s: float             # completed_s - arrival_s
