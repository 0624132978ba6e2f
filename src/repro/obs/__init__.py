"""repro.obs — the unified telemetry layer.

One observability surface for the whole stack (see
docs/OBSERVABILITY.md for the metric-name catalog and span taxonomy):

* :mod:`~repro.obs.metrics` — process-wide **metrics registry** with
  labeled counters, gauges, and sample-retaining histograms; the
  serving engine, plan cache, batcher, design-space explorer and
  (on request only) ``TimingModel.publish`` record into it.
* :mod:`~repro.obs.tracing` — **span tracer** with coexisting wall and
  virtual (modeled GPU) clocks.
* :mod:`~repro.obs.exporters` — Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``) and Prometheus text exposition, plus parsers/
  validators for round-trip testing.
* :mod:`~repro.obs.instrument` — ``instrument()`` decorator/context
  manager for one-line span + histogram coverage of any code path.

Quick start::

    from repro import obs
    from repro.serve import ServeEngine, synthetic_trace

    engine = ServeEngine(registry=obs.get_registry(),
                         tracer=obs.get_tracer())
    engine.serve_trace(synthetic_trace(50))
    print(obs.to_prometheus(obs.get_registry()))
    obs.write_chrome_trace("trace.json", obs.get_tracer())
"""

from repro.obs.exporters import (
    chrome_trace,
    parse_prometheus,
    registry_to_json,
    to_prometheus,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.instrument import instrument
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Metric,
    Registry,
    get_registry,
    reset_registry,
    set_registry,
)
from repro.obs.tracing import (
    Span,
    Tracer,
    VIRTUAL_TRACK,
    WALL_TRACK,
    get_tracer,
    reset_tracer,
    set_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "Registry",
    "get_registry",
    "set_registry",
    "reset_registry",
    "Span",
    "Tracer",
    "WALL_TRACK",
    "VIRTUAL_TRACK",
    "get_tracer",
    "set_tracer",
    "reset_tracer",
    "instrument",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "to_prometheus",
    "parse_prometheus",
    "registry_to_json",
]
