"""Process-wide metrics: counters, gauges, histograms with labeled series.

The registry is the single surface every layer of the stack reports
through — the serving engine's request/batch/latency series, the plan
cache's hit/miss counters, and the GPU cost model's transaction /
bank-conflict / cycle ledgers all become named, labeled metric series
that one ``repro obs`` call (or one exporter) can walk.

Design notes:

* A metric is *named* (``serve_requests_total``) and *labeled*
  (``backend="special"``); each distinct label-value combination is an
  independent series.  Label names are fixed at metric creation, in
  Prometheus style.
* Counters are monotonically non-decreasing floats (the cost model's
  transaction counts are fractional by design — they are expectations,
  not samples — so counters accept float increments).
* Histograms retain their raw observations (bounded by
  :data:`MAX_SAMPLES` with deterministic decimation) so exact quantiles,
  exact value counts (the batch-size histogram), *and* cumulative
  Prometheus buckets all come from one series.
* Everything is JSON-serializable via :meth:`Registry.collect`.

A process-wide default registry is available through
:func:`get_registry` / :func:`set_registry` / :func:`reset_registry`;
engine-scoped components (one :class:`~repro.serve.engine.ServeEngine`
per test, say) can instead own a private :class:`Registry`.
"""

from __future__ import annotations

import math
import re
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "Registry",
    "get_registry",
    "set_registry",
    "reset_registry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default cumulative bucket bounds for exported histograms: log-spaced
#: from microseconds to seconds, wide enough for both modeled kernel
#: times and wall-clock phase times.
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0,
)

#: Samples one histogram series retains before it decimates.
MAX_SAMPLES = 65536


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise ObservabilityError("invalid metric name %r" % (name,))
    return name


class Metric:
    """Base: one named metric holding labeled series."""

    type_name = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()):
        self.name = _check_name(name)
        self.help = help
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ObservabilityError("invalid label name %r" % (label,))
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._series: "OrderedDict[Tuple[str, ...], object]" = OrderedDict()

    # ------------------------------------------------------------------
    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        # Equal length plus every expected name present implies the
        # label-name sets match; checked this way (instead of building
        # two sets) because this runs on every labeled write.  Most
        # metrics take no label or one, so those skip the generator.
        names = self.labelnames
        if len(labels) == len(names):
            if not names:
                return ()
            try:
                if len(names) == 1:
                    return (str(labels[names[0]]),)
                return tuple(str(labels[name]) for name in names)
            except KeyError:
                pass
        raise ObservabilityError(
            "metric %s takes labels %r, got %r"
            % (self.name, self.labelnames, tuple(sorted(labels))))

    def _bad_key(self, key: Tuple[str, ...]) -> ObservabilityError:
        return ObservabilityError(
            "metric %s takes labels %r, got key %r"
            % (self.name, self.labelnames, key))

    def series(self) -> "List[Tuple[Dict[str, str], object]]":
        """Every (labels dict, series) pair, in creation order."""
        return [
            (dict(zip(self.labelnames, key)), data)
            for key, data in self._series.items()
        ]

    def collect(self) -> dict:
        """JSON-serializable description of this metric and its series."""
        return {
            "name": self.name,
            "type": self.type_name,
            "help": self.help,
            "series": [
                {"labels": labels, "value": self._collect_series(data)}
                for labels, data in self.series()
            ],
        }

    def _collect_series(self, data):
        return data


class Counter(Metric):
    """Monotone accumulator (floats allowed: model counts are expectations)."""

    type_name = "counter"

    def inc(self, value: float = 1.0, **labels) -> None:
        if value < 0:
            raise ObservabilityError(
                "counter %s cannot decrease (inc %r)" % (self.name, value))
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + value

    def inc_key(self, key: Tuple[str, ...], value: float = 1.0) -> None:
        """Increment by a precomputed series key (label values in
        ``labelnames`` order, each a ``str``: ``("1",)``, never
        ``(1,)``, which would be a second series for the same labels).

        The hot-path twin of :meth:`inc` for publishers that write
        with statically known label structure (the kernel-cost ledger
        mirror, the serving and fleet layers); it skips the kwargs dict
        and the per-call label-name validation.
        """
        if value < 0:
            raise ObservabilityError(
                "counter %s cannot decrease (inc %r)" % (self.name, value))
        if len(key) != len(self.labelnames):
            raise self._bad_key(key)
        self._series[key] = self._series.get(key, 0.0) + value

    def value(self, **labels) -> float:
        return float(self._series.get(self._key(labels), 0.0))

    def total(self) -> float:
        """Sum over every labeled series."""
        return float(sum(self._series.values()))


class Gauge(Metric):
    """Point-in-time value (queue depth, cache occupancy)."""

    type_name = "gauge"

    def set(self, value: float, **labels) -> None:
        self._series[self._key(labels)] = float(value)

    def set_key(self, key: Tuple[str, ...], value: float) -> None:
        """:meth:`set` by a precomputed series key (see
        :meth:`Counter.inc_key`)."""
        if len(key) != len(self.labelnames):
            raise self._bad_key(key)
        self._series[key] = float(value)

    def inc(self, value: float = 1.0, **labels) -> None:
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + value

    def dec(self, value: float = 1.0, **labels) -> None:
        self.inc(-value, **labels)

    def value(self, **labels) -> float:
        return float(self._series.get(self._key(labels), 0.0))


class _HistogramSeries:
    """One labeled histogram series: raw samples + running aggregates."""

    __slots__ = ("samples", "sum", "count", "min", "max", "_stride", "_skip")

    def __init__(self):
        self.samples: List[float] = []
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        self._stride = 1      # deterministic decimation factor
        self._skip = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        # What min() and max() would keep, without their calls.
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # Deterministic reservoir: when full, double the stride and keep
        # every other retained sample, then admit every stride-th new
        # observation.  Quantiles stay unbiased for smooth streams and
        # the whole thing is reproducible (no RNG).
        if self._skip:
            self._skip -= 1
            return
        self.samples.append(value)
        self._skip = self._stride - 1
        if len(self.samples) > MAX_SAMPLES:
            self.samples = self.samples[::2]
            self._stride *= 2
            self._skip = self._stride - 1

    def merge(self, other: "_HistogramSeries") -> None:
        """Add ``other``'s observations: aggregates exactly, retained
        samples appended and re-decimated past :data:`MAX_SAMPLES`."""
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.samples.extend(other.samples)
        self._stride = max(self._stride, other._stride)
        while len(self.samples) > MAX_SAMPLES:
            self.samples = self.samples[::2]
            self._stride *= 2


class Histogram(Metric):
    """Distribution metric with exact-sample quantiles and value counts."""

    type_name = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Optional[Sequence[float]] = None):
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(buckets)) if buckets else DEFAULT_BUCKETS
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ObservabilityError("histogram buckets must be increasing")
        self.buckets: Tuple[float, ...] = bounds

    # ------------------------------------------------------------------
    def _get_key(self, key: Tuple[str, ...]) -> _HistogramSeries:
        data = self._series.get(key)
        if data is None:
            data = self._series[key] = _HistogramSeries()
        return data

    def observe(self, value: float, **labels) -> None:
        self._get_key(self._key(labels)).observe(value)

    def observe_key(self, key: Tuple[str, ...], value: float) -> None:
        """:meth:`observe` by a precomputed series key (see
        :meth:`Counter.inc_key`)."""
        if len(key) != len(self.labelnames):
            raise self._bad_key(key)
        self._get_key(key).observe(value)

    # ------------------------------------------------------------------
    def count(self, **labels) -> int:
        key = self._key(labels)
        data = self._series.get(key)
        return data.count if data is not None else 0

    def observed_count(self, **labels) -> int:
        """Observations ever made on this series (alias of ``count``)."""
        return self.count(**labels)

    def sample_count(self, **labels) -> int:
        """Samples actually retained after deterministic decimation.

        Equal to ``observed_count`` until the reservoir fills; smaller
        afterwards — at which point every sample-derived statistic
        (quantiles, ``value_counts``) is an estimate, not an exact
        read.  See :meth:`is_estimated`.
        """
        key = self._key(labels)
        data = self._series.get(key)
        return len(data.samples) if data is not None else 0

    def is_estimated(self, **labels) -> bool:
        """True when quantiles are computed from a truncated reservoir.

        :data:`MAX_SAMPLES` was exceeded, so ``percentile``/``value_counts``
        work from a decimated subset of the observations rather than
        every value seen.  Exporters surface this as ``estimated`` so a
        reader never mistakes a reservoir estimate for an exact p99.
        """
        key = self._key(labels)
        data = self._series.get(key)
        return data is not None and data.count != len(data.samples)

    def sum(self, **labels) -> float:
        key = self._key(labels)
        data = self._series.get(key)
        return data.sum if data is not None else 0.0

    def mean(self, **labels) -> float:
        key = self._key(labels)
        data = self._series.get(key)
        if data is None or not data.count:
            return 0.0
        return data.sum / data.count

    def max(self, **labels) -> float:
        key = self._key(labels)
        data = self._series.get(key)
        return data.max if data is not None and data.count else 0.0

    def percentile(self, q: float, **labels) -> float:
        """Linear-interpolated quantile of the retained samples.

        ``q`` is in percent (50 = median).  Returns 0.0 for an empty
        series, matching the stats surface's convention for means.
        """
        if not 0.0 <= q <= 100.0:
            raise ObservabilityError("percentile must be in [0, 100]")
        key = self._key(labels)
        data = self._series.get(key)
        if data is None:
            return 0.0
        return self._percentile_of(data, q)

    @staticmethod
    def _percentile_of(data: "_HistogramSeries", q: float) -> float:
        if not data.samples:
            return 0.0
        ordered = sorted(data.samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        lo = int(math.floor(rank))
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def value_counts(self, **labels) -> Dict[float, int]:
        """Exact retained-sample counts per distinct value (batch sizes)."""
        key = self._key(labels)
        data = self._series.get(key)
        counts: Dict[float, int] = {}
        if data is not None:
            for value in data.samples:
                counts[value] = counts.get(value, 0) + 1
            if data._stride > 1:
                counts = {v: c * data._stride for v, c in counts.items()}
        return counts

    def cumulative_buckets(self, **labels) -> List[Tuple[float, int]]:
        """(upper bound, cumulative count) pairs, ending with +Inf."""
        key = self._key(labels)
        data = self._series.get(key)
        out: List[Tuple[float, int]] = []
        samples = sorted(data.samples) if data is not None else []
        scale = data._stride if data is not None else 1
        i = 0
        for bound in self.buckets:
            while i < len(samples) and samples[i] <= bound:
                i += 1
            out.append((bound, i * scale))
        out.append((math.inf, (data.count if data is not None else 0)))
        return out

    def _collect_series(self, data: _HistogramSeries) -> dict:
        estimated = data.count != len(data.samples)
        out = {
            "count": data.count,
            "observed_count": data.count,
            "sample_count": len(data.samples),
            "estimated": estimated,
            "sum": data.sum,
            "min": data.min if data.count else 0.0,
            "max": data.max if data.count else 0.0,
        }
        if estimated:
            # Quantiles from a truncated reservoir are estimates; say so
            # next to the numbers a dashboard would read.
            out["quantiles"] = {
                "p50": self._percentile_of(data, 50.0),
                "p95": self._percentile_of(data, 95.0),
                "p99": self._percentile_of(data, 99.0),
            }
        return out


class Registry:
    """Named metric store with get-or-create accessors."""

    _TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self):
        self._metrics: "OrderedDict[str, Metric]" = OrderedDict()
        self._handles: Dict[object, object] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help=help, labelnames=labelnames, **kwargs)
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, cls):
            raise ObservabilityError(
                "metric %s already registered as %s"
                % (name, metric.type_name))
        if tuple(labelnames) != metric.labelnames:
            raise ObservabilityError(
                "metric %s already registered with labels %r"
                % (name, metric.labelnames))
        return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames,
                                   buckets=buckets)

    def handles(self, resolve):
        """``resolve(self)``, computed once and kept until :meth:`clear`.

        Publishers on hot paths (the kernel-cost ledger mirror, the
        timing model) resolve their metric objects through this once
        per registry instead of one get-or-create lookup per metric per
        event.  ``resolve`` is the memo key, so pass a module-level
        function.
        """
        try:
            return self._handles[resolve]
        except KeyError:
            handles = self._handles[resolve] = resolve(self)
            return handles

    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterable[Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        return list(self._metrics)

    def collect(self) -> List[dict]:
        """JSON-serializable dump of every metric (the ``repro obs`` body)."""
        return [metric.collect() for metric in self._metrics.values()]

    def clear(self) -> None:
        """Drop every metric (a fresh registry without replacing the object)."""
        self._metrics.clear()
        self._handles.clear()

    def merge(self, other: "Registry") -> None:
        """Fold every series of ``other`` into this registry.

        Counters add, gauges take ``other``'s value (last write wins),
        and histograms add count and sum, take the min and max, and
        append ``other``'s retained samples, re-decimating past
        :data:`MAX_SAMPLES`.  Zero counters and empty histogram series
        add no series; a metric missing here is created with
        ``other``'s help, labels and buckets.
        """
        for metric in other:
            if isinstance(metric, Counter):
                target = self.counter(metric.name, metric.help,
                                      metric.labelnames)
                for key, value in metric._series.items():
                    if value:
                        target.inc_key(key, value)
            elif isinstance(metric, Gauge):
                target = self.gauge(metric.name, metric.help,
                                    metric.labelnames)
                for key, value in metric._series.items():
                    target._series[key] = float(value)
            else:
                target = self.histogram(
                    metric.name, metric.help, metric.labelnames,
                    buckets=metric.buckets)
                for key, data in metric._series.items():
                    if data.count:
                        target._get_key(key).merge(data)


# ----------------------------------------------------------------------
# Process-wide default registry
# ----------------------------------------------------------------------

_global_registry = Registry()


def get_registry() -> Registry:
    """The process-wide default registry (CLI runs report through it)."""
    return _global_registry


def set_registry(registry: Registry) -> Registry:
    """Swap the process-wide registry; returns the previous one."""
    global _global_registry
    if not isinstance(registry, Registry):
        raise ObservabilityError("set_registry needs a Registry")
    previous = _global_registry
    _global_registry = registry
    return previous


def reset_registry() -> Registry:
    """Replace the process-wide registry with a fresh one and return it."""
    global _global_registry
    _global_registry = Registry()
    return _global_registry
