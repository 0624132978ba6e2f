"""Exporters: Chrome trace-event JSON and Prometheus text exposition.

* :func:`chrome_trace` renders a :class:`~repro.obs.tracing.Tracer`
  (and optionally a registry summary) as a Chrome trace-event JSON
  object loadable in Perfetto / ``chrome://tracing``.  Wall and virtual
  spans become two separate "processes" so host planning activity sits
  above the modeled device timeline; wall spans nest by depth onto
  thread tracks.
* :func:`to_prometheus` renders a :class:`~repro.obs.metrics.Registry`
  in the Prometheus text exposition format (version 0.0.4) —
  ``# HELP`` / ``# TYPE`` headers, escaped label values, and full
  ``_bucket``/``_sum``/``_count`` expansion for histograms.
* :func:`parse_prometheus` is the inverse used by the round-trip tests
  (and by anyone scraping a dump back into Python).
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.metrics import Counter, Gauge, Histogram, Registry
from repro.obs.tracing import Tracer, VIRTUAL_TRACK, WALL_TRACK

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "to_prometheus",
    "parse_prometheus",
    "registry_to_json",
]

#: Chrome trace "process" ids for the two clocks.
WALL_PID = 1
VIRTUAL_PID = 2


# ----------------------------------------------------------------------
# Chrome trace events
# ----------------------------------------------------------------------

def chrome_trace(tracer: Tracer, registry: Optional[Registry] = None) -> dict:
    """Render the tracer's spans as a Chrome trace-event JSON object."""
    events: List[dict] = [
        {"name": "process_name", "ph": "M", "pid": WALL_PID, "tid": 0,
         "args": {"name": "host (wall clock)"}},
        {"name": "process_name", "ph": "M", "pid": VIRTUAL_PID, "tid": 0,
         "args": {"name": "modeled GPU (virtual clock)"}},
    ]
    virtual_tids: Dict[str, int] = {}
    for span in tracer.spans:
        ts_us = span.start_s * 1e6
        dur_us = span.duration_s * 1e6
        if span.track == WALL_TRACK:
            pid, tid = WALL_PID, span.depth
        else:
            # One virtual thread-track per category keeps overlapping
            # modeled spans (queue window vs device busy) readable.
            tid = virtual_tids.setdefault(span.category, len(virtual_tids))
            pid = VIRTUAL_PID
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": ts_us,
            "dur": dur_us,
            "pid": pid,
            "tid": tid,
            "args": dict(span.args),
        })
    for category, tid in virtual_tids.items():
        events.append({
            "name": "thread_name", "ph": "M", "pid": VIRTUAL_PID,
            "tid": tid, "args": {"name": category},
        })
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "dropped_spans": tracer.dropped},
    }
    if registry is not None:
        doc["otherData"]["metrics"] = registry.collect()
    return doc


def write_chrome_trace(path: str, tracer: Tracer,
                       registry: Optional[Registry] = None) -> dict:
    """Write the trace to ``path``; returns the document written."""
    doc = chrome_trace(tracer, registry=registry)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return doc


def validate_chrome_trace(doc: dict) -> None:
    """Raise :class:`ObservabilityError` unless ``doc`` is a loadable trace.

    Checks the subset of the trace-event schema the viewers actually
    require: a ``traceEvents`` list whose members carry a name, a known
    phase, and — for complete ("X") events — non-negative numeric
    ``ts``/``dur`` plus ``pid``/``tid``.
    """
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ObservabilityError("trace document needs a traceEvents list")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ObservabilityError("traceEvents must be a list")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ObservabilityError("traceEvents[%d] is not an object" % i)
        if not isinstance(event.get("name"), str):
            raise ObservabilityError("traceEvents[%d] has no name" % i)
        phase = event.get("ph")
        if phase not in ("X", "M", "B", "E", "i", "I", "C"):
            raise ObservabilityError(
                "traceEvents[%d] has unknown phase %r" % (i, phase))
        if phase == "X":
            for field in ("ts", "dur"):
                value = event.get(field)
                if not isinstance(value, (int, float)) or value < 0 \
                        or not math.isfinite(value):
                    raise ObservabilityError(
                        "traceEvents[%d].%s is not a non-negative number"
                        % (i, field))
            for field in ("pid", "tid"):
                if not isinstance(event.get(field), int):
                    raise ObservabilityError(
                        "traceEvents[%d].%s is not an int" % (i, field))
    json.dumps(doc)  # must be serializable end-to-end


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def _escape_label_value(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _unescape_label_value(value: str) -> str:
    out, i = [], 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        '%s="%s"' % (name, _escape_label_value(str(value)))
        for name, value in sorted(labels.items())
    )
    return "{%s}" % body


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


def to_prometheus(registry: Registry) -> str:
    """Render every metric in the Prometheus text exposition format."""
    lines: List[str] = []
    for metric in registry:
        if metric.help:
            lines.append("# HELP %s %s"
                         % (metric.name, metric.help.replace("\n", " ")))
        lines.append("# TYPE %s %s" % (metric.name, metric.type_name))
        if isinstance(metric, Histogram):
            for labels, _ in metric.series():
                for bound, count in metric.cumulative_buckets(**labels):
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = _format_value(bound)
                    lines.append("%s_bucket%s %d" % (
                        metric.name, _format_labels(bucket_labels), count))
                lines.append("%s_sum%s %s" % (
                    metric.name, _format_labels(labels),
                    _format_value(metric.sum(**labels))))
                lines.append("%s_count%s %d" % (
                    metric.name, _format_labels(labels),
                    metric.count(**labels)))
        elif isinstance(metric, (Counter, Gauge)):
            for labels, value in metric.series():
                lines.append("%s%s %s" % (
                    metric.name, _format_labels(labels),
                    _format_value(float(value))))
    return "\n".join(lines) + "\n"


def _parse_labels(body: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        name = body[i:eq].strip().lstrip(",").strip()
        if body[eq + 1] != '"':
            raise ObservabilityError("label value must be quoted: %r" % body)
        j = eq + 2
        raw = []
        while j < len(body):
            ch = body[j]
            if ch == "\\":
                raw.append(body[j:j + 2])
                j += 2
                continue
            if ch == '"':
                break
            raw.append(ch)
            j += 1
        else:
            raise ObservabilityError("unterminated label value: %r" % body)
        labels[name] = _unescape_label_value("".join(raw))
        i = j + 1
    return labels


def parse_prometheus(text: str) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Parse exposition text into ``{(name, sorted labels): value}``.

    Histogram ``_bucket``/``_sum``/``_count`` expansions parse as their
    literal sample names, which is exactly what the round-trip tests
    compare against.
    """
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name = line[:line.index("{")]
            rest = line[line.index("{") + 1:]
            close = rest.rindex("}")
            labels = _parse_labels(rest[:close])
            value_text = rest[close + 1:].strip()
        else:
            parts = line.split()
            if len(parts) < 2:
                raise ObservabilityError("malformed sample line %r" % line)
            name, value_text = parts[0], parts[1]
            labels = {}
        value_text = value_text.split()[0]
        if value_text == "+Inf":
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        else:
            try:
                value = float(value_text)
            except ValueError as exc:
                raise ObservabilityError(
                    "malformed sample value in %r" % line) from exc
        samples[(name, tuple(sorted(labels.items())))] = value
    return samples


def registry_to_json(registry: Registry) -> dict:
    """The ``repro obs --format json`` document."""
    return {"version": 1, "metrics": registry.collect()}
