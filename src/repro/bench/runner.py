"""Experiment runner: evaluates kernels over workload sweeps and
collects comparable series, one row per x-axis position of a paper
figure.  Experiments serialize to CSV and JSON so downstream analysis
(plotting, regression tracking) does not have to re-run the models."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.conv.workloads import WorkloadPoint
from repro.errors import ReproError

__all__ = ["ComparisonRow", "Experiment", "compare_on_sweep",
           "registry_kernels"]


@dataclass
class ComparisonRow:
    """One x-axis position: a label plus one value per compared method."""

    label: str
    values: Dict[str, float]

    def ratio(self, numerator: str, denominator: str) -> float:
        denom = self.values[denominator]
        if denom == 0:
            raise ReproError(
                "zero denominator %r for ratio %r/%r in row %r"
                % (denominator, numerator, denominator, self.label))
        return self.values[numerator] / denom


@dataclass
class Experiment:
    """A reproduced table or figure: labeled rows of method series."""

    exp_id: str                 # e.g. "fig7b"
    title: str
    unit: str                   # "GFlop/s", "ms", "cycles", ...
    columns: List[str]          # method names, display order
    rows: List[ComparisonRow] = field(default_factory=list)
    paper_expectation: str = ""
    notes: str = ""

    def add(self, label: str, values: Mapping[str, float]) -> None:
        missing = [c for c in self.columns if c not in values]
        if missing:
            raise ReproError("row %r missing columns %s" % (label, missing))
        self.rows.append(ComparisonRow(label=label, values=dict(values)))

    def series(self, column: str) -> List[float]:
        return [row.values[column] for row in self.rows]

    def ratios(self, numerator: str, denominator: str) -> List[float]:
        return [row.ratio(numerator, denominator) for row in self.rows]

    def mean_ratio(self, numerator: str, denominator: str) -> float:
        ratios = self.ratios(numerator, denominator)
        return sum(ratios) / len(ratios)

    # --- serialization -------------------------------------------------
    def to_csv(self) -> str:
        """CSV with a header row: workload, then one column per method.

        Line terminator is pinned to ``"\\n"`` — ``csv.writer`` defaults
        to ``"\\r\\n"`` everywhere, which makes committed CSV artifacts
        diff noisily across OSes and CI runners.
        """
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["workload"] + self.columns)
        for row in self.rows:
            writer.writerow([row.label] + [row.values[c] for c in self.columns])
        return buf.getvalue()

    def to_json(self) -> str:
        """Self-describing JSON (metadata + rows)."""
        return json.dumps({
            "exp_id": self.exp_id,
            "title": self.title,
            "unit": self.unit,
            "paper_expectation": self.paper_expectation,
            "notes": self.notes,
            "columns": self.columns,
            "rows": [
                {"label": r.label, "values": r.values} for r in self.rows
            ],
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Experiment":
        """Inverse of :meth:`to_json`."""
        data = json.loads(text)
        exp = cls(
            exp_id=data["exp_id"], title=data["title"], unit=data["unit"],
            columns=list(data["columns"]),
            paper_expectation=data.get("paper_expectation", ""),
            notes=data.get("notes", ""),
        )
        for row in data["rows"]:
            exp.add(row["label"], row["values"])
        return exp


def registry_kernels(
    problem=None,
    arch=None,
    names: Optional[Sequence[str]] = None,
    registry=None,
) -> Dict[str, object]:
    """Default-configuration kernels from the backend registry, keyed by
    backend name — the registry-driven way to assemble a
    :func:`compare_on_sweep` portfolio.

    ``names`` restricts (and orders) the portfolio; the default is every
    registered backend.  When ``problem`` is given, backends that do not
    ``supports(problem, arch)`` are silently dropped, so a sweep over a
    multi-channel workload simply omits the special-case kernel instead
    of failing.
    """
    from repro.gpu.arch import KEPLER_K40M
    from repro.kernels import default_registry

    registry = registry if registry is not None else default_registry()
    arch = arch if arch is not None else KEPLER_K40M
    kernels: Dict[str, object] = {}
    for name in (registry.names() if names is None else names):
        backend = registry.get(name)
        if problem is not None and not backend.supports(problem, arch):
            continue
        kernels[name] = backend.build(problem, arch)
    return kernels


def compare_on_sweep(
    kernels: Mapping[str, object],
    points: Sequence[WorkloadPoint],
    metric: Optional[Callable] = None,
) -> List[ComparisonRow]:
    """Evaluate every kernel on every sweep point, in sweep order.

    ``metric`` defaults to the kernel's modeled GFlop/s (normalized by
    the nominal operation count, as the paper reports).
    """
    metric = metric or (lambda kernel, problem: kernel.gflops(problem))
    return [
        ComparisonRow(label=point.label,
                      values={name: metric(kernel, point.problem)
                              for name, kernel in kernels.items()})
        for point in points
    ]
