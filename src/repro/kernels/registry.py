"""The central kernel-backend registry.

One :class:`BackendRegistry` holds every :class:`~repro.kernels.protocol.ConvBackend`
under its name and answers the two questions the consumer layers ask:

* :meth:`BackendRegistry.get` — the backend for a name (unknown names
  raise a :class:`~repro.errors.BackendError` that *lists the registered
  names*, so a CLI typo is self-explaining);
* :meth:`BackendRegistry.admit_one` — one backend's admission for one
  ``(problem, arch)`` pair under a time limit: its outcome
  (``admitted``, ``filtered``, ``bounded`` or ``error``) and, when
  admitted, the configuration and breakdown its
  :meth:`~repro.kernels.protocol.ConvBackend.admit` found.  The serving
  dispatcher's walk calls it once per backend, lowering the limit as it
  prices.

The registry names the serving layer's degradation target,
:data:`FALLBACK_BACKEND` (``naive``), which every dispatcher keeps in
its portfolio.

Lookups are observable: every ``get`` and every admission decision
increments ``kernel_backend_lookups_total`` /
``kernel_backend_candidates_total`` on the process-wide metrics surface
(labeled by backend and outcome), so ``repro obs`` shows which backends
the stack actually considered.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Iterator, Optional, Tuple

from repro.conv.tensors import ConvProblem
from repro.errors import BackendError, ReproError
from repro.gpu.arch import GPUArchitecture, KEPLER_K40M
from repro.gpu.timing import TimingBreakdown
from repro.kernels.protocol import BOUNDED, ConvBackend
from repro.obs.metrics import get_registry

__all__ = ["BackendRegistry"]

#: The degradation target every dispatcher's portfolio includes.
FALLBACK_BACKEND = "naive"


# Each counter is resolved once per process-wide registry
# (``Registry.handles``) through its own resolver, so each is still
# created on first use, in the order the calls first need them.

def _lookup_counter(reg):
    return reg.counter(
        "kernel_backend_lookups_total",
        "Backend registry lookups, by backend name and outcome",
        labelnames=("backend", "outcome"))


def _candidate_counter(reg):
    return reg.counter(
        "kernel_backend_candidates_total",
        "Backend admission decisions in admit_one(), by backend and outcome",
        labelnames=("backend", "outcome"))


#: One admitted backend: ``(backend, config, breakdown)``.
Admitted = Tuple[ConvBackend, object, Optional[TimingBreakdown]]


class BackendRegistry:
    """Ordered name -> :class:`ConvBackend` registry with admission."""

    #: :data:`FALLBACK_BACKEND`, readable on every registry.
    fallback = FALLBACK_BACKEND

    def __init__(self):
        self._backends: "OrderedDict[str, ConvBackend]" = OrderedDict()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, backend: ConvBackend,
                 replace: bool = False) -> ConvBackend:
        """Register ``backend`` under its ``name``; returns it.

        Re-registering a name raises unless ``replace=True`` (the escape
        hatch for swapping in an instrumented or experimental variant).
        """
        name = getattr(backend, "name", "")
        if not name or not isinstance(name, str):
            raise BackendError(
                "a backend must carry a non-empty string .name, got %r"
                % (name,))
        if name in self._backends and not replace:
            raise BackendError(
                "backend %r is already registered; pass replace=True to "
                "override" % name)
        self._backends[name] = backend
        return backend

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def names(self) -> tuple:
        """Registered backend names, in registration order."""
        return tuple(self._backends)

    def __contains__(self, name: str) -> bool:
        return name in self._backends

    def __iter__(self) -> Iterator[ConvBackend]:
        return iter(self._backends.values())

    def __len__(self) -> int:
        return len(self._backends)

    def _unknown_message(self, name: str) -> str:
        return ("unknown backend %r; registered backends: %s"
                % (name, ", ".join(sorted(self._backends)) or "(none)"))

    def get(self, name: str) -> ConvBackend:
        """The backend registered under ``name``.

        Raises :class:`BackendError` naming every registered backend
        when the lookup misses.
        """
        backend = self._backends.get(name)
        get_registry().handles(_lookup_counter).inc_key(
            (str(name), "hit" if backend else "unknown"))
        if backend is None:
            raise BackendError(self._unknown_message(name))
        return backend

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit_one(
        self,
        name: str,
        problem: ConvProblem,
        arch: GPUArchitecture = KEPLER_K40M,
        limit: float = math.inf,
    ) -> Tuple[str, Optional[Admitted]]:
        """One backend's admission: ``(outcome, entry)``, where ``entry``
        is ``(backend, config, breakdown)`` from its ``admit`` when the
        outcome is ``admitted`` and ``None`` otherwise.

        The outcome is counted in ``kernel_backend_candidates_total``:
        ``admitted``, ``filtered``, ``bounded`` (its ``admit`` answered
        :data:`~repro.kernels.protocol.BOUNDED`: it takes longer than
        ``limit``) or ``error`` (its ``admit`` raised a
        :class:`~repro.errors.ReproError`).
        """
        counter = get_registry().handles(_candidate_counter)
        backend = self.get(name)
        try:
            ok, config, breakdown = backend.admit(problem, arch, limit)
        except ReproError:
            outcome, entry = "error", None
        else:
            entry = (backend, config, breakdown) if ok else None
            outcome = ("admitted" if ok else
                       "bounded" if config is BOUNDED else "filtered")
        counter.inc_key((str(name), outcome))
        return outcome, entry
