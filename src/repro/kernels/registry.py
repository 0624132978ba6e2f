"""The central kernel-backend registry.

One :class:`BackendRegistry` holds every :class:`~repro.kernels.protocol.ConvBackend`
under its name and answers the two questions the consumer layers ask:

* :meth:`BackendRegistry.get` — the backend for a name (unknown names
  raise a :class:`~repro.errors.BackendError` that *lists the registered
  names*, so a CLI typo is self-explaining);
* :meth:`BackendRegistry.available` — the ordered candidate portfolio
  for one ``(problem, arch)`` pair, filtered through each backend's
  :meth:`~repro.kernels.protocol.ConvBackend.admit` and paired with the
  configuration that admission found.  Its per-backend step,
  :meth:`BackendRegistry.admit_one`, and its fallback step,
  :meth:`BackendRegistry.fallback_for`, are also the serving
  dispatcher's walk, which lowers the limit as it prices.

The registry enforces the serving layer's degradation invariant: the
fallback backend (:data:`FALLBACK_BACKEND`, ``naive``) is appended to every
``available`` result even when the caller's subset or the predicate
would exclude it, so a dispatcher can always degrade somewhere.

Lookups are observable: every ``get`` and every ``available`` admission
decision increments ``kernel_backend_lookups_total`` /
``kernel_backend_candidates_total`` on the process-wide metrics surface
(labeled by backend and outcome), so ``repro obs`` shows which backends
the stack actually considered.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.conv.tensors import ConvProblem
from repro.errors import BackendError, ReproError, SearchBounded
from repro.gpu.arch import GPUArchitecture, KEPLER_K40M
from repro.gpu.timing import TimingBreakdown
from repro.kernels.protocol import ConvBackend
from repro.obs.metrics import get_registry

__all__ = ["BackendRegistry"]

#: The degradation target every ``available`` result includes.
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
        "Backend admission decisions in available(), by backend and outcome",
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
        on_error: Optional[Callable[[str, ReproError], None]] = None,
    ) -> Optional[Admitted]:
        """One backend's admission: ``(backend, config, breakdown)`` from
        its ``admit``, or ``None`` when it is left out.

        Each decision is counted in ``kernel_backend_candidates_total``
        by outcome: ``admitted``, ``filtered``, ``bounded`` (its
        ``admit`` raised :class:`~repro.errors.SearchBounded`: it takes
        longer than ``limit``) or ``error`` (any other
        :class:`~repro.errors.ReproError`).  A raise is also reported
        to ``on_error(name, error)``.
        """
        counter = get_registry().handles(_candidate_counter)
        backend = self.get(name)
        try:
            ok, config, breakdown = backend.admit(problem, arch, limit)
        except ReproError as err:
            counter.inc_key((str(name), "bounded" if isinstance(
                err, SearchBounded) else "error"))
            if on_error is not None:
                on_error(name, err)
            return None
        counter.inc_key((str(name), "admitted" if ok else "filtered"))
        return (backend, config, breakdown) if ok else None

    def fallback_for(self, admitted: Sequence[Admitted]) -> List[Admitted]:
        """``[(fallback, None, None)]``, counted with outcome
        ``fallback``, when the ``admitted`` entries lack the registry's
        fallback backend; else ``[]``."""
        if (self.fallback not in self._backends
                or any(entry[0].name == self.fallback for entry in admitted)):
            return []
        get_registry().handles(_candidate_counter).inc_key(
            (str(self.fallback), "fallback"))
        return [(self._backends[self.fallback], None, None)]

    def available(
        self,
        problem: ConvProblem,
        arch: GPUArchitecture = KEPLER_K40M,
        names: Optional[Sequence[str]] = None,
        ensure_fallback: bool = True,
        on_error: Optional[Callable[[str, ReproError], None]] = None,
        limit: float = math.inf,
    ) -> List[Tuple[ConvBackend, object]]:
        """The candidate portfolio for ``(problem, arch)``, in order, as
        ``(backend, config)`` pairs.

        ``names`` restricts (and orders) the considered subset; the
        default is every registered backend in registration order.  Each
        candidate passes through :meth:`admit_one`, whose configuration
        rides along in the pair, and — unless ``ensure_fallback=False``
        — the registry's fallback backend is appended (with config
        ``None``, :meth:`fallback_for`) even when filtered or absent
        from ``names``, preserving the "naive always enabled"
        degradation invariant.

        ``limit`` (seconds) passes to every ``admit``: a backend proved
        to take longer is left out with outcome ``bounded``.
        """
        order = self.names() if names is None else tuple(names)
        admitted = [entry for entry in (
            self.admit_one(name, problem, arch, limit, on_error)
            for name in order) if entry is not None]
        if ensure_fallback:
            admitted += self.fallback_for(admitted)
        return [(backend, config) for backend, config, _ in admitted]
