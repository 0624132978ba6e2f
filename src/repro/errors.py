"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` et al.) propagate.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ArchitectureError(ReproError):
    """An architecture description is inconsistent or unsupported."""


class LaunchConfigError(ReproError):
    """A kernel launch configuration violates architecture limits."""


class ResourceError(ReproError):
    """A kernel exceeds a hardware resource limit (registers, shared memory)."""


class ConfigurationError(ReproError):
    """A kernel tile/blocking configuration is invalid for the problem."""


class ShapeError(ReproError):
    """Tensor shapes are inconsistent with the convolution problem."""


class BackendError(ReproError):
    """A kernel-backend registry operation (lookup, registration) is invalid."""


class TransientBackendError(BackendError):
    """A backend operation failed transiently and may succeed on retry."""


class ChaosError(ReproError):
    """A fault-injection plan or chaos spec is invalid."""


class TraceError(ReproError):
    """A memory-access trace request is malformed."""


class AuditMismatchError(TraceError):
    """The fast trace generator disagrees with the interpreted oracle."""


class ObservabilityError(ReproError):
    """A telemetry operation (metric, span, exporter) is invalid."""
