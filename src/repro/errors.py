"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ScheduleError",
    "TraceError",
    "TimingError",
    "WorkloadError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid system, cache, or experiment configuration was supplied.

    Raised, for example, for non-power-of-two cache sizes, a block size
    larger than the cache, or a pipeline depth outside the supported range.
    """


class ScheduleError(ReproError):
    """A delay-slot scheduling transformation could not be applied."""


class TraceError(ReproError):
    """A trace could not be generated, read, or interleaved."""


class TimingError(ReproError):
    """Timing analysis failed, e.g. no feasible clock period exists."""


class WorkloadError(ReproError):
    """A synthetic workload specification is inconsistent."""
