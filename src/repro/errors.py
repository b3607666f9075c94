"""Exception hierarchy for the ephemeral-logging reproduction.

All library errors derive from :class:`ReproError` so that callers can catch
one base class.  Errors are raised for programming mistakes and impossible
states; *expected* simulation outcomes (a transaction being killed because
the log ran out of space, for example) are modelled as events and counted in
the metrics, not raised.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A configuration value is missing, malformed or inconsistent."""


class SimulationError(ReproError):
    """The simulation engine was used incorrectly."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or re-used after cancellation."""


class LogFullError(ReproError):
    """A log queue has no usable space left and no kill policy resolved it.

    This is only raised when the configured kill policy declines to free
    space (e.g. ``KillPolicy.FORBID`` in tests); normal simulations convert
    space exhaustion into transaction kills.
    """


class RecordIntegrityError(ReproError):
    """A log record failed validation (bad size, type or encoding)."""


class WorkloadError(ConfigurationError):
    """A workload specification is invalid (bad pdf, negative rates, ...)."""


class SearchError(ReproError):
    """A minimum-space search could not bracket a feasible configuration."""


class ParallelExecutionError(ReproError):
    """A worker run failed (or timed out) after exhausting its retries."""


class SweepInterruptedError(ParallelExecutionError):
    """A sweep was interrupted (Ctrl-C, dead worker pool) mid-batch.

    Completed runs are already in the per-run cache; ``completed_fingerprints``
    names them so a re-run of the same sweep resumes where it stopped
    instead of starting over.
    """

    def __init__(self, message: str, completed_fingerprints=()):
        super().__init__(message)
        self.completed_fingerprints = list(completed_fingerprints)
