"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single except clause while letting
programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """Invalid configuration value (bad schedule string, chunk <= 0, ...)."""


class PlatformError(ReproError):
    """Inconsistent platform description (no cores, unknown core type, ...)."""


class SchedulerError(ReproError):
    """A loop scheduler was driven through an invalid state transition."""


class WorkShareError(ReproError):
    """Invalid operation on a work-share structure (e.g. negative range)."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class WorkloadError(ReproError):
    """Invalid workload description (empty loop, negative cost, ...)."""


class CompilerError(ReproError):
    """Invalid program IR handed to the compiler model."""


class ExperimentError(ReproError):
    """An experiment harness was given inconsistent parameters."""


class ObsError(ReproError):
    """Invalid use of the observability layer (bad metric kind, malformed
    decision record, unreadable snapshot)."""


class FleetError(ReproError):
    """The experiment-orchestration fleet failed (undigestable job spec,
    exhausted retries, malformed cache entry or result payload)."""


class BreakerOpen(FleetError):
    """Internal control-flow signal: the process pool's circuit breaker
    tripped.

    Raised by the pool after it has requeued (uncharged) everything in
    flight; :func:`~repro.fleet.pool.run_jobs` catches it and runs the
    unresolved jobs inline (:data:`~repro.fleet.supervisor.DEGRADATION`).
    """

    def __init__(self, tier: str, reason: str) -> None:
        super().__init__(f"circuit breaker open for {tier!r}: {reason}")
        self.tier = tier
        self.reason = reason


class FaultError(ReproError):
    """Invalid fault-injection plan or an inconsistency detected while
    applying one (malformed event, negative window, unknown CPU)."""


class WatchdogTimeout(FaultError):
    """A real-thread worker stalled past the watchdog deadline and never
    came back, and its work could not be fully redistributed."""


class BackendError(ReproError):
    """Invalid execution-backend selection or misuse of the backend
    protocol (unknown backend name, bad ``REPRO_BACKEND`` value, a
    backend asked to run a workload outside its capabilities)."""
