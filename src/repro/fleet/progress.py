"""Fleet observability: counters, a per-job event log, merged metrics.

:class:`FleetProgress` is the fleet's sibling of the runtime's
:class:`~repro.obs.Observability` integration — in fact it *wraps* an
``Observability`` bundle, so fleet counters land in the same metrics
registry format, export through the same
:func:`~repro.obs.snapshot.build_snapshot`, and read back with the same
report tooling. On top of the counters it keeps an append-only per-job
event log (submitted / cache-hit / started / retried / failed /
completed), JSONL-writable like the scheduler decision log, and a
:class:`~repro.obs.merge.MergedSnapshot` folding every job's worker-side
observability capture into the same registry — so one
:meth:`FleetProgress.obs_snapshot` document carries both the fleet's own
counters and the merged runtime metrics of every cell it ran.

Counters (all label-free, so summaries are single reads):

* ``fleet_jobs_submitted`` — specs handed to the fleet;
* ``fleet_cache_hits`` / ``fleet_cache_misses`` — cache resolution;
* ``fleet_jobs_computed`` — jobs that actually ran a simulation;
* ``fleet_retries`` — re-submissions after a crash/timeout/error;
* ``fleet_timeouts`` — per-job deadline expiries;
* ``fleet_failures`` — jobs abandoned after exhausting retries;
* ``fleet_heartbeats_total`` — worker heartbeats (piggybacked on job
  completion; silence is what the hang detector measures);
* ``fleet_hangs_detected_total`` — workers aborted early by the
  EWMA-based hang deadline (before the full per-job timeout);
* ``fleet_jobs_poisoned_total`` — jobs quarantined after repeatedly
  breaking the worker pool;
* ``fleet_breaker_trips_total`` — circuit-breaker trips (each one
  moves the sweep from the process pool to inline execution);
* ``fleet_cache_errors_total`` — cache I/O errors tolerated (degraded
  to misses / uncached successes);
* ``fleet_job_duration_seconds`` — histogram of compute wall times;
* ``fleet_duration_estimate_seconds`` — gauge per job profile: the
  cache's EWMA wall-time estimate feeding LPT dispatch, published so
  dispatch-order decisions are auditable from the report CLI.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.fleet.jobs import JobResult, JobSpec
from repro.obs import Observability
from repro.obs.merge import MergedSnapshot

#: Event-log format identifier.
EVENTS_SCHEMA = "repro.fleet.events/v1"

#: Wall-time histogram buckets (seconds): sim cells run milliseconds to
#: minutes, so decades with a 3x midpoint resolve the useful range.
DURATION_BUCKETS = (0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 60.0, 600.0)

#: Counter names, in summary order.
COUNTERS = (
    "fleet_jobs_submitted",
    "fleet_cache_hits",
    "fleet_cache_misses",
    "fleet_jobs_computed",
    "fleet_retries",
    "fleet_timeouts",
    "fleet_failures",
    "fleet_heartbeats_total",
    "fleet_hangs_detected_total",
    "fleet_jobs_poisoned_total",
    "fleet_breaker_trips_total",
    "fleet_cache_errors_total",
)


class FleetProgress:
    """Counters + per-job event log for one fleet run (or several)."""

    def __init__(self, obs: Observability | None = None) -> None:
        self.obs = obs if obs is not None else Observability()
        self.events: list[dict] = []
        # Pre-create every counter so summaries read zeros, not errors.
        for name in COUNTERS:
            self.obs.registry.counter(name)
        self._duration_hist = self.obs.registry.histogram(
            "fleet_job_duration_seconds", buckets=DURATION_BUCKETS
        )
        # Per-job worker captures merge into the same registry, so one
        # snapshot carries fleet counters + merged runtime metrics.
        self.merged = MergedSnapshot(registry=self.obs.registry)

    # -- hooks called by the pool ------------------------------------------

    def job_submitted(self, spec: JobSpec) -> None:
        self._count("fleet_jobs_submitted")
        self._event("submitted", spec)

    def cache_hit(self, spec: JobSpec) -> None:
        self._count("fleet_cache_hits")
        self._event("cache_hit", spec)

    def cache_miss(self, spec: JobSpec) -> None:
        self._count("fleet_cache_misses")
        self._event("cache_miss", spec)

    def job_started(self, spec: JobSpec, mode: str, attempt: int) -> None:
        self._event("started", spec, mode=mode, attempt=attempt)

    def job_retried(self, spec: JobSpec, attempt: int, reason: str) -> None:
        self._count("fleet_retries")
        self._event("retried", spec, attempt=attempt, reason=reason)

    def job_timeout(self, spec: JobSpec, timeout: float) -> None:
        self._count("fleet_timeouts")
        self._event("timeout", spec, timeout=timeout)

    def job_failed(self, spec: JobSpec, error: str) -> None:
        self._count("fleet_failures")
        self._event("failed", spec, error=error)

    def job_completed(
        self, spec: JobSpec, duration: float, attempts: int
    ) -> None:
        self._count("fleet_jobs_computed")
        # Completion is the worker heartbeat: hang detection measures
        # silence between these.
        self._count("fleet_heartbeats_total")
        self._duration_hist.observe(duration)
        self._event("completed", spec, duration=duration, attempts=attempts)

    def job_hang(self, spec: JobSpec, deadline: float) -> None:
        """A worker went silent past its EWMA-based hang deadline."""
        self._count("fleet_hangs_detected_total")
        self._event("hang", spec, deadline=deadline)

    def job_poisoned(self, spec: JobSpec, reason: str) -> None:
        """A job was quarantined after repeatedly breaking the pool."""
        self._count("fleet_jobs_poisoned_total")
        self._event("poisoned", spec, reason=reason)

    def breaker_tripped(
        self, spec: JobSpec, tier: str, next_tier: str, reason: str
    ) -> None:
        """A tier's circuit breaker opened; the sweep degrades."""
        self._count("fleet_breaker_trips_total")
        self._event(
            "breaker_tripped", spec, tier=tier, next_tier=next_tier,
            reason=reason,
        )

    def breaker_skipped(self, spec: JobSpec, tier: str) -> None:
        """A batch skipped a tier whose breaker was already open."""
        self._event("breaker_skipped", spec, tier=tier)

    def pool_break_injected(self, spec: JobSpec) -> None:
        """The chaos harness broke the pool after this submission."""
        self._event("pool_break_injected", spec)

    def cache_error(self, spec: JobSpec, op: str, error: str) -> None:
        """A cache I/O error was tolerated (miss / uncached success)."""
        self._count("fleet_cache_errors_total")
        self._event("cache_error", spec, op=op, error=error)

    def degraded(self, spec: JobSpec, reason: str) -> None:
        """The pool fell back to inline execution."""
        self._event("degraded", spec, reason=reason)

    # -- per-job observability capture -------------------------------------

    def job_obs(self, spec: JobSpec, result: JobResult) -> None:
        """Merge one job's worker-side obs capture into the fleet view.

        The pool calls this for every successful outcome — computed or
        replayed from cache — in *submission order*, which pins the
        gauge last-wins semantics: serial and parallel runs of the same
        grid merge identically.
        """
        snapshot = result.obs_snapshot()
        if snapshot is None:
            return
        self.merged.add_job(
            snapshot,
            program=spec.program.name,
            config=spec.label or spec.env.schedule,
            platform=spec.platform.name,
        )

    def record_duration_estimates(self, cache, specs: Iterable[JobSpec]) -> None:
        """Publish the cache's EWMA wall-time estimate per job profile
        as ``fleet_duration_estimate_seconds`` gauges, making the LPT
        dispatch order auditable from the obs report."""
        estimates = cache.profile_estimates()
        for profile in sorted({spec.profile_key for spec in specs}):
            if profile in estimates:
                self.obs.registry.gauge(
                    "fleet_duration_estimate_seconds", profile=profile
                ).set(estimates[profile])

    def obs_snapshot(self, meta: dict | None = None) -> dict:
        """The fleet-level snapshot document: fleet counters + merged
        per-job metrics + the combined decision summary."""
        return self.merged.to_snapshot(meta=meta)

    # -- reading -----------------------------------------------------------

    def count(self, name: str) -> float:
        return self.obs.registry.value(name)

    def summary(self) -> dict:
        """One flat dict of every fleet counter (JSON-ready)."""
        return {
            "schema": "repro.fleet.summary/v1",
            **{name.removeprefix("fleet_"): int(self.count(name))
               for name in COUNTERS},
        }

    def format_summary(self) -> str:
        s = self.summary()
        line = (
            f"fleet: {s['jobs_submitted']} jobs — "
            f"{s['cache_hits']} cached, {s['jobs_computed']} computed, "
            f"{s['retries']} retried, {s['failures']} failed"
        )
        if s.get("jobs_poisoned_total"):
            line += f", {s['jobs_poisoned_total']} poisoned"
        if s.get("breaker_trips_total"):
            line += f", {s['breaker_trips_total']} breaker trip(s)"
        return line

    def write_events_jsonl(self, path: str | Path) -> Path:
        """Dump the event log, one JSON object per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for rec in self.events:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        return path

    # -- internals ---------------------------------------------------------

    def _count(self, name: str) -> None:
        self.obs.registry.counter(name).inc()

    def _event(self, event: str, spec: JobSpec, **fields: object) -> None:
        rec: dict = {
            "seq": len(self.events),
            "event": event,
            "digest": spec.key,
            "program": spec.program.name,
            "label": spec.label or spec.env.schedule,
            "platform": spec.platform.name,
        }
        rec.update(fields)
        self.events.append(rec)


#: Shared do-nothing sink: the default when callers pass no progress.
class NullFleetProgress(FleetProgress):
    """Every hook is a no-op; used when no progress sink is supplied."""

    def __init__(self) -> None:  # noqa: D107 - no registry at all
        self.obs = None  # type: ignore[assignment]
        self.events = []

    def _count(self, name: str) -> None:
        pass

    def _event(self, event: str, spec: JobSpec, **fields: object) -> None:
        pass

    def job_completed(self, spec, duration, attempts):  # type: ignore[override]
        pass

    def job_obs(self, spec, result):  # type: ignore[override]
        pass

    def record_duration_estimates(self, cache, specs):  # type: ignore[override]
        pass

    def obs_snapshot(self, meta=None):  # type: ignore[override]
        return MergedSnapshot().to_snapshot(meta=meta)

    def count(self, name: str) -> float:
        return 0.0

    def summary(self) -> dict:
        return {"schema": "repro.fleet.summary/v1"}


NULL_PROGRESS = NullFleetProgress()
