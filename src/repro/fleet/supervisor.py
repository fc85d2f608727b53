"""Fleet supervision: heartbeats, hang detection, poison quarantine,
circuit-breaker degradation, and reproducible retry jitter.

This module hardens the orchestrator against its own environment. One
:class:`Supervisor` instance watches a whole sweep (it can span several
:func:`~repro.fleet.pool.run_jobs` batches — the CLI reuses one across
grids) and provides four mechanisms:

* **Heartbeats + hang detection.** Every job completion is a heartbeat
  (``fleet_heartbeats_total``). A worker that goes silent is caught
  *before* the full per-job timeout: each submitted job gets an
  early-abort deadline derived from the cache's EWMA duration estimate
  (``estimate x hang_factor``, floored at ``hang_floor``); when it
  expires the job is treated exactly like a timeout — charged, the pool
  cancelled-and-rebuilt — but counted on ``fleet_hangs_detected_total``
  and reported as a hang. Jobs with no estimate fall back to the plain
  timeout.

* **Poison-job quarantine.** A job whose failures *broke the pool*
  (worker crash, timeout, hang) ``poison_threshold`` times (default 2)
  is not retried again even with budget left: it is quarantined — a
  ``poisoned`` record in the checkpoint journal, a ``.poison`` marker
  beside its cache entry slot, ``fleet_jobs_poisoned_total`` — and the
  sweep continues. A later sweep over the same cache skips the digest
  up front instead of breaking its pool all over again.

* **A circuit breaker on the process pool.** ``breaker_threshold``
  (default 3) *consecutive* infrastructure failures — pool breaks,
  timeouts, hangs, injected worker kills; never deterministic job
  exceptions — trip the pool's breaker: the pool raises
  :class:`BreakerOpen`, ``run_jobs`` counts ``fleet_breaker_trips_total``
  and runs the unresolved jobs inline (:data:`DEGRADATION`). The
  submission-order observability merge happens after whichever tier
  finishes the work, so degradation never perturbs merged snapshots.
  Breakers
  recover by **half-open probing**: after ``breaker_cooldown`` terminal
  job events (a logical clock, not wall time — deterministic), the
  next batch is allowed one probe of the tripped tier; a success closes
  the breaker, a failure reopens it immediately.

* **Seeded retry jitter.** Retry backoff is multiplied by a factor in
  ``[1 - jitter, 1 + jitter)`` derived from SHA-256 of
  ``(seed, digest, attempt)`` — thundering-herd resubmits are spread
  out, yet every run of the same sweep sleeps the same schedule.

Nothing here touches simulated numbers: supervision changes *when and
where* a job is retried, never what it computes, so the fleet's
byte-equality contracts (jobs=1 == jobs=N == warm cache, and the chaos
harness's equality-under-chaos property) hold under every mechanism.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import BreakerOpen, FleetError

__all__ = [
    "DEGRADATION",
    "Breaker",
    "BreakerOpen",
    "Supervisor",
    "SupervisorConfig",
]

#: The graceful-degradation ladder, which is also the set of tier
#: names: when the pool's breaker trips, the sweep's remaining jobs run
#: inline. ``inline`` is the floor — it has no infrastructure to fail.
DEGRADATION: tuple[str, ...] = ("process", "inline")


@dataclass(frozen=True)
class SupervisorConfig:
    """Policy knobs for one :class:`Supervisor`.

    Attributes:
        hang_factor: early-abort deadline = EWMA duration estimate x
            this factor (None disables estimate-based hang detection
            and leaves only the plain per-job timeout).
        hang_floor: never hang-abort before this many seconds, however
            small the estimate — guards against EWMA noise on very
            short jobs.
        poison_threshold: pool-breaking failures of one job before it
            is quarantined instead of retried.
        breaker_threshold: consecutive infrastructure failures on one
            tier before its circuit breaker trips.
        breaker_cooldown: terminal job events (logical clock) an open
            breaker waits before allowing a half-open probe.
        jitter: retry-backoff jitter fraction; each backoff sleep is
            scaled by a factor in ``[1 - jitter, 1 + jitter)``.
        seed: seed for the digest-keyed jitter stream.
    """

    hang_factor: float | None = 8.0
    hang_floor: float = 1.0
    poison_threshold: int = 2
    breaker_threshold: int = 3
    breaker_cooldown: int = 16
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hang_factor is not None and self.hang_factor <= 0:
            raise FleetError("hang_factor must be positive (or None)")
        if self.hang_floor < 0:
            raise FleetError("hang_floor must be >= 0")
        if self.poison_threshold < 1:
            raise FleetError("poison_threshold must be >= 1")
        if self.breaker_threshold < 1:
            raise FleetError("breaker_threshold must be >= 1")
        if self.breaker_cooldown < 1:
            raise FleetError("breaker_cooldown must be >= 1")
        if not (0.0 <= self.jitter < 1.0):
            raise FleetError("jitter must be in [0, 1)")


class Breaker:
    """One tier's circuit breaker: closed -> open -> half-open.

    State transitions are driven by a *logical* clock (the supervisor's
    terminal-event counter), never wall time, so breaker behaviour under
    a fixed failure sequence is fully deterministic.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, tier: str, threshold: int, cooldown: int) -> None:
        self.tier = tier
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = self.CLOSED
        self.failures = 0  #: consecutive infrastructure failures
        self.opened_at = 0  #: logical-clock reading when last opened
        self.trips = 0

    def allow(self, now: int) -> bool:
        """May this tier run a batch? An open breaker transitions to
        half-open (and allows one probe) once the cooldown elapsed."""
        if self.state == self.OPEN:
            if now - self.opened_at >= self.cooldown:
                self.state = self.HALF_OPEN
                return True
            return False
        return True

    def record_success(self) -> None:
        """A job completed on this tier: reset and close."""
        self.failures = 0
        self.state = self.CLOSED

    def record_failure(self, now: int) -> bool:
        """One infrastructure failure; returns True when this call
        tripped the breaker open (a half-open probe reopens on its
        first failure, whatever the threshold)."""
        self.failures += 1
        if self.state == self.HALF_OPEN or self.failures >= self.threshold:
            self.state = self.OPEN
            self.opened_at = now
            self.failures = 0
            self.trips += 1
            return True
        return False


class Supervisor:
    """Cross-batch supervision state for one fleet sweep."""

    def __init__(self, config: SupervisorConfig | None = None) -> None:
        self.config = config if config is not None else SupervisorConfig()
        self._breakers: dict[str, Breaker] = {}
        self._breaks: dict[str, int] = {}
        self._seq = 0

    # -- logical clock -----------------------------------------------------

    @property
    def seq(self) -> int:
        """Terminal job events seen so far (the breaker cooldown clock)."""
        return self._seq

    def tick(self) -> None:
        """Advance the logical clock by one terminal job event."""
        self._seq += 1

    # -- circuit breakers --------------------------------------------------

    def breaker(self, tier: str) -> Breaker:
        if tier not in self._breakers:
            self._breakers[tier] = Breaker(
                tier,
                self.config.breaker_threshold,
                self.config.breaker_cooldown,
            )
        return self._breakers[tier]

    def tier_allowed(self, tier: str) -> bool:
        """Ladder check before a batch: closed or (half-open) probe-able."""
        return self.breaker(tier).allow(self._seq)

    def infra_failure(self, tier: str) -> bool:
        """Record one infrastructure failure on ``tier``; True = tripped."""
        return self.breaker(tier).record_failure(self._seq)

    def infra_success(self, tier: str) -> None:
        self.breaker(tier).record_success()

    # -- poison accounting -------------------------------------------------

    def note_break(self, digest: str) -> int:
        """One pool-breaking failure attributed to ``digest``; returns
        the running count."""
        self._breaks[digest] = self._breaks.get(digest, 0) + 1
        return self._breaks[digest]

    # -- hang detection ----------------------------------------------------

    def job_deadline(
        self, spec, cache, timeout: float | None
    ) -> tuple[float | None, bool]:
        """The in-flight deadline for one submission.

        Returns ``(deadline_seconds, is_hang_deadline)``: the tighter of
        the configured per-job ``timeout`` and the EWMA-based early-abort
        bound (``estimate x hang_factor``, floored at ``hang_floor``).
        ``is_hang_deadline`` is True when the estimate bound is the
        binding one — expiry then reports a *hang*, not a timeout.
        """
        hang = None
        if self.config.hang_factor is not None and cache is not None:
            try:
                est = cache.duration_estimate(spec)
            except OSError:
                est = None
            if est is not None:
                hang = max(
                    self.config.hang_floor, est * self.config.hang_factor
                )
        if hang is None:
            return timeout, False
        if timeout is None or hang < timeout:
            return hang, True
        return timeout, False

    # -- reproducible retry jitter -----------------------------------------

    def backoff_delay(self, digest: str, attempt: int, base: float) -> float:
        """Exponential backoff with seeded, digest-keyed jitter.

        ``base * 2**(attempt-1)`` scaled by a factor in
        ``[1 - jitter, 1 + jitter)`` drawn from SHA-256 of
        ``(seed, digest, attempt)`` — deterministic per (supervisor
        seed, job, attempt), yet decorrelated across jobs so a broken
        pool's victims do not resubmit in lockstep.
        """
        delay = base * (2 ** (max(attempt, 1) - 1))
        if self.config.jitter <= 0.0:
            return delay
        text = f"{self.config.seed}:{digest}:{attempt}"
        raw = hashlib.sha256(text.encode("utf-8")).digest()
        unit = int.from_bytes(raw[:8], "little") / 2**64  # [0, 1)
        return delay * (1.0 + self.config.jitter * (2.0 * unit - 1.0))
