"""Fault-tolerant parallel execution of fleet jobs.

The runner maps :class:`~repro.fleet.jobs.JobSpec`\\ s to
:class:`~repro.fleet.jobs.JobResult`\\ s with, in order of preference:

1. **cache hits** — resolved in the parent before anything is spawned;
2. **a process pool** — ``ProcessPoolExecutor`` with at most
   ``config.jobs`` workers, jobs dispatched longest-first (LPT, from the
   cache's duration estimates — the same longest-job-first idea the
   paper's AID schedulers apply to loop iterations, applied here to
   whole simulations);
3. **inline serial execution** — when ``jobs <= 1``, when
   ``dispatcher="inline"`` asks for it, when the pool's circuit breaker
   trips, or when the host cannot spawn processes at all.

Failure semantics: a job attempt can fail by raising (any exception
travels back through its future), by crashing its worker
(``BrokenProcessPool`` — the pool is rebuilt), or by exceeding its
in-flight deadline — the per-job ``timeout``, or the supervisor's
earlier EWMA-based *hang* deadline when the cache knows how long jobs
of that shape usually take (the pool is rebuilt either way, since a
stuck worker cannot be cancelled). Each failed attempt is retried with
exponential backoff — seeded digest-keyed jitter, and a cumulative
budget capped at the per-job ``timeout`` so retrying never outlives the
job's own deadline — up to ``config.retries`` times; jobs that exhaust
their budget produce a ``FleetOutcome`` with ``result=None`` and an
error string rather than aborting the whole fleet — the caller decides
whether missing cells are fatal. A worker crash breaks the whole pool,
so one crash resolves *every* in-flight future with
``BrokenProcessPool``; exactly one retry unit is charged per crash (to
the lowest submission index among the broken futures) and the innocent
siblings are requeued uncharged — one crash never burns two budget
units of any single job.

Supervision (:mod:`repro.fleet.supervisor`) rides on the same loop:

* a job whose failures *broke the pool* ``poison_threshold`` times is
  **quarantined** instead of retried — a ``poisoned`` checkpoint
  record, a ``.poison`` cache-side marker (so later sweeps skip it up
  front), and the sweep continues;
* every pool-breaking failure also charges the pool's **circuit
  breaker**; when it trips, the pool raises
  :class:`~repro.fleet.supervisor.BreakerOpen` and :func:`run_jobs`
  runs the unresolved jobs inline (the submission-order obs merge
  happens after whichever tier finishes, so degradation never perturbs
  merged snapshots);
* cache I/O errors (``OSError`` from ``get``/``put``/``flush``) degrade
  to misses or uncached successes and count on
  ``fleet_cache_errors_total`` — a failing cache directory costs
  recompute time, never the sweep.

Because the simulator is deterministic, a parallel fleet's results are
cell-for-cell identical to serial execution; the test suite asserts
exact equality, not tolerances — including under every injected fault
of the chaos harness (:mod:`repro.fleet.chaos`).

Both tiers share this module's retry accounting and success recording,
so the determinism contract (submission-order obs merge, a computed job
acknowledged by its cache entry alone) holds whichever one runs the
jobs.

Fault injection (used by tests and the CI smoke job):
``REPRO_FLEET_KILL_AFTER=<n>`` SIGKILLs the *coordinating* process the
moment the n-th computed (non-cached) job has been recorded — after its
cache write, the exact crash window the resume harness needs to be
deterministic about. Worker crashes, stalls, cache I/O errors and
pool-break storms come from seeded plans of :mod:`repro.fleet.chaos`,
via ``$REPRO_FLEET_CHAOS`` or an in-process activation.
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.errors import FleetError
from repro.fleet import chaos
from repro.fleet.cache import ResultCache
from repro.fleet.jobs import JobResult, JobSpec
from repro.fleet.progress import NULL_PROGRESS, FleetProgress
from repro.fleet.supervisor import DEGRADATION, BreakerOpen, Supervisor

#: Environment variable enabling the kill-the-coordinator injection.
KILL_AFTER_ENV = "REPRO_FLEET_KILL_AFTER"

#: Computed-job count for the kill-after injection (process-global: one
#: sweep per process is the injection's use case).
_computed_jobs = 0


@dataclass(frozen=True)
class FleetConfig:
    """Execution policy for one fleet run.

    Attributes:
        jobs: maximum concurrent worker processes; <= 1 runs inline.
        timeout: per-job wall-clock deadline in seconds (None = none).
        retries: extra attempts after a failed first one.
        backoff: base seconds slept before a retry, doubled per attempt
            (jittered and budget-capped by the supervisor).
        dispatcher: the tier jobs start on (``process`` or ``inline``);
            None picks ``process`` when ``jobs > 1``, else ``inline``.
    """

    jobs: int = 1
    timeout: float | None = None
    retries: int = 2
    backoff: float = 0.05
    dispatcher: str | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise FleetError(f"jobs must be >= 1, got {self.jobs}")
        if self.timeout is not None and self.timeout <= 0:
            raise FleetError("timeout must be positive (or None)")
        if self.retries < 0:
            raise FleetError("retries must be >= 0")
        if self.dispatcher is not None and self.dispatcher not in DEGRADATION:
            raise FleetError(
                f"unknown dispatcher {self.dispatcher!r}; "
                f"available: {', '.join(DEGRADATION)}"
            )


@dataclass
class FleetOutcome:
    """What happened to one submitted job, in submission order.

    ``result`` is None only when every attempt failed (or the job was
    quarantined as poison — ``poisoned`` then distinguishes the two);
    ``error`` holds the last failure reason.
    """

    spec: JobSpec
    result: JobResult | None
    cached: bool = False
    attempts: int = 0
    mode: str = "inline"
    error: str | None = None
    poisoned: bool = False

    @property
    def ok(self) -> bool:
        return self.result is not None


def _worker(spec: JobSpec) -> JobResult:
    """Top-level worker entry point (must be picklable by name)."""
    chaos.inject_worker_chaos(spec.key, in_worker=True)
    return spec.execute()


def _execute_spec(spec: JobSpec) -> JobResult:
    """Inline execution: same chaos seam as :func:`_worker`, but kills
    are always raised, never signals — an injected worker death must not
    take the coordinator down."""
    chaos.inject_worker_chaos(spec.key, in_worker=False)
    return spec.execute()


def _maybe_kill_coordinator() -> None:
    """Honour ``REPRO_FLEET_KILL_AFTER`` (crash-resume test harness).

    Called after a computed job's cache write — the entry that
    acknowledges it — so the crash never loses acknowledged work, which
    is exactly the durability property the resume tests pin.
    """
    raw = os.environ.get(KILL_AFTER_ENV)
    if not raw:
        return
    try:
        n = int(raw)
    except ValueError:
        return
    global _computed_jobs
    _computed_jobs += 1
    if _computed_jobs >= n:
        os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))


class _BackoffBudget:
    """Cumulative backoff-sleep budget per job.

    The total time a job spends *sleeping between retries* never exceeds
    its own per-job ``timeout`` — a pathological retry sequence cannot
    outlive the deadline it is nominally bound by. With no timeout the
    budget is unbounded (as before).
    """

    def __init__(self, timeout: float | None) -> None:
        self.timeout = timeout
        self._spent: dict[int, float] = {}

    def sleep(self, idx: int, delay: float) -> float:
        if self.timeout is not None:
            remaining = self.timeout - self._spent.get(idx, 0.0)
            delay = max(0.0, min(delay, remaining))
        if delay > 0.0:
            time.sleep(delay)
            self._spent[idx] = self._spent.get(idx, 0.0) + delay
        return delay


def run_jobs(
    specs: Sequence[JobSpec],
    config: FleetConfig | None = None,
    cache: ResultCache | None = None,
    progress: FleetProgress | None = None,
    checkpoint=None,
    supervisor: Supervisor | None = None,
) -> list[FleetOutcome]:
    """Execute jobs through cache, pool and inline tier; outcomes in
    input order.

    ``checkpoint`` (a :class:`~repro.fleet.checkpoint.SweepCheckpoint`)
    journals the batch plan, exhausted retries as ``failed`` and
    quarantined poison jobs as ``poisoned``, each with its reason. Cache
    hits append nothing and a computed job's cache entry is its only
    record, so a SIGKILLed sweep resumes from exactly the entries it
    wrote. The cache's duration table is flushed once, after the batch;
    an ``OSError`` there counts on ``fleet_cache_errors_total`` and
    never fails the batch.

    ``supervisor`` (a :class:`~repro.fleet.supervisor.Supervisor`)
    carries hang detection, poison quarantine, circuit-breaker and
    retry-jitter state; pass one explicitly to share breaker/poison
    accounting across several batches (the CLI does, per invocation).
    """
    config = config if config is not None else FleetConfig()
    progress = progress if progress is not None else NULL_PROGRESS
    supervisor = supervisor if supervisor is not None else Supervisor()
    specs = list(specs)
    if checkpoint is not None:
        checkpoint.plan([spec.key for spec in specs])
    outcomes: dict[int, FleetOutcome] = {}
    pending: list[int] = []
    for spec in specs:
        progress.job_submitted(spec)
    for i, spec in enumerate(specs):
        hit = None
        if cache is not None:
            try:
                hit = cache.get(spec.key)
            except OSError as exc:
                progress.cache_error(spec, "get", f"{exc}")
        if hit is not None:
            progress.cache_hit(spec)
            outcomes[i] = FleetOutcome(
                spec, hit, cached=True, attempts=0, mode="cache"
            )
            continue
        # A digest a previous sweep quarantined as poison is skipped up
        # front — running it again would just break this pool too. A
        # cache hit wins over the marker (a result proves it can run).
        poison = None
        if cache is not None:
            try:
                poison = cache.poison_reason(spec.key)
            except OSError:
                poison = None
        if poison is not None:
            _record_poisoned(
                i, spec, 0, "quarantine",
                f"quarantined by a previous sweep: {poison}",
                outcomes, None, progress, checkpoint, supervisor,
            )
            continue
        if cache is not None:
            progress.cache_miss(spec)
        pending.append(i)
    tier = config.dispatcher or ("process" if config.jobs > 1 else "inline")
    if pending and tier == "process":
        if supervisor.tier_allowed("process"):
            try:
                _run_pool(
                    specs, pending, outcomes, config, cache, progress,
                    checkpoint, supervisor,
                )
            except BreakerOpen as exc:
                progress.breaker_tripped(
                    specs[pending[0]], exc.tier, "inline", exc.reason
                )
        else:
            # Still cooling down from a trip in an earlier batch under
            # this supervisor; once the cooldown elapsed, the batch above
            # doubles as the half-open probe instead.
            progress.breaker_skipped(specs[pending[0]], "process")
    _run_inline(
        specs, [i for i in pending if i not in outcomes], outcomes, config,
        cache, progress, checkpoint, supervisor,
    )
    ordered = [outcomes[i] for i in range(len(specs))]
    # Merge worker-side obs captures in submission order — never in
    # completion order — so gauge last-wins resolution (and therefore the
    # merged snapshot) is identical for jobs=1, jobs=N and cache replays.
    for outcome in ordered:
        if outcome.result is not None:
            progress.job_obs(outcome.spec, outcome.result)
    if cache is not None and specs:
        try:
            cache.flush()
        except OSError as exc:
            progress.cache_error(specs[0], "flush", f"{exc}")
        progress.record_duration_estimates(cache, specs)
    return ordered


def require_ok(outcomes: Sequence[FleetOutcome]) -> list[FleetOutcome]:
    """Raise :class:`FleetError` if any outcome failed; else pass through."""
    failed = [o for o in outcomes if not o.ok]
    if failed:
        details = "; ".join(
            f"{o.spec.describe()}: {o.error}" for o in failed[:5]
        )
        more = f" (+{len(failed) - 5} more)" if len(failed) > 5 else ""
        raise FleetError(
            f"{len(failed)} fleet job(s) failed after retries: {details}{more}"
        )
    return list(outcomes)


# -- inline (serial) path --------------------------------------------------


def _run_inline(
    specs, pending, outcomes, config, cache, progress, checkpoint,
    supervisor,
) -> None:
    budget = _BackoffBudget(config.timeout)
    for idx in pending:
        spec = specs[idx]
        attempts = 0
        while True:
            attempts += 1
            progress.job_started(spec, mode="inline", attempt=attempts)
            try:
                result = _execute_spec(spec)
            except Exception as exc:  # deterministic errors still get
                reason = f"{type(exc).__name__}: {exc}"  # their retry budget
                if isinstance(exc, chaos.ChaosWorkerCrash) and (
                    supervisor.note_break(spec.key)
                    >= supervisor.config.poison_threshold
                ):
                    _record_poisoned(
                        idx, spec, attempts, "inline", reason, outcomes,
                        cache, progress, checkpoint, supervisor,
                    )
                    break
                if attempts > config.retries:
                    progress.job_failed(spec, reason)
                    if checkpoint is not None:
                        checkpoint.record(spec.key, "failed", error=reason)
                    outcomes[idx] = FleetOutcome(
                        spec, None, attempts=attempts, mode="inline",
                        error=reason,
                    )
                    supervisor.tick()
                    break
                progress.job_retried(spec, attempt=attempts, reason=reason)
                budget.sleep(
                    idx,
                    supervisor.backoff_delay(spec.key, attempts, config.backoff),
                )
                continue
            _record_success(
                idx, spec, result, attempts, "inline", outcomes, cache,
                progress, supervisor,
            )
            break


# -- the process pool ------------------------------------------------------


def _lpt_order(specs, pending, cache) -> list[int]:
    """Longest-processing-time-first dispatch order.

    Jobs with no duration estimate sort first (assume long until
    measured): starting an unknown job late is the classic LPT failure
    mode. Ties keep submission order for determinism.
    """

    def key(idx: int):
        est = None
        if cache is not None:
            try:
                est = cache.duration_estimate(specs[idx])
            except OSError:
                est = None
        return (0 if est is None else 1, -(est or 0.0), idx)

    return sorted(pending, key=key)


def _make_pool(max_workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=max_workers)


def _break_pool(executor) -> bool:
    """SIGKILL one resident worker process (real-mode pool-break events)."""
    procs = getattr(executor, "_processes", None) or {}
    for pid in list(procs):
        try:
            os.kill(pid, getattr(signal, "SIGKILL", signal.SIGTERM))
        except OSError:
            continue
        return True
    return False


class _InFlight(NamedTuple):
    idx: int
    t0: float
    deadline: float | None
    is_hang: bool  #: deadline came from the EWMA hang detector


def _run_pool(
    specs, pending, outcomes, config, cache, progress, checkpoint,
    supervisor,
) -> None:
    """The supervised process-pool loop: one LPT queue, one
    retry/backoff policy, one deadline watcher, one broken-pool protocol.

    Resolves every index in ``pending`` unless the pool's circuit
    breaker trips; it then raises :class:`BreakerOpen` with the
    unresolved indices simply absent from ``outcomes``.
    """
    engine = chaos.current_engine()
    queue: deque[int] = deque(_lpt_order(specs, pending, cache))
    attempts: dict[int, int] = {i: 0 for i in pending}
    budget = _BackoffBudget(config.timeout)
    max_workers = min(config.jobs, len(pending)) or 1
    try:
        executor = _make_pool(max_workers)
    except (OSError, ValueError, ImportError) as exc:
        progress.degraded(specs[pending[0]], f"no process pool: {exc}")
        _run_inline(
            specs, pending, outcomes, config, cache, progress, checkpoint,
            supervisor,
        )
        return

    running: dict = {}  # Future -> _InFlight

    def infra_failure(reason: str) -> None:
        """Charge the pool's breaker; raise :class:`BreakerOpen` on a
        trip (the unresolved jobs then run inline)."""
        if supervisor.infra_failure("process"):
            raise BreakerOpen("process", reason)

    def submit_ready() -> None:
        submitted = []
        try:
            while queue and len(running) + len(submitted) < max_workers:
                idx = queue.popleft()
                if idx in outcomes:
                    continue
                spec = specs[idx]
                progress.job_started(
                    spec, mode="process", attempt=attempts[idx] + 1
                )
                deadline, is_hang = supervisor.job_deadline(
                    spec, cache, config.timeout
                )
                try:
                    fut = executor.submit(_worker, spec)
                except BrokenProcessPool:
                    # The pool died between a crash and the wait loop
                    # seeing it: requeue uncharged and let the main loop
                    # run the standard broken-pool protocol (any in-flight
                    # futures carry the same crash, and the charge).
                    queue.appendleft(idx)
                    raise
                info = _InFlight(idx, 0.0, deadline, is_hang)
                submitted.append((fut, info))
                if engine is not None and engine.pool_break(spec.key):
                    progress.pool_break_injected(spec)
                    real = engine.plan.mode == "real"
                    if not (real and _break_pool(executor)):
                        # A sim plan (or a pool with no worker to kill)
                        # charges the breaker instead: infrastructure
                        # failed, no job did.
                        infra_failure("injected pool break")
        finally:
            # One clock reading for the whole pass: jobs submitted
            # together expire together, however long the submissions
            # (and the worker forks they trigger) took.
            t0 = time.monotonic()
            for fut, info in submitted:
                running[fut] = info._replace(t0=t0)

    def fail_or_requeue(
        idx: int, reason: str, *, pool_break: bool, requeue_front: bool
    ) -> None:
        """Charge one failed attempt; quarantine, requeue or give up."""
        attempts[idx] += 1
        spec = specs[idx]
        if pool_break and (
            supervisor.note_break(spec.key)
            >= supervisor.config.poison_threshold
        ):
            _record_poisoned(
                idx, spec, attempts[idx], "process", reason, outcomes, cache,
                progress, checkpoint, supervisor,
            )
            return
        if attempts[idx] > config.retries:
            progress.job_failed(spec, reason)
            if checkpoint is not None:
                checkpoint.record(spec.key, "failed", error=reason)
            outcomes[idx] = FleetOutcome(
                spec, None, attempts=attempts[idx], mode="process",
                error=reason,
            )
            supervisor.tick()
            return
        progress.job_retried(spec, attempt=attempts[idx], reason=reason)
        budget.sleep(
            idx,
            supervisor.backoff_delay(spec.key, attempts[idx], config.backoff),
        )
        if requeue_front:
            queue.appendleft(idx)
        else:
            queue.append(idx)

    def rebuild_pool(reason: str) -> bool:
        """Requeue every in-flight job uncharged, charge the breaker and
        replace the pool; False = the rest ran inline."""
        nonlocal executor
        for info in running.values():
            queue.appendleft(info.idx)
        running.clear()
        infra_failure(reason)
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        try:
            executor = _make_pool(max_workers)
            return True
        except (OSError, ValueError) as exc:
            remaining = [i for i in queue if i not in outcomes]
            queue.clear()
            if remaining:
                progress.degraded(
                    specs[remaining[0]], f"pool rebuild failed: {exc}"
                )
                _run_inline(
                    specs, remaining, outcomes, config, cache, progress,
                    checkpoint, supervisor,
                )
            return False

    try:
        while queue or running:
            try:
                submit_ready()
            except BrokenProcessPool:
                if not rebuild_pool("worker process crashed (pool broken)"):
                    return
                continue
            deadline_slack = None
            bounded = [
                info.t0 + info.deadline
                for info in running.values()
                if info.deadline is not None
            ]
            if bounded:
                deadline_slack = max(0.0, min(bounded) - time.monotonic())
            done, _ = wait(
                running, timeout=deadline_slack, return_when=FIRST_COMPLETED
            )
            broken = False
            # A broken pool resolves *every* non-finished future with
            # BrokenProcessPool, so several may land in one done set.
            # Exactly one crash happened: charge one attempt (to the
            # lowest submission index, for determinism) and requeue the
            # rest uncharged — they died with the pool, they did not
            # crash it.
            for fut in sorted(done, key=lambda f: running[f].idx):
                idx = running.pop(fut).idx
                try:
                    result = fut.result()
                except BrokenProcessPool:
                    if broken:
                        queue.appendleft(idx)
                    else:
                        broken = True
                        fail_or_requeue(
                            idx, "worker process crashed (pool broken)",
                            pool_break=True, requeue_front=True,
                        )
                except Exception as exc:
                    crash = isinstance(exc, chaos.ChaosWorkerCrash)
                    fail_or_requeue(
                        idx, f"{type(exc).__name__}: {exc}",
                        pool_break=crash, requeue_front=False,
                    )
                    if crash:
                        # A simulated worker death is an infrastructure
                        # failure (unlike a deterministic job exception).
                        infra_failure("worker killed in job")
                else:
                    _record_success(
                        idx, specs[idx], result, attempts[idx] + 1,
                        "process", outcomes, cache, progress, supervisor,
                    )
            if broken:
                # Every in-flight sibling died with the pool: requeue them
                # (their attempt is not charged — they did nothing wrong).
                if not rebuild_pool("worker process crashed (pool broken)"):
                    return
                continue
            now = time.monotonic()
            expired = [
                (fut, info)
                for fut, info in running.items()
                if info.deadline is not None and now - info.t0 > info.deadline
            ]
            if not expired:
                continue
            for fut, info in expired:
                running.pop(fut)
                spec = specs[info.idx]
                if info.is_hang:
                    progress.job_hang(spec, info.deadline)
                    reason = (
                        f"hung: silent past {info.deadline:.3g}s "
                        f"(duration estimate x hang factor)"
                    )
                else:
                    progress.job_timeout(spec, info.deadline)
                    reason = f"timed out after {info.deadline:g}s"
                fail_or_requeue(
                    info.idx, reason, pool_break=True, requeue_front=False
                )
            # A stuck worker cannot be cancelled: rebuild the pool and
            # requeue the innocent bystanders.
            if not rebuild_pool("worker deadline expired"):
                return
    finally:
        executor.shutdown(wait=False, cancel_futures=True)


def _record_success(
    idx, spec, result, attempts, mode, outcomes, cache, progress, supervisor,
) -> None:
    """Acknowledge one computed job: its cache entry is the only durable
    write (the duration estimate stays in memory until the batch's
    flush), then the outcome, heartbeat and kill-after injection."""
    if cache is not None:
        try:
            cache.put(result)
            cache.note_duration(spec, result.duration)
        except OSError as exc:
            # A failing cache directory costs a future recompute, never
            # the sweep: the result is still recorded and merged.
            progress.cache_error(spec, "put", f"{exc}")
    progress.job_completed(spec, duration=result.duration, attempts=attempts)
    outcomes[idx] = FleetOutcome(
        spec, result, cached=False, attempts=attempts, mode=mode
    )
    # Completion doubles as the worker heartbeat and closes the tier's
    # breaker (consecutive-failure streak broken).
    supervisor.infra_success(mode)
    supervisor.tick()
    # Crash-window injection: the job's cache entry is durable by this
    # point, so a SIGKILL here loses no acknowledged work — the property
    # the resume harness asserts.
    _maybe_kill_coordinator()


def _record_poisoned(
    idx, spec, attempts, mode, reason, outcomes, cache, progress,
    checkpoint, supervisor,
) -> None:
    """Quarantine one poison job: journal it, mark it cache-side, move
    on — the sweep continues without it."""
    progress.job_poisoned(spec, reason)
    if checkpoint is not None:
        checkpoint.record(spec.key, "poisoned", error=reason)
    if cache is not None:
        try:
            cache.mark_poisoned(spec.key, reason)
        except OSError as exc:
            progress.cache_error(spec, "poison", f"{exc}")
    outcomes[idx] = FleetOutcome(
        spec, None, attempts=attempts, mode=mode, error=reason, poisoned=True,
    )
    supervisor.tick()
