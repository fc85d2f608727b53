"""Tests for the fleet supervision layer: circuit breakers (trip,
half-open probing, process -> inline degradation), poison-job
quarantine, EWMA hang detection, seeded retry jitter, and the
backoff-sleep budget. Chaos plans count their firings in marker files
shared by the coordinator and its forked pool workers."""

import pytest

from repro.amp.presets import odroid_xu4
from repro.errors import FleetError
from repro.experiments.harness import default_configs, grid_specs
from repro.fleet import (
    FleetConfig,
    FleetProgress,
    ResultCache,
    run_jobs,
)
from repro.fleet import chaos
from repro.fleet.chaos import ChaosPlan, PoolBreak, WorkerKill, WorkerStall
from repro.fleet.checkpoint import SweepCheckpoint as Checkpoint
from repro.fleet.pool import _BackoffBudget
from repro.fleet.supervisor import (
    Breaker,
    Supervisor,
    SupervisorConfig,
)
from repro.workloads.registry import get_program


@pytest.fixture()
def small_specs():
    return grid_specs(
        odroid_xu4(),
        [get_program("EP"), get_program("IS")],
        default_configs()[:2],
    )


# -- breaker state machine -------------------------------------------------


def test_breaker_trips_after_threshold():
    b = Breaker("process", threshold=3, cooldown=10)
    assert not b.record_failure(now=0)
    assert not b.record_failure(now=1)
    assert b.record_failure(now=2)  # third consecutive failure trips
    assert b.state == Breaker.OPEN
    assert b.trips == 1


def test_breaker_success_resets_streak():
    b = Breaker("process", threshold=2, cooldown=10)
    b.record_failure(now=0)
    b.record_success()
    assert not b.record_failure(now=1)  # streak restarted
    assert b.state == Breaker.CLOSED


def test_breaker_half_open_probe_and_reopen():
    b = Breaker("process", threshold=1, cooldown=5)
    assert b.record_failure(now=0)
    assert not b.allow(now=3)  # still cooling down
    assert b.allow(now=5)  # cooldown elapsed: half-open probe
    assert b.state == Breaker.HALF_OPEN
    # A half-open probe reopens on its first failure, below threshold.
    assert b.record_failure(now=6)
    assert b.state == Breaker.OPEN and b.trips == 2
    # ... and closes on success.
    assert b.allow(now=11)
    b.record_success()
    assert b.state == Breaker.CLOSED


def test_supervisor_config_validation():
    with pytest.raises(FleetError):
        SupervisorConfig(hang_factor=0)
    with pytest.raises(FleetError):
        SupervisorConfig(hang_floor=-1)
    with pytest.raises(FleetError):
        SupervisorConfig(poison_threshold=0)
    with pytest.raises(FleetError):
        SupervisorConfig(breaker_threshold=0)
    with pytest.raises(FleetError):
        SupervisorConfig(breaker_cooldown=0)
    with pytest.raises(FleetError):
        SupervisorConfig(jitter=1.0)


# -- seeded retry jitter ---------------------------------------------------


def test_backoff_jitter_is_deterministic_and_bounded():
    sup = Supervisor(SupervisorConfig(jitter=0.25, seed=3))
    d1 = sup.backoff_delay("ab" * 32, attempt=2, base=0.1)
    d2 = sup.backoff_delay("ab" * 32, attempt=2, base=0.1)
    assert d1 == d2  # same (seed, digest, attempt) -> same delay
    nominal = 0.1 * 2  # base * 2**(attempt-1)
    assert nominal * 0.75 <= d1 < nominal * 1.25
    # Different digests decorrelate; a zero jitter is exact.
    other = sup.backoff_delay("cd" * 32, attempt=2, base=0.1)
    assert other != d1
    plain = Supervisor(SupervisorConfig(jitter=0.0))
    assert plain.backoff_delay("ab" * 32, attempt=3, base=0.1) == 0.4


# -- backoff budget (satellite: retries never outlive the deadline) --------


def test_backoff_budget_caps_cumulative_sleep():
    budget = _BackoffBudget(timeout=0.05)
    assert budget.sleep(0, 0.04) == pytest.approx(0.04)
    assert budget.sleep(0, 0.04) == pytest.approx(0.01)  # clamped
    assert budget.sleep(0, 0.04) == 0.0  # budget exhausted
    # Budgets are per job index.
    assert budget.sleep(1, 0.03) == pytest.approx(0.03)


def test_backoff_budget_unbounded_without_timeout():
    budget = _BackoffBudget(timeout=None)
    assert budget.sleep(0, 0.01) == pytest.approx(0.01)
    assert budget.sleep(0, 0.01) == pytest.approx(0.01)


# -- hang deadlines --------------------------------------------------------


def test_job_deadline_prefers_hang_bound(small_specs, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = small_specs[0]
    sup = Supervisor(SupervisorConfig(hang_factor=5.0, hang_floor=0.05))
    # No estimate yet: plain timeout, not a hang deadline.
    assert sup.job_deadline(spec, cache, 9.0) == (9.0, False)
    cache.note_duration(spec, 0.02)
    deadline, is_hang = sup.job_deadline(spec, cache, 9.0)
    assert is_hang and deadline == pytest.approx(0.1)  # 0.02 * 5
    # The floor guards tiny estimates; the timeout wins when tighter.
    cache.note_duration(spec, 0.0001)
    deadline, _ = sup.job_deadline(spec, cache, 9.0)
    assert deadline >= 0.05
    assert sup.job_deadline(spec, cache, 0.01) == (0.01, False)
    # hang_factor=None disables estimate-based detection entirely.
    off = Supervisor(SupervisorConfig(hang_factor=None))
    assert off.job_deadline(spec, cache, 9.0) == (9.0, False)


def test_hang_detector_aborts_silent_worker_early(small_specs, tmp_path):
    """A stalled worker is aborted at estimate x hang_factor, well before
    the plain per-job timeout, counted as a hang (not a timeout)."""
    serial = run_jobs(small_specs, FleetConfig(jobs=1))
    cache = ResultCache(tmp_path / "cache")
    stalled = small_specs[0]
    cache.note_duration(stalled, 0.02)  # hang deadline = 0.1s
    plan = ChaosPlan(
        events=(WorkerStall(job=stalled.key, seconds=0.4, times=1),)
    )
    progress = FleetProgress()
    sup = Supervisor(
        SupervisorConfig(
            hang_factor=5.0, hang_floor=0.05, poison_threshold=100,
            breaker_threshold=100,
        )
    )
    with chaos.active(plan, tmp_path / "chaos"):
        outcomes = run_jobs(
            small_specs,
            FleetConfig(jobs=2, timeout=30.0, retries=2, backoff=0.001),
            cache=cache,
            progress=progress,
            supervisor=sup,
        )
    assert all(o.ok for o in outcomes)
    assert [o.result for o in outcomes] == [o.result for o in serial]
    assert progress.count("fleet_hangs_detected_total") >= 1
    assert progress.count("fleet_timeouts") == 0
    hangs = [e for e in progress.events if e["event"] == "hang"]
    assert hangs and hangs[0]["digest"] == stalled.key


# -- multi-in-flight timeout -> pool rebuild (satellite 4) ------------------


def test_timeout_rebuild_with_multiple_inflight_victims(
    small_specs, tmp_path, monkeypatch
):
    """Two in-flight process workers expire in the same cycle: each
    victim is charged exactly one retry, the pool is rebuilt, and no
    JobResult is lost or duplicated."""
    serial = run_jobs(small_specs, FleetConfig(jobs=1))
    keys = [s.key for s in small_specs]
    plan = ChaosPlan(
        events=(
            WorkerStall(job=keys[0], seconds=2.0, times=1),
            WorkerStall(job=keys[1], seconds=2.0, times=1),
        ),
    )
    # Worker processes load the plan from the environment; the marker
    # state directory makes each stall fire exactly once across rebuilds.
    plan_path = plan.save(tmp_path / "plan.json")
    monkeypatch.setenv(chaos.CHAOS_ENV, str(plan_path))
    progress = FleetProgress()
    sup = Supervisor(
        SupervisorConfig(poison_threshold=100, breaker_threshold=100)
    )
    try:
        outcomes = run_jobs(
            small_specs,
            FleetConfig(jobs=2, timeout=0.6, retries=2, backoff=0.001,
                        dispatcher="process"),
            progress=progress,
            supervisor=sup,
        )
    finally:
        monkeypatch.delenv(chaos.CHAOS_ENV)
        chaos.deactivate()
    assert all(o.ok for o in outcomes)
    assert [o.result for o in outcomes] == [o.result for o in serial]
    victims = {o.spec.key: o for o in outcomes[:2]}
    assert all(v.attempts == 2 for v in victims.values())
    assert progress.count("fleet_timeouts") == 2
    assert progress.count("fleet_retries") == 2


# -- poison quarantine -----------------------------------------------------


def test_poison_job_quarantined_inline(small_specs, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    checkpoint = Checkpoint(tmp_path / "cp.jsonl")
    bad = small_specs[1]
    plan = ChaosPlan(events=(WorkerKill(job=bad.key, times=None),))
    progress = FleetProgress()
    with chaos.active(plan, tmp_path / "chaos"):
        outcomes = run_jobs(
            small_specs,
            FleetConfig(jobs=1, retries=5, backoff=0.001),
            cache=cache,
            progress=progress,
            checkpoint=checkpoint,
        )
    checkpoint.close()
    poisoned = [o for o in outcomes if o.poisoned]
    assert [o.spec.key for o in poisoned] == [bad.key]
    assert poisoned[0].result is None and not poisoned[0].ok
    # Default threshold 2: quarantined on the second break, not retried
    # to exhaustion.
    assert poisoned[0].attempts == 2
    assert all(o.ok for o in outcomes if o.spec.key != bad.key)
    assert progress.count("fleet_jobs_poisoned_total") == 1
    # Quarantine is durable: a .poison marker cache-side + a journal row.
    assert cache.poison_reason(bad.key) is not None
    assert cache.poisoned() == (bad.key,)
    state = Checkpoint.load(checkpoint.path)
    assert state.poisoned == (bad.key,)
    assert bad.key not in state.pending  # quarantine sticks on resume
    assert state.failure_table()  # reason rendered for the banner


def test_poisoned_digest_skipped_by_later_sweep(small_specs, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    bad = small_specs[2]
    cache.mark_poisoned(bad.key, "broke the pool twice in sweep 1")
    progress = FleetProgress()
    outcomes = run_jobs(
        small_specs, FleetConfig(jobs=1), cache=cache, progress=progress
    )
    skipped = outcomes[2]
    assert skipped.poisoned and skipped.attempts == 0
    assert "previous sweep" in skipped.error
    assert all(o.ok for i, o in enumerate(outcomes) if i != 2)
    # clear_poison lifts the quarantine.
    assert cache.clear_poison(bad.key)
    retried = run_jobs([small_specs[2]], FleetConfig(jobs=1), cache=cache)
    assert retried[0].ok


def test_pooled_poison_quarantine_exact(small_specs, tmp_path):
    """Sim-mode kills raise in the worker and travel back through the
    job's own future, so the process pool quarantines precisely the
    poison digest."""
    bad = small_specs[0]
    plan = ChaosPlan(events=(WorkerKill(job=bad.key, times=None),))
    progress = FleetProgress()
    with chaos.active(plan, tmp_path / "chaos"):
        outcomes = run_jobs(
            small_specs,
            FleetConfig(jobs=2, retries=5, backoff=0.001),
            progress=progress,
        )
    assert {o.spec.key for o in outcomes if o.poisoned} == {bad.key}
    assert all(o.ok for o in outcomes if o.spec.key != bad.key)
    assert progress.count("fleet_jobs_poisoned_total") == 1


def test_failed_job_reason_lands_in_resume_table(small_specs, tmp_path):
    """A job that exhausts retries (without poisoning) journals its last
    error, and the checkpoint's failure table prints it."""
    bad = small_specs[3]
    checkpoint = Checkpoint(tmp_path / "cp.jsonl")
    plan = ChaosPlan(events=(WorkerKill(job=bad.key, times=3),))
    sup = Supervisor(SupervisorConfig(poison_threshold=100))
    with chaos.active(plan, tmp_path / "chaos"):
        outcomes = run_jobs(
            small_specs,
            FleetConfig(jobs=1, retries=1, backoff=0.001),
            checkpoint=checkpoint,
            supervisor=sup,
        )
    checkpoint.close()
    failed = outcomes[3]
    assert not failed.ok and not failed.poisoned
    state = Checkpoint.load(checkpoint.path)
    assert state.failed == (bad.key,)
    assert bad.key in state.pending  # plain failures stay retryable
    table = state.failure_table()
    assert bad.key[:12] in table and "ChaosWorkerCrash" in table


# -- circuit breakers + degradation ladder ---------------------------------


def test_breaker_degrades_process_to_inline(small_specs, tmp_path):
    """A pool-break trips the process pool's breaker at the first
    submission, and the inline tier finishes the sweep with results
    identical to serial."""
    serial = run_jobs(small_specs, FleetConfig(jobs=1))
    keys = [s.key for s in small_specs]
    plan = ChaosPlan(events=(PoolBreak(job=keys[0], times=1),))
    progress = FleetProgress()
    sup = Supervisor(
        SupervisorConfig(
            breaker_threshold=1, breaker_cooldown=1000, poison_threshold=100,
        )
    )
    with chaos.active(plan, tmp_path / "chaos"):
        outcomes = run_jobs(
            small_specs,
            FleetConfig(jobs=2, retries=5, backoff=0.001),
            progress=progress,
            supervisor=sup,
        )
    assert all(o.ok for o in outcomes)
    assert [o.result for o in outcomes] == [o.result for o in serial]
    assert progress.count("fleet_breaker_trips_total") == 1
    trips = [e for e in progress.events if e["event"] == "breaker_tripped"]
    assert [(t["tier"], t["next_tier"]) for t in trips] == [
        ("process", "inline"),
    ]
    assert all(o.mode == "inline" for o in outcomes)
    assert sup.breaker("process").state == Breaker.OPEN


def test_breaker_half_open_probe_recovers_across_batches(
    small_specs, tmp_path
):
    """A tripped tier is skipped while cooling down, then probed
    half-open by a later batch under the same supervisor; the probe's
    success closes the breaker."""
    sup = Supervisor(
        SupervisorConfig(
            breaker_threshold=1, breaker_cooldown=2, poison_threshold=100,
        )
    )
    plan = ChaosPlan(events=(PoolBreak(job="*", times=1),))
    progress = FleetProgress()
    with chaos.active(plan, tmp_path / "chaos"):
        first = run_jobs(
            small_specs,
            FleetConfig(jobs=2, retries=5, backoff=0.001),
            progress=progress,
            supervisor=sup,
        )
    assert all(o.ok for o in first)
    assert progress.count("fleet_breaker_trips_total") == 1
    assert sup.breaker("process").state == Breaker.OPEN
    # 4 completions ticked the logical clock past the cooldown: the next
    # batch (chaos deactivated) probes the tier half-open and closes it.
    second = run_jobs(small_specs, FleetConfig(jobs=2), supervisor=sup)
    assert all(o.ok and o.mode == "process" for o in second)
    assert sup.breaker("process").state == Breaker.CLOSED


# -- cache-error tolerance -------------------------------------------------


def test_persistent_cache_put_errors_never_fail_the_sweep(
    small_specs, tmp_path
):
    from repro.fleet.chaos import CacheFault, ChaosCache, ChaosEngine

    plan = ChaosPlan(
        events=(
            CacheFault(op="put", job="*", errno_name="ENOSPC",
                       times=1_000_000),
        )
    )
    inner = ResultCache(tmp_path / "cache")
    cache = ChaosCache(inner, ChaosEngine(plan, tmp_path / "chaos"))
    progress = FleetProgress()
    outcomes = run_jobs(
        small_specs, FleetConfig(jobs=1), cache=cache, progress=progress
    )
    assert all(o.ok for o in outcomes)
    assert progress.count("fleet_cache_errors_total") >= len(small_specs)
    assert len(inner) == 0  # nothing was cached; the sweep still ran
