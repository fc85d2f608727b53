"""Tests for the fault-tolerant fleet pool: parallel equality, crash
recovery, retry exhaustion, LPT ordering, degradation, and the merged
cross-process observability capture."""

import dataclasses
import json

import pytest

from repro.amp.presets import odroid_xu4
from repro.errors import FleetError
from repro.experiments.harness import default_configs, grid_specs
from repro.fleet import (
    FleetConfig,
    FleetProgress,
    JobSpec,
    ResultCache,
    require_ok,
    run_jobs,
)
from repro.fleet import chaos
from repro.fleet.chaos import ChaosPlan, WorkerKill, infrastructure_comparable
from repro.fleet.pool import _lpt_order
from repro.obs.merge import JOB_SCHEMA, comparable_snapshot
from repro.runtime.env import OmpEnv
from repro.workloads.registry import get_program


def comparable_json(progress: FleetProgress) -> str:
    """The merged snapshot minus wall-clock fields, as canonical JSON."""
    return json.dumps(
        comparable_snapshot(progress.obs_snapshot()), sort_keys=True
    )


@pytest.fixture()
def small_specs():
    return grid_specs(
        odroid_xu4(),
        [get_program("EP"), get_program("IS")],
        default_configs()[:2],
    )


@pytest.fixture()
def kill_once(tmp_path, monkeypatch):
    """Install a real-mode plan whose only event SIGKILLs the worker
    that first picks up ``spec``; returns the event's firing marker."""

    def install(spec):
        plan = ChaosPlan(
            events=(WorkerKill(job=spec.key, times=1),), mode="real"
        )
        path = plan.save(tmp_path / "plan.json")
        monkeypatch.setenv(chaos.CHAOS_ENV, str(path))
        return chaos.state_dir_for(path) / "evt-0-0"

    return install


def test_config_validation():
    with pytest.raises(FleetError):
        FleetConfig(jobs=0)
    with pytest.raises(FleetError):
        FleetConfig(timeout=0)
    with pytest.raises(FleetError):
        FleetConfig(retries=-1)


def test_inline_matches_direct_execution(small_specs):
    outcomes = run_jobs(small_specs, FleetConfig(jobs=1))
    assert [o.spec for o in outcomes] == small_specs
    for outcome, spec in zip(outcomes, small_specs):
        assert outcome.ok and outcome.mode == "inline"
        assert outcome.result.completion_time == spec.execute().completion_time


def test_parallel_matches_inline(small_specs):
    serial = run_jobs(small_specs, FleetConfig(jobs=1))
    parallel = run_jobs(small_specs, FleetConfig(jobs=4))
    # JobResult equality covers obs_json: the worker-side metric capture
    # is part of the result, so this asserts metric equality too.
    assert [o.result for o in parallel] == [o.result for o in serial]
    assert all(o.mode == "process" for o in parallel)
    for o in serial:
        snap = o.result.obs_snapshot()
        assert snap is not None and snap["schema"] == JOB_SCHEMA
        assert snap["metrics"]["counters"]


def test_inline_and_parallel_merge_identical_snapshots(small_specs):
    """Satellite: the jobs=1 inline path feeds the passed progress the
    same per-job captures as the pool path — merged snapshots are
    byte-identical modulo wall-clock fields."""
    inline = FleetProgress()
    pooled = FleetProgress()
    run_jobs(small_specs, FleetConfig(jobs=1), progress=inline)
    run_jobs(small_specs, FleetConfig(jobs=4), progress=pooled)
    assert inline.merged.jobs == pooled.merged.jobs == len(small_specs)
    assert comparable_json(inline) == comparable_json(pooled)


def test_a_renamed_column_replays_under_its_new_label(tmp_path):
    # ``label`` is not part of the digest, so the renamed specs hit the
    # entries written under the old names; their instruments must still
    # merge under the new names, exactly as a cold run of them would.
    specs = grid_specs(
        odroid_xu4(), [get_program("EP")], default_configs()[:2]
    )
    renamed = [
        dataclasses.replace(spec, label=f"{spec.label} (renamed)")
        for spec in specs
    ]
    cache = ResultCache(tmp_path / "cache")
    run_jobs(specs, FleetConfig(jobs=1), cache=cache, progress=FleetProgress())
    replay = FleetProgress()
    run_jobs(renamed, FleetConfig(jobs=1), cache=cache, progress=replay)
    assert replay.count("fleet_cache_hits") == len(renamed)
    cold = FleetProgress()
    run_jobs(renamed, FleetConfig(jobs=1), progress=cold)
    replayed = infrastructure_comparable(replay.obs_snapshot())
    assert json.dumps(replayed, sort_keys=True) == json.dumps(
        infrastructure_comparable(cold.obs_snapshot()), sort_keys=True
    )
    new_names = {spec.label for spec in renamed}
    docs = [doc for kind in replayed["metrics"].values() for doc in kind]
    assert docs
    assert {doc["labels"]["config"] for doc in docs} == new_names


def test_cached_outcomes_replay_their_stored_snapshots(small_specs, tmp_path):
    cache = ResultCache(tmp_path)
    cold_progress = FleetProgress()
    cold = run_jobs(
        small_specs, FleetConfig(jobs=2), cache=cache, progress=cold_progress
    )
    warm_progress = FleetProgress()
    warm = run_jobs(
        small_specs, FleetConfig(jobs=2), cache=cache, progress=warm_progress
    )
    # String equality of the canonical JSON: the cache round-trip is exact.
    assert [o.result.obs_json for o in warm] == [
        o.result.obs_json for o in cold
    ]
    # Fleet counters differ (hits vs misses) but the merged runtime
    # metrics are label-for-label identical.
    cold_doc = comparable_snapshot(cold_progress.obs_snapshot())
    warm_doc = comparable_snapshot(warm_progress.obs_snapshot())
    strip = {
        "fleet_cache_hits", "fleet_cache_misses", "fleet_jobs_computed",
        "fleet_heartbeats_total",
    }
    for doc in (cold_doc, warm_doc):
        doc["metrics"]["counters"] = [
            c for c in doc["metrics"]["counters"] if c["name"] not in strip
        ]
    assert json.dumps(cold_doc, sort_keys=True) == json.dumps(
        warm_doc, sort_keys=True
    )


def test_cache_hits_skip_execution(small_specs, tmp_path):
    cache = ResultCache(tmp_path)
    cold = run_jobs(small_specs, FleetConfig(jobs=2), cache=cache)
    progress = FleetProgress()
    warm = run_jobs(
        small_specs, FleetConfig(jobs=2), cache=cache, progress=progress
    )
    assert [o.result for o in warm] == [o.result for o in cold]
    assert all(o.cached and o.mode == "cache" for o in warm)
    assert progress.count("fleet_cache_hits") == len(small_specs)
    assert progress.count("fleet_jobs_computed") == 0


def test_worker_crash_is_retried(small_specs, kill_once):
    marker = kill_once(small_specs[0])
    progress = FleetProgress()
    outcomes = run_jobs(
        small_specs, FleetConfig(jobs=2), progress=progress
    )
    assert marker.exists(), "the injected crash must have fired"
    assert all(o.ok for o in outcomes), [o.error for o in outcomes]
    assert progress.count("fleet_retries") >= 1
    assert progress.count("fleet_failures") == 0
    # The crash surfaces in the event log, not as a run failure.
    assert any(e["event"] == "retried" for e in progress.events)
    # And recovered results are still exactly the serial results.
    serial = run_jobs(small_specs, FleetConfig(jobs=1))
    assert [o.result for o in outcomes] == [o.result for o in serial]


def test_pool_rebuild_charges_only_the_crashing_job(small_specs, kill_once):
    """Regression: a crashed worker breaks the whole pool, resolving the
    innocent in-flight siblings' futures with BrokenProcessPool too. The
    one crash must charge exactly one retry unit — to the crashing job —
    and requeue the siblings uncharged."""
    marker = kill_once(small_specs[0])
    progress = FleetProgress()
    outcomes = run_jobs(
        small_specs, FleetConfig(jobs=2, retries=1, backoff=0.001),
        progress=progress,
    )
    assert marker.exists(), "the injected crash must have fired"
    assert all(o.ok for o in outcomes), [o.error for o in outcomes]
    by_key = {o.spec.key: o for o in outcomes}
    assert by_key[small_specs[0].key].attempts == 2
    # With the old double-charging, a sibling that died with the pool
    # also burned an attempt; now everyone else completes first try.
    for spec in small_specs[1:]:
        assert by_key[spec.key].attempts == 1, spec.label
    assert progress.count("fleet_retries") == 1
    assert progress.count("fleet_failures") == 0


def test_persistent_failure_exhausts_retries():
    # An oversubscribed team is a deterministic ConfigError at run time:
    # every attempt fails the same way, inline and in workers alike.
    bad = JobSpec(
        program=get_program("EP"),
        platform=odroid_xu4(),
        env=OmpEnv(schedule="static", num_threads=64),
        label="doomed",
    )
    progress = FleetProgress()
    outcomes = run_jobs(
        [bad], FleetConfig(jobs=1, retries=1, backoff=0.001),
        progress=progress,
    )
    assert not outcomes[0].ok
    assert outcomes[0].attempts == 2
    assert "ConfigError" in outcomes[0].error
    assert progress.count("fleet_retries") == 1
    assert progress.count("fleet_failures") == 1
    with pytest.raises(FleetError):
        require_ok(outcomes)


def test_failure_in_process_mode_reports_not_raises(small_specs):
    bad = JobSpec(
        program=get_program("EP"),
        platform=odroid_xu4(),
        env=OmpEnv(schedule="static", num_threads=64),
    )
    outcomes = run_jobs(
        [*small_specs, bad], FleetConfig(jobs=2, retries=0, backoff=0.001)
    )
    assert [o.ok for o in outcomes] == [True] * len(small_specs) + [False]


def test_lpt_orders_longest_first(small_specs, tmp_path):
    cache = ResultCache(tmp_path)
    durations = [0.5, 4.0, 1.0]
    for spec, d in zip(small_specs[:3], durations):
        cache.note_duration(spec, d)
    order = _lpt_order(small_specs[:3], [0, 1, 2], cache)
    assert order == [1, 2, 0]
    # Unknown durations are assumed long and dispatched first.
    order = _lpt_order(small_specs, [0, 1, 2, 3], cache)
    assert order[0] == 3


def _stuck_worker(spec):
    import time as _time

    _time.sleep(30)


def test_per_job_timeout_fails_stuck_worker(small_specs, monkeypatch):
    monkeypatch.setattr("repro.fleet.pool._worker", _stuck_worker)
    progress = FleetProgress()
    outcomes = run_jobs(
        small_specs[:1],
        FleetConfig(jobs=2, timeout=0.2, retries=0, backoff=0.001),
        progress=progress,
    )
    assert not outcomes[0].ok
    assert "timed out" in outcomes[0].error
    assert progress.count("fleet_timeouts") == 1
    assert progress.count("fleet_failures") == 1


def test_pool_creation_failure_degrades_to_inline(
    small_specs, monkeypatch
):
    def boom(max_workers):
        raise OSError("no processes for you")

    monkeypatch.setattr("repro.fleet.pool._make_pool", boom)
    progress = FleetProgress()
    outcomes = run_jobs(
        small_specs, FleetConfig(jobs=4), progress=progress
    )
    assert all(o.ok and o.mode == "inline" for o in outcomes)
    assert any(e["event"] == "degraded" for e in progress.events)
