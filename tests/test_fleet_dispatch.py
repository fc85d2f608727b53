"""Tier selection, and the acceptance property that both tiers (the
process pool and inline execution) produce byte-identical results and
merged observability."""

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
    run_jobs,
)
from repro.fleet.checkpoint import SweepCheckpoint
from repro.obs.merge import comparable_snapshot
from repro.runtime.env import OmpEnv
from repro.workloads.registry import get_program


def comparable_json(progress: FleetProgress) -> str:
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


# -- selection policy ------------------------------------------------------


def modes(specs, config) -> set[str]:
    return {o.mode for o in run_jobs(specs, config)}


def test_default_policy_matches_history(small_specs):
    assert modes(small_specs[:1], FleetConfig(jobs=1)) == {"inline"}
    assert modes(small_specs[:1], FleetConfig(jobs=4)) == {"process"}


def test_explicit_name_wins(small_specs):
    one = small_specs[:1]
    inline = FleetConfig(jobs=4, dispatcher="inline")
    process = FleetConfig(jobs=1, dispatcher="process")
    assert modes(one, inline) == {"inline"}
    assert modes(one, process) == {"process"}


def test_unknown_dispatcher_rejected():
    with pytest.raises(FleetError):
        FleetConfig(dispatcher="quantum")
    with pytest.raises(FleetError):
        FleetConfig(dispatcher="local")


# -- the byte-equality acceptance property ---------------------------------


def test_all_dispatchers_agree_byte_for_byte(small_specs):
    """jobs=1 inline == jobs=N process: identical results AND
    byte-identical merged snapshots."""
    reference = None
    ref_json = None
    for name, jobs in (("inline", 1), ("process", 3)):
        progress = FleetProgress()
        outcomes = run_jobs(
            small_specs,
            FleetConfig(jobs=jobs, dispatcher=name),
            progress=progress,
        )
        assert all(o.ok for o in outcomes), [o.error for o in outcomes]
        results = [o.result for o in outcomes]
        snapshot = comparable_json(progress)
        if reference is None:
            reference, ref_json = results, snapshot
        else:
            assert results == reference, name
            assert snapshot == ref_json, name


def test_process_dispatcher_retries_then_fails(small_specs):
    doomed = JobSpec(
        program=get_program("EP"),
        platform=odroid_xu4(),
        env=OmpEnv(schedule="static", num_threads=64),
        label="doomed",
    )
    progress = FleetProgress()
    outcomes = run_jobs(
        [*small_specs, doomed],
        FleetConfig(jobs=2, retries=1, backoff=0.001),
        progress=progress,
    )
    assert [o.ok for o in outcomes] == [True] * len(small_specs) + [False]
    assert outcomes[-1].attempts == 2
    assert outcomes[-1].mode == "process"
    assert "ConfigError" in outcomes[-1].error
    assert progress.count("fleet_failures") == 1


def test_process_dispatcher_journals_to_checkpoint(small_specs, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cp = SweepCheckpoint(tmp_path / "cp.jsonl")
    cp.begin({})
    run_jobs(small_specs, FleetConfig(jobs=2), cache=cache, checkpoint=cp)
    cp.close()
    state = SweepCheckpoint.load(cp.path, cache)
    assert state.planned == tuple(s.key for s in small_specs)
    assert set(state.done) == {s.key for s in small_specs}
    assert '"job"' not in cp.path.read_text(encoding="utf-8")


def test_dispatchers_share_one_cache(small_specs, tmp_path):
    """Entries written by one tier hit under the other — the store is
    tier-agnostic."""
    cache = ResultCache(tmp_path)
    cold = run_jobs(small_specs, FleetConfig(jobs=1), cache=cache)
    progress = FleetProgress()
    warm = run_jobs(
        small_specs,
        FleetConfig(jobs=2, dispatcher="process"),
        cache=cache,
        progress=progress,
    )
    assert [o.result for o in warm] == [o.result for o in cold]
    assert progress.count("fleet_cache_hits") == len(small_specs)
