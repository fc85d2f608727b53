"""Resumable sweeps: the checkpoint journal and the crash-resume
property — a SIGKILLed sweep, resumed, produces byte-identical grid
output and merged observability to an uninterrupted run."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.amp.presets import odroid_xu4
from repro.errors import FleetError
from repro.experiments.harness import default_configs, grid_specs, run_grid
from repro.fleet import (
    FleetConfig,
    FleetProgress,
    JobSpec,
    ResultCache,
    run_jobs,
)
from repro.fleet.checkpoint import CHECKPOINT_SCHEMA, SweepCheckpoint
from repro.fleet.cli import main
from repro.obs.merge import comparable_snapshot
from repro.runtime.env import OmpEnv
from repro.workloads.registry import get_program

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Counters that legitimately differ between cold, warm and resumed
#: sweeps (cache temperature), stripped before byte-equality checks.
CACHE_TEMPERATURE = {
    "fleet_cache_hits", "fleet_cache_misses", "fleet_jobs_computed",
    "fleet_heartbeats_total",
}


def comparable_json(progress: FleetProgress) -> str:
    doc = comparable_snapshot(progress.obs_snapshot())
    doc["metrics"]["counters"] = [
        c for c in doc["metrics"]["counters"]
        if c["name"] not in CACHE_TEMPERATURE
    ]
    return json.dumps(doc, sort_keys=True)


# -- journal unit behavior -------------------------------------------------


def _entry(cache: ResultCache, digest: str) -> None:
    """Stand-in cache entry: ``load`` checks only that the file exists
    (the resumed sweep's own ``get`` validates its contents)."""
    path = cache.path_for(digest)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{}", encoding="utf-8")


def _job_records(path: Path) -> list[dict]:
    records = [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
    ]
    return [r for r in records if r["event"] == "job"]


def test_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "cp.jsonl"
    cache = ResultCache(tmp_path / "cache")
    cp = SweepCheckpoint(path)
    cp.begin({"tool": "test", "grids": ["smoke"], "seed": 7})
    cp.plan(["d1", "d2", "d3"])
    cp.record("d2", "failed", error="boom")
    cp.finish()
    _entry(cache, "d1")
    state = SweepCheckpoint.load(path, cache)
    assert state.meta["grids"] == ["smoke"] and state.meta["seed"] == 7
    assert state.planned == ("d1", "d2", "d3")
    assert state.done == ("d1",)
    assert state.failed == ("d2",)
    assert state.errors["d2"] == "boom"
    assert state.pending == ("d2", "d3")  # failed jobs rerun on resume
    assert state.ended
    assert state.torn_lines == 0
    first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    assert first["schema"] == CHECKPOINT_SCHEMA
    # Without a cache nothing is done: the journal records no finished job.
    bare = SweepCheckpoint.load(path)
    assert bare.done == () and bare.pending == ("d1", "d2", "d3")


def test_checkpoint_missing_journal_raises(tmp_path):
    with pytest.raises(FleetError):
        SweepCheckpoint.load(tmp_path / "nope.jsonl")


def test_checkpoint_rejects_unknown_status(tmp_path):
    cp = SweepCheckpoint(tmp_path / "cp.jsonl")
    with pytest.raises(FleetError):
        cp.record("d1", "maybe")
    # A finished job's record is its cache entry, never a journal line.
    with pytest.raises(FleetError):
        cp.record("d1", "done")
    assert not cp.path.exists()


def test_checkpoint_tolerates_torn_tail(tmp_path):
    path = tmp_path / "cp.jsonl"
    cache = ResultCache(tmp_path / "cache")
    cp = SweepCheckpoint(path)
    cp.begin({})
    cp.plan(["d1", "d2"])
    cp.close()
    _entry(cache, "d1")
    # Simulate the record a SIGKILL interrupted mid-write.
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"event": "job", "digest": "d2", "sta')
    state = SweepCheckpoint.load(path, cache)
    assert state.torn_lines == 1
    assert state.done == ("d1",)
    assert state.pending == ("d2",)


def test_checkpoint_done_is_sticky_and_plan_dedups(tmp_path):
    path = tmp_path / "cp.jsonl"
    cache = ResultCache(tmp_path / "cache")
    cp = SweepCheckpoint(path)
    cp.begin({})
    cp.plan(["d1", "d2"])
    # A resumed sweep re-plans the same universe and may re-fail a
    # digest that an earlier pass already completed.
    cp.begin({})
    cp.plan(["d2", "d1", "d3"])
    cp.record("d1", "failed", error="later noise")
    cp.close()
    # A journal from before entries were the only record of finished
    # jobs still loads: its ``done`` lines are skipped, and the cache
    # decides.
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"digest": "d2", "event": "job", "status": "done"}\n')
    _entry(cache, "d1")
    state = SweepCheckpoint.load(path, cache)
    assert state.planned == ("d1", "d2", "d3")
    assert state.done == ("d1",)  # an entry is done whatever the journal says
    assert state.failed == ()
    assert state.pending == ("d2", "d3")
    assert not state.ended


# -- run_jobs journaling ---------------------------------------------------


@pytest.fixture()
def small_specs():
    return grid_specs(
        odroid_xu4(),
        [get_program("EP"), get_program("IS")],
        default_configs()[:2],
    )


def test_run_jobs_journals_plan_and_done(small_specs, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cp = SweepCheckpoint(tmp_path / "cp.jsonl")
    cp.begin({})
    run_jobs(small_specs, FleetConfig(jobs=1), cache=cache, checkpoint=cp)
    cp.finish()
    state = SweepCheckpoint.load(cp.path, cache)
    assert state.planned == tuple(s.key for s in small_specs)
    assert set(state.done) == {s.key for s in small_specs}
    assert state.ended
    assert _job_records(cp.path) == []


def test_run_jobs_journals_cache_hits_and_failures(small_specs, tmp_path):
    doomed = JobSpec(
        program=get_program("EP"),
        platform=odroid_xu4(),
        env=OmpEnv(schedule="static", num_threads=64),
        label="doomed",
    )
    cache = ResultCache(tmp_path / "cache")
    run_jobs(small_specs, FleetConfig(jobs=1), cache=cache)
    cp = SweepCheckpoint(tmp_path / "cp.jsonl")
    cp.begin({})
    run_jobs(
        [*small_specs, doomed],
        FleetConfig(jobs=1, retries=0, backoff=0.001),
        cache=cache,
        checkpoint=cp,
    )
    cp.close()
    state = SweepCheckpoint.load(cp.path, cache)
    assert set(state.done) == {s.key for s in small_specs}
    assert state.failed == (doomed.key,)
    # Cache hits append nothing; the failure is the batch's only record.
    (failed,) = _job_records(cp.path)
    assert failed["digest"] == doomed.key and failed["status"] == "failed"
    assert "ConfigError" in failed["error"]


def test_clean_cached_batch_writes_entries_and_one_duration_table(
    small_specs, tmp_path, monkeypatch
):
    """A computed job's only durable write is its cache entry: a clean
    batch appends no ``job`` record and writes ``durations.json`` once."""
    cache = ResultCache(tmp_path / "cache")
    written: list[Path] = []
    write_atomic = ResultCache._write_atomic

    def counting(path, text):
        written.append(path)
        write_atomic(path, text)

    monkeypatch.setattr(ResultCache, "_write_atomic", staticmethod(counting))
    cp = SweepCheckpoint(tmp_path / "cp.jsonl")
    cp.begin({})
    progress = FleetProgress()
    run_jobs(
        small_specs, FleetConfig(jobs=1), cache=cache, progress=progress,
        checkpoint=cp,
    )
    cp.close()
    assert progress.count("fleet_jobs_computed") == len(small_specs)
    assert _job_records(cp.path) == []
    assert written.count(cache.durations_path) == 1
    assert {cache.path_for(s.key) for s in small_specs} <= set(written)
    fresh = ResultCache(tmp_path / "cache")
    assert fresh.profile_estimates() == cache.profile_estimates()
    assert all(fresh.duration_estimate(s) is not None for s in small_specs)


def test_failed_duration_flush_is_a_cache_error(small_specs, tmp_path):
    class FailingFlush(ResultCache):
        def flush(self):
            raise OSError("injected flush failure")

    progress = FleetProgress()
    outcomes = run_jobs(
        small_specs, FleetConfig(jobs=1),
        cache=FailingFlush(tmp_path / "cache"), progress=progress,
    )
    assert all(o.ok for o in outcomes)
    assert progress.count("fleet_cache_errors_total") == 1
    errors = [e for e in progress.events if e["event"] == "cache_error"]
    assert [e["op"] for e in errors] == ["flush"]


def test_resumed_grid_is_byte_identical_in_process(small_specs, tmp_path):
    """In-process half of the property: a sweep stopped after its first
    batch and finished later equals one uninterrupted sweep."""
    platform = odroid_xu4()
    programs = [get_program("EP"), get_program("IS")]
    configs = default_configs()[:3]

    ref_progress = FleetProgress()
    reference = run_grid(
        platform, programs=programs, configs=configs,
        cache=ResultCache(tmp_path / "ref-cache"), progress=ref_progress,
    )

    # "Crashed" sweep: only the first program's cells got computed (and
    # acknowledged by their cache entries) before the coordinator died.
    cache = ResultCache(tmp_path / "cache")
    cp = SweepCheckpoint(tmp_path / "cp.jsonl")
    cp.begin({})
    partial = grid_specs(platform, programs[:1], configs)
    run_jobs(partial, FleetConfig(jobs=1), cache=cache, checkpoint=cp)
    cp.close()

    resumed_progress = FleetProgress()
    resumed = run_grid(
        platform, programs=programs, configs=configs,
        cache=cache, progress=resumed_progress,
        checkpoint=SweepCheckpoint(cp.path),
    )
    assert resumed.times == reference.times
    assert comparable_json(resumed_progress) == comparable_json(ref_progress)
    state = SweepCheckpoint.load(cp.path, cache)
    assert set(state.done) == {
        s.key for s in grid_specs(platform, programs, configs)
    }


# -- the SIGKILL property test ---------------------------------------------


def _fleet_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro.fleet", *args]


def _run_cli(args, *, env_extra=None, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    return subprocess.run(
        _fleet_cmd(*args), env=env, cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


def _grid_tables(stdout: str) -> str:
    """The grid table block(s): everything up to the fleet summary."""
    lines = [
        line for line in stdout.splitlines()
        if not line.startswith(("fleet:", "resuming from", "["))
        or "normalized performance" in line
    ]
    # Drop the header timing line ("name: desc  [1.2s]") by its marker.
    return "\n".join(line for line in lines if "s]" not in line)


@pytest.mark.parametrize("kill_after", [1, 3])
def test_sigkilled_sweep_resumes_byte_identical(tmp_path, kill_after):
    """Satellite 1: SIGKILL the sweep at a seeded point mid-flight,
    resume, and require byte-identical grid tables and merged obs
    snapshot vs an uninterrupted run."""
    ref_snap = tmp_path / "ref-snap.json"
    ref = _run_cli(
        [
            "smoke", "--cache-dir", str(tmp_path / "ref-cache"),
            "--obs-snapshot", str(ref_snap),
        ],
        cwd=str(tmp_path),
    )
    assert ref.returncode == 0, ref.stderr

    cache_dir = tmp_path / "cache"
    killed = _run_cli(
        ["smoke", "--cache-dir", str(cache_dir)],
        env_extra={"REPRO_FLEET_KILL_AFTER": str(kill_after)},
        cwd=str(tmp_path),
    )
    assert killed.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL)

    # The cache acknowledged exactly the computed jobs, durably.
    cache = ResultCache(cache_dir)
    state = SweepCheckpoint.load(cache_dir / "checkpoint.jsonl", cache)
    assert len(state.done) == kill_after
    assert len(state.pending) == len(state.planned) - kill_after
    assert not state.ended

    resumed_snap = tmp_path / "resumed-snap.json"
    resumed = _run_cli(
        [
            "--resume", "--cache-dir", str(cache_dir),
            "--obs-snapshot", str(resumed_snap),
        ],
        cwd=str(tmp_path),
    )
    assert resumed.returncode == 0, resumed.stderr
    assert f"{kill_after} done" in resumed.stdout

    # Property 1: the rendered grid tables are byte-identical.
    assert _grid_tables(resumed.stdout) == _grid_tables(ref.stdout)

    # Property 2: the merged obs snapshots are byte-identical modulo
    # wall-clock fields and cache-temperature counters.
    from repro.obs.snapshot import load_snapshot

    docs = []
    for path in (ref_snap, resumed_snap):
        doc = comparable_snapshot(load_snapshot(path))
        doc["metrics"]["counters"] = [
            c for c in doc["metrics"]["counters"]
            if c["name"] not in CACHE_TEMPERATURE
        ]
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]

    # Property 3: the cache now holds the whole planned sweep.
    state = SweepCheckpoint.load(cache_dir / "checkpoint.jsonl", cache)
    assert len(state.done) == len(state.planned)
    assert state.ended


def test_resume_without_journal_fails_cleanly(tmp_path):
    res = _run_cli(
        ["--resume", "--cache-dir", str(tmp_path / "empty")],
        cwd=str(tmp_path),
    )
    assert res.returncode == 2
    assert "no checkpoint journal" in res.stderr


def test_resume_without_cache_fails_cleanly(tmp_path, capsys):
    """The journal counts a cell done by its cache entry, so a resume
    without the cache has nothing to go on."""
    assert main(["--resume", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "cache" in err and "--checkpoint" not in err
    with pytest.raises(SystemExit) as exc:
        main(["smoke", "--checkpoint", str(tmp_path / "cp.jsonl")])
    assert exc.value.code == 2


def test_deleted_entry_is_pending_and_recomputed_on_resume(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    assert main(["smoke", "--cache-dir", str(cache_dir)]) == 0
    cache = ResultCache(cache_dir)
    journal = cache_dir / "checkpoint.jsonl"
    state = SweepCheckpoint.load(journal, cache)
    assert state.ended and state.pending == ()
    lost = state.planned[3]
    cache.path_for(lost).unlink()

    state = SweepCheckpoint.load(journal, cache)
    assert state.pending == (lost,)
    assert len(state.done) == len(state.planned) - 1

    summary = tmp_path / "resumed.json"
    assert main([
        "--resume", "--cache-dir", str(cache_dir),
        "--summary-json", str(summary),
    ]) == 0
    assert "1 pending of 8 planned" in capsys.readouterr().out
    doc = json.loads(summary.read_text(encoding="utf-8"))
    assert doc["jobs_computed"] == 1 and doc["cache_hits"] == 7
    assert SweepCheckpoint.load(journal, cache).pending == ()
