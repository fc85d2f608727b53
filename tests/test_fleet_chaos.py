"""Tests for the deterministic chaos harness: plan round-trips, engine
firing semantics, fault-injecting cache wrapper, crash-atomic cache
writes, and the byte-equality / exact-quarantine properties."""

import errno
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import FleetError
from repro.fleet.cache import ResultCache
from repro.fleet.chaos import (
    CHAOS_SCHEMA,
    CacheFault,
    ChaosCache,
    ChaosEngine,
    ChaosPlan,
    PoolBreak,
    WorkerKill,
    WorkerStall,
    chaos_specs,
    fault_free_baseline,
    random_plan,
    run_chaos_case,
    run_chaos_check,
)
from repro.fleet.scrub import scrub_cache

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def specs():
    return chaos_specs()


@pytest.fixture(scope="module")
def baseline(specs):
    return fault_free_baseline(specs)


@pytest.fixture(scope="module")
def one_result(specs):
    return specs[0].execute()


# -- plan model ------------------------------------------------------------


def test_plan_json_round_trip(specs, tmp_path):
    keys = [s.key for s in specs]
    plan = random_plan(11, keys, poison=1)
    doc = json.loads(plan.to_json())
    assert doc["schema"] == CHAOS_SCHEMA
    assert ChaosPlan.from_payload(doc) == plan
    path = plan.save(tmp_path / "plan.json")
    assert ChaosPlan.load(path) == plan


def test_random_plan_is_seed_deterministic(specs):
    keys = [s.key for s in specs]
    assert random_plan(5, keys) == random_plan(5, keys)
    assert any(
        random_plan(s, keys) != random_plan(s + 1, keys) for s in range(5)
    )


def test_random_plan_poison_marks_distinct_digests(specs):
    keys = [s.key for s in specs]
    plan = random_plan(3, keys, poison=2)
    assert len(plan.poison_digests(keys)) == 2
    # poison=0 plans are recoverable by construction: at most one
    # pool-breaking event per digest, below the default threshold of 2.
    for seed in range(20):
        benign = random_plan(seed, keys)
        assert not benign.poison_digests(keys)
        per_digest = {}
        for e in benign.events:
            if e.kind in ("kill", "stall"):
                per_digest[e.job] = per_digest.get(e.job, 0) + 1
        assert all(n <= 1 for n in per_digest.values())


def test_plan_validation_rejects_malformed_events():
    with pytest.raises(FleetError):
        ChaosPlan(mode="yolo").validate()
    with pytest.raises(FleetError):
        WorkerKill(job="", times=1).validate()
    with pytest.raises(FleetError):
        WorkerStall(job="*", seconds=0.0).validate()
    with pytest.raises(FleetError):
        WorkerStall(job="*", seconds=1.0, times=None).validate()
    with pytest.raises(FleetError):
        CacheFault(op="munge", job="*").validate()
    with pytest.raises(FleetError):
        CacheFault(op="put", job="*", errno_name="EWAT").validate()
    with pytest.raises(FleetError):
        CacheFault(op="get", job="*", torn=True).validate()
    with pytest.raises(FleetError):
        PoolBreak(times=0).validate()


# -- engine firing semantics -----------------------------------------------


def test_bounded_events_fire_exactly_n_times(tmp_path):
    plan = ChaosPlan(events=(PoolBreak(job="*", times=2),))
    engine = ChaosEngine(plan, tmp_path / "state")
    fires = [engine.pool_break("ab" * 32) for _ in range(4)]
    assert fires == [True, True, False, False]


def test_marker_files_share_firings_across_engines(tmp_path):
    """Two engines over one state dir model coordinator + rebuilt worker
    processes: a times=1 event fires once *total*."""
    plan = ChaosPlan(events=(WorkerKill(job="*", times=1),))
    a = ChaosEngine(plan, state_dir=tmp_path / "state")
    b = ChaosEngine(plan, state_dir=tmp_path / "state")
    assert a.worker_action("ab" * 32) == ("kill", 0.0)
    assert b.worker_action("ab" * 32) is None
    assert a.worker_action("ab" * 32) is None


def test_unbounded_kill_fires_forever(tmp_path):
    plan = ChaosPlan(events=(WorkerKill(job="ab", times=None),))
    engine = ChaosEngine(plan, tmp_path / "state")
    for _ in range(5):
        assert engine.worker_action("ab" * 32) == ("kill", 0.0)
    assert engine.worker_action("cd" * 32) is None  # selector mismatch


# -- fault-injecting cache wrapper -----------------------------------------


def test_chaos_cache_injects_get_fault(tmp_path):
    plan = ChaosPlan(
        events=(CacheFault(op="get", job="*", errno_name="EACCES", times=1),)
    )
    cache = ChaosCache(
        ResultCache(tmp_path / "cache"), ChaosEngine(plan, tmp_path / "state")
    )
    with pytest.raises(OSError) as exc_info:
        cache.get("ab" * 32)
    assert exc_info.value.errno == errno.EACCES
    assert cache.get("ab" * 32) is None  # fault consumed; normal miss


def test_torn_put_leaves_garbage_the_read_path_absorbs(
    tmp_path, one_result
):
    plan = ChaosPlan(
        events=(CacheFault(op="put", job="*", torn=True, times=1),)
    )
    inner = ResultCache(tmp_path / "cache")
    cache = ChaosCache(inner, ChaosEngine(plan, tmp_path / "state"))
    with pytest.raises(OSError):
        cache.put(one_result)
    # Truncated garbage sits at the entry path; the read path
    # quarantines it instead of crashing, and a retry put heals it.
    assert inner.path_for(one_result.digest).exists()
    assert inner.get(one_result.digest) is None
    cache.put(one_result)
    assert inner.get(one_result.digest) == one_result


# -- crash-atomic cache writes (satellite 1) --------------------------------


def test_kill_during_put_never_leaves_a_truncated_entry(tmp_path):
    """A put killed between the tmp-file write and the atomic rename
    leaves only a ``tmp-<pid>`` sibling — never a truncated entry under
    the final name — and the scrub prunes the leftover."""
    cache_dir = tmp_path / "cache"
    child = (
        "import os, sys\n"
        "from repro.fleet.cache import ResultCache\n"
        "from repro.fleet.chaos import chaos_specs\n"
        "spec = chaos_specs()[0]\n"
        "result = spec.execute()\n"
        "cache = ResultCache(sys.argv[1])\n"
        "cache.put(result)  # prime layout/manifest/index on disk\n"
        "os.unlink(cache.path_for(spec.key))\n"
        "os.replace = lambda src, dst: os._exit(7)\n"
        "cache.put(result)  # dies between tmp write and atomic rename\n"
    )
    # -B: the bare child environment drops any PYTHONDONTWRITEBYTECODE,
    # and the child must not leave bytecode behind under src/.
    proc = subprocess.run(
        [sys.executable, "-B", "-c", child, str(cache_dir)],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 7, proc.stderr
    spec = chaos_specs()[0]
    cache = ResultCache(cache_dir)
    assert not cache.path_for(spec.key).exists()
    leftovers = list(cache_dir.glob("??/*.tmp-*"))
    assert leftovers, "the killed put must leave its tmp sibling behind"
    assert cache.get(spec.key) is None
    report = scrub_cache(cache)
    assert report.quarantined == 0
    assert report.pruned >= 1
    assert any(f.reason == "tmp-leftover" for f in report.findings)
    assert not list(cache_dir.glob("??/*.tmp-*"))
    # The slot is fully healed: a fresh put round-trips.
    result = spec.execute()
    cache.put(result)
    assert cache.get(spec.key) == result


# -- the chaos properties --------------------------------------------------


def test_seeded_plans_are_byte_identical_to_fault_free_run(tmp_path):
    """The acceptance property: 50 seeded sim-mode plans, every one
    byte-identical to the fault-free jobs=1 run."""
    code, report = run_chaos_check(
        plans=50, seed=0, poison=0, mode="sim",
        jobs=2, workdir=tmp_path, emit=lambda *_: None,
    )
    failures = [c for c in report["cases"] if not c["ok"]]
    assert code == 0 and not failures, failures
    assert len(report["cases"]) == 50


def test_poison_plans_quarantine_exactly_the_poison_digests(tmp_path):
    code, report = run_chaos_check(
        plans=5, seed=100, poison=1, mode="sim",
        jobs=2, workdir=tmp_path, emit=lambda *_: None,
    )
    assert code == 0
    for case in report["cases"]:
        assert case["ok"], case["mismatches"]
        assert len(case["expected_poison"]) == 1
        assert case["actual_poison"] == case["expected_poison"]


def test_sim_pool_breaks_charge_the_breaker_not_a_job(
    specs, baseline, tmp_path
):
    """Sim-mode pool-breaks on the process pool charge the breaker and
    never a job: with a bounded kill on top, nothing is quarantined and
    the sweep stays byte-identical. (A pool-break that SIGKILLed a
    worker would charge its break to the lowest in-flight job, the
    killed job, pushing it to the poison threshold.)"""
    keys = [s.key for s in specs]
    plan = ChaosPlan(
        events=(
            PoolBreak(job="*", times=2),
            WorkerKill(job=keys[0], times=1),
        ),
        seed=9,
    )
    verdict = run_chaos_case(specs, plan, baseline, tmp_path, jobs=2)
    assert verdict["ok"], verdict["mismatches"]
    assert verdict["actual_poison"] == []
    assert verdict["fleet"]["jobs_poisoned_total"] == 0


def test_real_mode_sigkill_and_stall_recover(specs, baseline, tmp_path):
    """A genuine SIGKILLed worker plus a stall past the deadline: the
    process pool rebuilds and the sweep stays byte-identical."""
    keys = [s.key for s in specs]
    plan = ChaosPlan(
        events=(
            WorkerKill(job=keys[1], times=1),
            WorkerStall(job=keys[2], seconds=1.0, times=1),
        ),
        seed=7,
        mode="real",
    )
    verdict = run_chaos_case(
        specs, plan, baseline, tmp_path, jobs=2,
        timeout=0.4,
    )
    assert verdict["ok"], verdict["mismatches"]
    assert verdict["actual_poison"] == []


def test_real_mode_poison_quarantined(specs, baseline, tmp_path):
    """A job that SIGKILLs its worker on every attempt is quarantined
    even with heuristic real-pool attribution (submission index 0 is
    always the lowest in-flight index, so every charge is exact)."""
    keys = [s.key for s in specs]
    plan = ChaosPlan(
        events=(WorkerKill(job=keys[0], times=None),), seed=8, mode="real"
    )
    verdict = run_chaos_case(
        specs, plan, baseline, tmp_path, jobs=2,
        timeout=0.4, poison_threshold=2,
    )
    assert verdict["ok"], verdict["mismatches"]
    assert verdict["actual_poison"] == [keys[0]]
    assert verdict["fleet"]["jobs_poisoned_total"] == 1


# -- CLI -------------------------------------------------------------------


def test_chaos_cli_smoke(tmp_path, capsys):
    from repro.fleet.cli import main

    report_path = tmp_path / "chaos-report.json"
    assert main([
        "chaos", "--plans", "2", "--jobs", "2",
        "--json", str(report_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "chaos seed 0: ok" in out and "chaos seed 1: ok" in out
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    assert doc["schema"] == "repro.fleet.chaos-report/v1"
    assert len(doc["cases"]) == 2 and all(c["ok"] for c in doc["cases"])
