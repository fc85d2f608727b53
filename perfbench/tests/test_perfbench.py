"""Tests for the benchmark's own code, on small grids.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import run
import workloads
from repro.amp.presets import odroid_xu4
from repro.experiments.harness import default_configs, run_grid
from repro.fleet import JobSpec, ResultCache
from repro.workloads.registry import get_program
from tracer import LayerTracer, SpanStats

PERFBENCH = Path(run.__file__).resolve().parent
PROGRAMS = ("EP", "bptree")
LABELS = ("static(SB)", "dynamic(SB)", "AID-static")
ORACLE = (("fig6", "EP", "dynamic(SB)"), ("fig6", "bptree", "AID-static"))


def small_grid(tmp_path: Path, warm: bool = False) -> workloads.GridWorkload:
    wl = workloads.GridWorkload(
        0, tmp_path, warm=warm, grids=("fig6",), programs=PROGRAMS,
        labels=LABELS, oracle_cells=ORACLE,
    )
    wl.prepare()
    return wl


def plant_wrong_time(monkeypatch, program: str, label: str) -> None:
    """Make one cell's JobSpec.execute report a slightly wrong time
    (forked pool workers inherit the patch)."""
    execute = JobSpec.execute

    def wrong(spec):
        result = execute(spec)
        if spec.program.name == program and spec.label == label:
            result = dataclasses.replace(
                result, completion_time=result.completion_time * (1 + 1e-12)
            )
        return result

    monkeypatch.setattr(JobSpec, "execute", wrong)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_is_duration_minus_children():
    # A [0, 10] holds B [1, 3] (which holds C [1.5, 2]) and D [4, 5].
    stats = SpanStats(clock=FakeClock([0, 1, 1.5, 2, 3, 4, 5, 10]))
    stats.enter("A")
    stats.enter("B")
    stats.enter("C")
    stats.exit()
    stats.exit()
    stats.enter("D")
    stats.exit()
    stats.exit()
    assert stats.calls("A") == 1
    assert stats.total_s("A") == 10
    assert stats.self_s("A") == pytest.approx(10 - 2 - 1)
    assert stats.self_s("B") == pytest.approx(2 - 0.5)
    assert stats.self_s("C") == pytest.approx(0.5)
    assert stats.self_s("D") == pytest.approx(1)


def test_self_time_sums_over_calls_and_processes():
    stats = SpanStats(clock=FakeClock([0, 1, 2, 2, 4, 4, 7, 7, 10, 13]))
    for _ in range(2):
        stats.enter("outer")
        stats.enter("inner")
        stats.exit()
        stats.exit()
    stats.enter("inner")
    stats.exit(alias="other")
    assert stats.calls("inner") == 3
    assert stats.total_s("inner") == pytest.approx(1 + 3 + 3)
    assert stats.self_s("outer") == pytest.approx(1 + 0)
    assert (stats.calls("other"), stats.self_s("other")) == (1, 3)
    merged = SpanStats()
    merged.merge_doc(stats.to_doc())
    merged.merge_doc(stats.to_doc())
    assert merged.calls("inner") == 6
    assert merged.total_s("inner") == pytest.approx(2 * 7)


@pytest.mark.parametrize("schedule", ["aid_dynamic,1,5", "aid_auto,1,5"])
def test_next_range_spans_match_scheduler_calls(tmp_path, schedule):
    from repro.check.generators import preset_platform, run_loop
    from repro.sched.registry import parse_schedule

    tracer = LayerTracer(tmp_path / "spool")
    tracer.install()
    try:
        loop = run_loop(
            preset_platform("odroid_xu4"), parse_schedule(schedule),
            n_iterations=512, backend="reference",
        )
    finally:
        tracer.uninstall()
    m = run.layer_metrics(
        tracer.collect(), workloads.PassResult(1, 0, wall_s=1.0),
        workloads.PassResult(1, 0, wall_s=1.0), {}, workloads.JOBS,
    )
    assert m["sched.next_range.calls"] == loop.scheduler_calls
    assert m["runtime.loop_run.calls"] == 1


def test_reported_times_are_in_calibrated_seconds():
    # Twice as slow a host as the reference: 2 host seconds are 1 s.
    slow = workloads.PassResult(10, 0, wall_s=2.0, cpu_s=4.0, slowdown=2.0)
    samples = run.e2e_samples([slow], [3.0], setup_slowdown=1.5)
    assert samples["ops_per_s"] == [10.0]
    assert samples["cpu_ms_per_op"] == [200.0]
    assert samples["setup_s"] == [2.0]


def test_planted_wrong_completion_time_is_caught(tmp_path, monkeypatch):
    wl = small_grid(tmp_path)
    first = wl.run_pass()
    assert first.failed == 0
    plant_wrong_time(monkeypatch, "bptree", "dynamic(SB)")
    second = wl.run_pass()
    assert second.failed == 1
    record_failed = first.failed + second.failed
    attempted = first.ops + second.ops
    assert record_failed / attempted == pytest.approx(1 / 12)


def test_wrong_oracle_cell_fails_the_first_pass(tmp_path, monkeypatch):
    wl = small_grid(tmp_path)
    plant_wrong_time(monkeypatch, "EP", "dynamic(SB)")
    assert wl.run_pass().failed == 1


def test_warm_pass_must_equal_the_cold_fill(tmp_path, monkeypatch):
    wl = small_grid(tmp_path, warm=True)
    assert wl.fill().failed == 0
    clean = wl.run_pass()
    assert (clean.failed, clean.layers["cache_hits"]) == (0, 6)
    # A warm pass whose cached cell changed is caught against the fill.
    cache = ResultCache(wl.warm_cache_dir)
    spec = next(
        s for s in workloads.harness.grid_specs(
            odroid_xu4(), (get_program("bptree"),), default_configs()[:1],
            root_seed=0, backend=workloads.BACKEND,
        )
    )
    hit = cache.get(spec.key)
    cache.put(
        dataclasses.replace(hit, completion_time=hit.completion_time + 1)
    )
    assert wl.run_pass().failed == 1


def test_prewarmed_fleet_cache_dir_does_not_warm_grid_cold(
    tmp_path, monkeypatch
):
    prewarmed = tmp_path / "prewarmed"
    run_grid(
        odroid_xu4(), [get_program(p) for p in PROGRAMS],
        [c for c in default_configs() if c.label in LABELS],
        root_seed=0, jobs=1, cache=ResultCache(prewarmed),
        backend=workloads.BACKEND,
    )
    entries = len(ResultCache(prewarmed))
    assert entries == 6
    monkeypatch.setenv("FLEET_CACHE_DIR", str(prewarmed))
    monkeypatch.setenv("REPRO_BACKEND", "reference")
    monkeypatch.setenv("REPRO_FLEET_DISPATCHER", "inline")
    assert ResultCache(None).root == prewarmed
    removed = run.isolate_environment()
    assert removed == [
        "FLEET_CACHE_DIR", "REPRO_BACKEND", "REPRO_FLEET_DISPATCHER",
    ]
    assert ResultCache(None).root != prewarmed
    result = small_grid(tmp_path / "work").run_pass()
    assert result.failed == 0
    assert result.layers["cache_hits"] == 0
    assert len(ResultCache(prewarmed)) == entries


def test_layer_map_matches_benchmark_json():
    layer_map = json.loads((PERFBENCH / "layer_map.json").read_text())
    bench = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in bench["per_layer"]}
    assert set(declared) == set(layer_map)
    for name, entry in layer_map.items():
        assert declared[name]["unit"] == entry["unit"]
        assert declared[name]["better"] == entry["better"]
        assert set(entry["workloads"]) <= set(run.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.E2E_UNITS)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def traced_pass(wl, tmp_path):
    tracer = LayerTracer(tmp_path / "spool")
    tracer.install()
    try:
        traced = wl.run_pass(tracer)
    finally:
        tracer.uninstall()
    return tracer.collect(), traced


def test_traced_warm_pass_reports_every_layer_metric(tmp_path):
    wl = small_grid(tmp_path, warm=True)
    wl.fill()
    untraced = wl.run_pass()
    stats, traced = traced_pass(wl, tmp_path)
    probes = workloads.obs_probes(0)
    assert set(probes) == set(workloads.PROBE_METRICS)
    m = run.layer_metrics(stats, traced, untraced, probes, workloads.JOBS)
    layer_map = json.loads((PERFBENCH / "layer_map.json").read_text())
    assert set(m) == set(layer_map)
    assert traced.failed == 0
    assert m["fleet.cache_hit_ratio"] == 1.0
    assert m["fleet.cache_hits"] == 6
    assert m["backends.reference.calls"] == 0
    assert m["backends.vectorized.calls"] == 0
    assert m["obs.merge.calls"] == 6


def test_traced_cold_pass_includes_worker_side_calls(tmp_path):
    wl = small_grid(tmp_path)
    wl.run_pass()
    stats, traced = traced_pass(wl, tmp_path)
    assert traced.failed == 0
    # Cells run in forked pool workers; their spans come home by spool.
    assert stats.calls("fleet.execute") == 6
    assert stats.calls("runtime.program_run") == 6
    assert stats.calls("obs.job_snapshot") == 6
    assert stats.calls("backends.vectorized") > 0
    assert stats.counts["obs.job_snapshot.bytes"] > 0
    assert traced.layers["ipc_bytes"] > 0
    assert not list((tmp_path / "spool").glob("worker-*.json"))


def test_resilience_matches_stored_digest_and_skips_fleet(tmp_path):
    wl = workloads.ResilienceWorkload(0)
    wl.prepare()
    assert wl.stored_digest is not None
    stats, traced = traced_pass(wl, tmp_path)
    assert traced.failed == 0
    assert stats.calls("fleet.run_jobs") == 0
    assert stats.calls("obs.merge") == 0
    assert stats.counts["backends.fallback.calls"] == stats.counts[
        "faults.faulted_loops"
    ]
    wl.stored_digest = "0" * 64
    assert wl.run_pass().failed == wl.ops_per_pass
