"""Fleet <-> harness integration: the headline determinism property
(parallel == serial, cell for cell), cache-backed reruns, the
GridResult <-> payload round-trip, and the merged-observability
acceptance property (jobs=1 == jobs=N snapshots, diff gates)."""

import json

import pytest

from repro.amp.presets import odroid_xu4, xeon_emulated
from repro.errors import ExperimentError
from repro.experiments.harness import (
    GridResult,
    ScheduleConfig,
    default_configs,
    run_grid,
)
from repro.fleet import FleetProgress, ResultCache
from repro.obs.diff import diff_snapshots
from repro.obs.merge import comparable_snapshot
from repro.obs.report import main as report_main
from repro.obs.snapshot import grid_payload, load_snapshot
from repro.runtime.env import OmpEnv
from repro.workloads.registry import get_program

#: The ISSUE's property grid: 4 programs x 4 configs, both platforms.
PROGRAMS = ("EP", "IS", "kmeans", "backprop")
CONFIGS = (
    ScheduleConfig("static(SB)", OmpEnv(schedule="static", affinity="SB")),
    ScheduleConfig("static(BS)", OmpEnv(schedule="static", affinity="BS")),
    ScheduleConfig("AID-static", OmpEnv(schedule="aid_static", affinity="BS")),
    ScheduleConfig("AID-hybrid", OmpEnv(schedule="aid_hybrid,80", affinity="BS")),
)


@pytest.mark.parametrize(
    "platform_factory", [odroid_xu4, xeon_emulated], ids=["A", "B"]
)
def test_fleet_parallel_equals_serial_cell_for_cell(platform_factory):
    platform = platform_factory()
    programs = [get_program(p) for p in PROGRAMS]
    serial = run_grid(platform, programs=programs, configs=CONFIGS)
    parallel = run_grid(
        platform, programs=programs, configs=CONFIGS, jobs=4
    )
    assert parallel.platform_name == serial.platform_name
    assert parallel.config_labels == serial.config_labels
    # Exact float equality, not approx: determinism is the contract.
    assert parallel.times == serial.times
    for program in PROGRAMS:
        for cfg in CONFIGS:
            assert parallel.time(program, cfg.label) == serial.time(
                program, cfg.label
            )


def test_cached_rerun_is_identical_and_computes_nothing(tmp_path):
    platform = odroid_xu4()
    programs = [get_program(p) for p in PROGRAMS[:2]]
    cache = ResultCache(tmp_path)
    cold = run_grid(
        platform, programs=programs, configs=CONFIGS[:2], cache=cache
    )
    progress = FleetProgress()
    warm = run_grid(
        platform,
        programs=programs,
        configs=CONFIGS[:2],
        cache=cache,
        progress=progress,
    )
    assert warm.times == cold.times
    assert progress.count("fleet_cache_hits") == 4
    assert progress.count("fleet_jobs_computed") == 0
    # And the serial no-fleet path agrees too.
    plain = run_grid(platform, programs=programs, configs=CONFIGS[:2])
    assert plain.times == cold.times


def test_grid_payload_round_trip_is_exact():
    grid = run_grid(
        odroid_xu4(),
        programs=[get_program(p) for p in PROGRAMS[:2]],
        configs=CONFIGS[:3],
    )
    # Through canonical JSON (sorted keys!) and back.
    doc = json.loads(json.dumps(grid_payload(grid), sort_keys=True))
    back = GridResult.from_payload(doc)
    assert back.platform_name == grid.platform_name
    assert back.config_labels == grid.config_labels
    assert back.times == grid.times
    # Ordering is part of the contract: identical rendered tables.
    assert list(back.times) == list(grid.times)
    for a, b in zip(back.times.values(), grid.times.values()):
        assert list(a) == list(b)
    assert back.to_table() == grid.to_table()
    assert back.normalized() == grid.normalized()


def test_from_payload_rejects_malformed():
    with pytest.raises(ExperimentError):
        GridResult.from_payload({"platform": "x"})
    grid = run_grid(
        odroid_xu4(),
        programs=[get_program("EP")],
        configs=CONFIGS[:2],
    )
    doc = grid_payload(grid)
    doc["programs"]["EP"] = doc["programs"]["EP"][:1]  # drop a cell
    with pytest.raises(ExperimentError):
        GridResult.from_payload(doc)


class TestMergedObservabilityAcceptance:
    """The PR's acceptance property: a smoke-sized grid run with jobs=4
    and jobs=1 produces byte-identical merged snapshots modulo
    wall-clock fields, the diff reports zero regressions, and a doubled
    runtime-overhead counter makes the CLI gate exit nonzero."""

    PROGRAMS = ("EP", "IS")
    GRID_CONFIGS = CONFIGS[:2] + CONFIGS[3:4]  # static x2 + AID-hybrid

    def run_with(self, jobs):
        progress = FleetProgress()
        run_grid(
            odroid_xu4(),
            programs=[get_program(p) for p in self.PROGRAMS],
            configs=self.GRID_CONFIGS,
            jobs=jobs,
            progress=progress,
        )
        return progress.obs_snapshot(meta={"grids": "smoke", "jobs": jobs})

    def test_jobs4_and_jobs1_snapshots_byte_identical(self, tmp_path):
        serial = comparable_snapshot(self.run_with(jobs=1))
        parallel = comparable_snapshot(self.run_with(jobs=4))
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )
        # The property covers the time-resolved instruments too: the
        # merged snapshot must actually carry them (byte-equality over
        # empty lists would be vacuous).
        assert serial["metrics"]["timeseries"], "merged timeseries missing"
        assert serial["metrics"]["digests"], "merged digests missing"
        ts_names = {m["name"] for m in serial["metrics"]["timeseries"]}
        assert "core_utilization" in ts_names
        dg_names = {m["name"] for m in serial["metrics"]["digests"]}
        assert "chunk_compute_seconds" in dg_names
        # And the structured diff agrees: nothing but wall-clock infos.
        diff = diff_snapshots(self.run_with(jobs=1), self.run_with(jobs=4))
        assert diff.regressions == []
        assert diff.changes == []

    def test_doubled_overhead_fails_the_cli_gate(self, tmp_path, capsys):
        baseline = self.run_with(jobs=1)
        perturbed = json.loads(json.dumps(baseline))
        touched = 0
        for c in perturbed["metrics"]["counters"]:
            if c["name"] == "runtime_overhead_seconds_total":
                c["value"] *= 2
                touched += 1
        assert touched > 0, "the grid must have recorded runtime overhead"
        a = tmp_path / "baseline.json"
        b = tmp_path / "perturbed.json"
        a.write_text(json.dumps(baseline, sort_keys=True), encoding="utf-8")
        b.write_text(json.dumps(perturbed, sort_keys=True), encoding="utf-8")
        assert report_main(
            ["diff", str(a), str(b), "--fail-on-regression"]
        ) == 1
        capsys.readouterr()
        # The unperturbed pair passes the same gate.
        b.write_text(json.dumps(baseline, sort_keys=True), encoding="utf-8")
        assert report_main(
            ["diff", str(a), str(b), "--fail-on-regression"]
        ) == 0
        capsys.readouterr()

    def test_warm_replay_diffs_clean_against_cold(self, tmp_path, capsys):
        cache = ResultCache(tmp_path / "cache")
        programs = [get_program(p) for p in self.PROGRAMS]
        cold_progress = FleetProgress()
        run_grid(
            odroid_xu4(), programs=programs, configs=self.GRID_CONFIGS,
            cache=cache, progress=cold_progress,
        )
        warm_progress = FleetProgress()
        run_grid(
            odroid_xu4(), programs=programs, configs=self.GRID_CONFIGS,
            cache=cache, progress=warm_progress,
        )
        a = tmp_path / "cold.json"
        b = tmp_path / "warm.json"
        a.write_text(
            json.dumps(cold_progress.obs_snapshot(), sort_keys=True),
            encoding="utf-8",
        )
        b.write_text(
            json.dumps(warm_progress.obs_snapshot(), sort_keys=True),
            encoding="utf-8",
        )
        # Cache-temperature counters flip wholesale; still no regression.
        assert report_main(
            ["diff", str(a), str(b), "--fail-on-regression"]
        ) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out

    def test_run_grid_writes_a_loadable_snapshot(self, tmp_path):
        path = tmp_path / "obs.json"
        run_grid(
            odroid_xu4(),
            programs=[get_program("EP")],
            configs=self.GRID_CONFIGS[:2],
            obs_snapshot_path=path,
        )
        doc = load_snapshot(path)
        assert doc["merged_jobs"] == 2
        assert doc["meta"]["platform"]
        names = {c["name"] for c in doc["metrics"]["counters"]}
        assert "fleet_jobs_submitted" in names
        assert "dispatches_total" in names


def test_default_configs_grid_via_fleet_matches_legacy(tmp_path):
    """The exact Fig. 6/7 column set, fleet vs legacy serial loop."""
    programs = [get_program("EP")]
    legacy = run_grid(odroid_xu4(), programs=programs)
    fleet = run_grid(
        odroid_xu4(),
        programs=programs,
        configs=default_configs(),
        jobs=2,
        cache=ResultCache(tmp_path),
    )
    assert fleet.times == legacy.times
