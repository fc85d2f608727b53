"""End-to-end integration tests: the paper's decision-relevant claims.

These run whole programs through the full stack (workload model ->
compiler lowering -> runtime -> schedulers -> performance model) and
assert the conclusions a practitioner would act on.
"""

from pathlib import Path

import pytest

from repro.amp.presets import odroid_xu4
from repro.check.golden import (
    GRID_PIN_FILE,
    GoldenArtifacts,
    check_grid_pin,
    grid_digests,
)
from repro.experiments.harness import default_configs
from repro.metrics.stats import summarize_gains
from repro.runtime.env import OmpEnv
from repro.runtime.program_runner import ProgramRunner
from repro.workloads.registry import all_programs, get_program


@pytest.fixture(scope="module")
def grid_a(paper_grids):
    return paper_grids["odroid_xu4"]


@pytest.fixture(scope="module")
def grid_b(paper_grids):
    return paper_grids["xeon_emulated"]


def test_paper_grids_match_pin(grid_a, grid_b):
    """Both full grids are byte for byte the pinned ones; a mismatch
    names the platform."""
    fresh = GoldenArtifacts(grids=grid_digests([grid_a, grid_b]))
    report = check_grid_pin(Path(__file__).parent / "golden" / GRID_PIN_FILE, fresh)
    assert report is None, report


class TestHeadlineClaims:
    """The abstract's numbers, as shapes."""

    def test_aid_static_and_hybrid_replace_static(self, grid_a, grid_b):
        """Abstract: AID-static/hybrid outperform static across the
        board, by up to 56%."""
        for grid in (grid_a, grid_b):
            s = summarize_gains(grid.column("AID-static"), grid.column("static(BS)"))
            h = summarize_gains(grid.column("AID-hybrid"), grid.column("static(BS)"))
            assert 0.08 < s["mean"] < 0.35
            assert 0.12 < h["mean"] < 0.45
            assert h["mean"] > s["mean"]

    def test_peak_hybrid_gain_in_paper_range(self, grid_a):
        """Paper: up to 56% over static (streamcluster, AID-hybrid)."""
        gains = [
            grid_a.time(p, "static(BS)") / grid_a.time(p, "AID-hybrid") - 1
            for p in grid_a.times
            if p != "particlefilter"
        ]
        assert 0.3 < max(gains) < 0.8

    def test_aid_dynamic_replaces_dynamic(self, grid_a, grid_b):
        d_a = summarize_gains(grid_a.column("AID-dynamic"), grid_a.column("dynamic(BS)"))
        d_b = summarize_gains(grid_b.column("AID-dynamic"), grid_b.column("dynamic(BS)"))
        assert d_a["mean"] > 0
        assert d_b["mean"] > d_a["mean"]  # the platform asymmetry

    def test_dynamic_generally_beats_static_on_amps(self, grid_a):
        """Sec. 3 / [13]: dynamic is in general superior to static on
        AMPs — but not universally (the overhead cases)."""
        wins = sum(
            1
            for p in grid_a.times
            if grid_a.time(p, "dynamic(BS)") < grid_a.time(p, "static(BS)")
        )
        assert wins >= 0.6 * len(grid_a.times)


class TestCrossCuttingInvariants:
    def test_all_21_programs_run_under_all_configs(self, grid_a):
        assert len(grid_a.times) == 21
        for row in grid_a.times.values():
            assert len(row) == len(default_configs())

    def test_results_strictly_deterministic(self):
        p = odroid_xu4()
        env = OmpEnv(schedule="aid_dynamic,1,5", affinity="BS")
        prog = get_program("FT")
        a = ProgramRunner(p, env, root_seed=7).run(prog)
        b = ProgramRunner(p, env, root_seed=7).run(prog)
        assert a.completion_time == b.completion_time
        assert [r.iterations for r in a.loop_results] == [
            r.iterations for r in b.loop_results
        ]

    def test_iteration_conservation_whole_programs(self):
        """Across a whole multi-loop program, every loop's iterations are
        fully executed under every AID schedule."""
        p = odroid_xu4()
        for schedule in ("aid_static", "aid_hybrid,80", "aid_dynamic,1,5"):
            runner = ProgramRunner(p, OmpEnv(schedule=schedule, affinity="BS"))
            result = runner.run(get_program("SP"))
            for lr in result.loop_results:
                loop = next(
                    l for l in get_program("SP").loops() if l.name == lr.loop_name
                )
                assert sum(lr.iterations) == loop.n_iterations

    def test_traces_consistent_for_every_schedule(self):
        p = odroid_xu4()
        for schedule in ("static", "dynamic,1", "guided,1", "aid_static",
                         "aid_hybrid,80", "aid_dynamic,1,5"):
            runner = ProgramRunner(
                p, OmpEnv(schedule=schedule, affinity="BS"), trace=True
            )
            result = runner.run(get_program("MG"))
            result.trace.validate_non_overlapping()
            assert result.trace.t_end == pytest.approx(result.completion_time)

    def test_every_program_faster_with_more_cores(self):
        """8 threads beat (or at worst match) 4 big-core threads for
        every program under AID-static. blackscholes is the boundary
        case: its coherence traffic grows with co-runners, so the extra
        small cores buy almost nothing (the paper's contention story).
        """
        p = odroid_xu4()
        for program in all_programs():
            t8 = ProgramRunner(
                p, OmpEnv(schedule="aid_static", affinity="BS")
            ).run(program).completion_time
            t4 = ProgramRunner(
                p, OmpEnv(schedule="aid_static", affinity="BS", num_threads=4)
            ).run(program).completion_time
            assert t8 <= t4 * 1.03, program.name


class TestSimulatorVsRealThreadAgreement:
    """The two backends run the same scheduler code: distributions must
    agree qualitatively."""

    def test_aid_static_distribution_matches(self):
        import numpy as np

        from repro.amp.presets import dual_speed_platform
        from repro.exec_real import ThreadTeam
        from repro.sched.aid_static import AidStaticSpec

        from tests.helpers import run_loop

        platform = dual_speed_platform(2, 2, big_speedup=2.0)
        sim = run_loop(platform, AidStaticSpec(use_offline_sf=True),
                       n_iterations=600, offline_sf={0: 1.0, 1: 2.0})

        team = ThreadTeam(4, platform)

        # Every worker claims its allotment before any worker can steal:
        # all four meet at a barrier in their first body call (with an
        # instant body, whichever thread the OS runs first would mop up
        # everything).
        import threading

        barrier = threading.Barrier(4, timeout=30)
        started: set[int] = set()  # each worker adds only its own tid

        def body(tid: int, lo: int, hi: int) -> None:
            if tid not in started:
                started.add(tid)
                barrier.wait()

        real = team.parallel_for(
            600,
            body,
            AidStaticSpec(use_offline_sf=True),
            offline_sf={0: 1.0, 1: 2.0},
        )
        # Same offline tables -> identical targets on both backends.
        assert sim.iterations == real.iterations_per_thread
