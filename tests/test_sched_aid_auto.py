"""Unit tests for AID-auto (the per-loop selection extension)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.obs import Observability
from repro.perfmodel.overhead import OverheadModel
from repro.sched import parse_schedule
from repro.sched.aid_auto import AidAutoSpec
from repro.sched.aid_dynamic import AidDynamicSpec
from repro.sched.aid_hybrid import AidHybridSpec

from tests.helpers import assert_valid_partition, preset_platform, run_loop


def test_name_and_validation():
    assert AidAutoSpec().name == "aid_auto,1,5"
    assert AidAutoSpec(2, 20).name == "aid_auto,2,20"
    assert AidAutoSpec().requires_bs_mapping
    with pytest.raises(ConfigError):
        AidAutoSpec(minor_chunk=0)
    with pytest.raises(ConfigError):
        AidAutoSpec(minor_chunk=5, major_chunk=2)
    with pytest.raises(ConfigError):
        AidAutoSpec(cv_threshold=-0.1)
    with pytest.raises(ConfigError):
        AidAutoSpec(static_percentage=0)


def test_registry_round_trip():
    assert parse_schedule("aid_auto") == AidAutoSpec()
    assert parse_schedule("aid_auto,2,20") == AidAutoSpec(2, 20)
    with pytest.raises(ConfigError):
        parse_schedule("aid_auto,2")


def test_partitions_uniform_and_irregular(platform_a):
    rng = np.random.default_rng(1)
    for costs in (None, rng.lognormal(-9.0, 1.0, 777)):
        result = run_loop(platform_a, AidAutoSpec(), n_iterations=777, costs=costs)
        assert_valid_partition(result, 777)


def test_uniform_loop_selects_one_shot(flat2x):
    result = run_loop(flat2x, AidAutoSpec(), n_iterations=1000)
    sched = result.extra["scheduler"]
    assert sched.mode == "static"
    assert sched.measured_cv is not None and sched.measured_cv < 0.22
    # One-shot: dispatches ~ sampling + 4 allotments + 15% tail.
    assert result.dispatches < 250


def test_irregular_loop_selects_phases(flat2x):
    rng = np.random.default_rng(2)
    costs = rng.lognormal(-9.0, 1.0, 1000)
    result = run_loop(flat2x, AidAutoSpec(), n_iterations=1000, costs=costs)
    sched = result.extra["scheduler"]
    assert sched.mode == "dynamic"
    assert sched.measured_cv > 0.22


def test_estimated_sf_on_flat_platform(flat2x):
    result = run_loop(flat2x, AidAutoSpec(), n_iterations=800)
    assert result.estimated_sf[1] == pytest.approx(2.0, rel=0.15)


def test_tracks_hybrid_on_uniform_loops(flat2x):
    auto = run_loop(flat2x, AidAutoSpec(), n_iterations=1200)
    hybrid = run_loop(flat2x, AidHybridSpec(85), n_iterations=1200)
    assert auto.end_time <= hybrid.end_time * 1.05


def test_tracks_aid_dynamic_on_irregular_loops(flat2x):
    rng = np.random.default_rng(3)
    costs = rng.lognormal(-9.0, 0.9, 2000)
    auto = run_loop(flat2x, AidAutoSpec(), n_iterations=2000, costs=costs)
    aidd = run_loop(flat2x, AidDynamicSpec(1, 5), n_iterations=2000, costs=costs)
    assert auto.end_time <= aidd.end_time * 1.05


def _schedule(platform, spec, n, cost, seed):
    """One run's result and its (tid, event, range, t) decision stream,
    without the publication record (``decide`` / ``publish_targets``)."""
    costs = np.full(n, 1e-4) if cost == "flat" else np.linspace(5e-5, 2e-4, n)
    obs = Observability()
    result = run_loop(
        preset_platform(platform), spec, n_iterations=n, costs=costs,
        overhead=OverheadModel(), obs=obs, rng=np.random.default_rng(seed),
    )
    stream = [
        (r["tid"], r["event"], r.get("range"), r["t"])
        for r in obs.decisions.records
        if r["event"] not in ("decide", "publish_targets")
    ]
    return result, stream


def test_regular_path_is_aid_hybrids_schedule():
    """A loop classified regular gets exactly AID-hybrid(85)'s schedule
    with m as both its sampling chunk and its dynamic chunk."""
    grid = [
        (platform, n, m, cost)
        for platform in ("odroid_xu4", "xeon_emulated", "tri")
        for n in (7, 64, 500, 4096)
        for m in (1, 3)
        for cost in ("flat", "ramp")
    ]
    regular = 0
    for seed, (platform, n, m, cost) in enumerate(grid):
        auto, auto_stream = _schedule(
            platform, AidAutoSpec(minor_chunk=m, major_chunk=5), n, cost, seed
        )
        if auto.extra["scheduler"].mode != "static":
            continue
        regular += 1
        hybrid, hybrid_stream = _schedule(
            platform,
            AidHybridSpec(percentage=85, sampling_chunk=m, dynamic_chunk=m),
            n, cost, seed,
        )
        where = (platform, n, m, cost)
        assert auto.ranges == hybrid.ranges, where
        assert auto.finish_times == hybrid.finish_times, where
        assert auto_stream == hybrid_stream, where
    assert regular > len(grid) // 2


def test_tiny_loops_terminate(flat2x):
    for n in (1, 2, 5, 8, 9):
        result = run_loop(flat2x, AidAutoSpec(), n_iterations=n)
        assert sum(result.iterations) == n


def test_three_core_types(tri_platform):
    result = run_loop(tri_platform, AidAutoSpec(), n_iterations=900)
    assert_valid_partition(result, 900)


def test_cv_threshold_extremes(flat2x):
    rng = np.random.default_rng(4)
    costs = rng.lognormal(-9.0, 0.8, 600)
    always_static = run_loop(
        flat2x, AidAutoSpec(cv_threshold=1e9), n_iterations=600, costs=costs
    )
    always_dynamic = run_loop(
        flat2x, AidAutoSpec(cv_threshold=0.0), n_iterations=600, costs=costs
    )
    assert always_static.extra["scheduler"].mode == "static"
    assert always_dynamic.extra["scheduler"].mode == "dynamic"


def test_real_threads():
    from repro.exec_real import ThreadTeam

    team = ThreadTeam(4)
    counter = np.zeros(1200, dtype=np.int64)

    def body(tid, lo, hi):
        counter[lo:hi] += 1

    team.parallel_for(1200, body, AidAutoSpec())
    assert counter.sum() == 1200 and counter.max() == 1
