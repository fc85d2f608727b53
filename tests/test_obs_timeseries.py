"""Tests for the time-resolved telemetry layer (repro.obs.timeseries):
windowed samplers, quantile digests, their merge semantics, the runtime
instrumentation that feeds them, and fault visibility (a mid-loop
throttle renders in the timeline and shows up as a p99 tail-latency
regression)."""

import json

import numpy as np
import pytest

from repro.check.fuzz import fuzz, obs_violations
from repro.check.generators import run_loop
from repro.errors import ObsError
from repro.faults.model import plan_from_tuples
from repro.metrics.imbalance import thread_utilization
from repro.obs import Observability
from repro.obs.diff import diff_snapshots
from repro.obs.registry import MetricsRegistry
from repro.obs.report import timeline
from repro.obs.timeseries import (
    QuantileDigest,
    TimeSeries,
    digest_quantile,
    series_values,
    utilization,
)
from repro.sim.rng import stable_seed


def series(mode="sample", window=1.0, capacity=256, norm=1.0):
    return TimeSeries("s", (), mode=mode, window=window, capacity=capacity,
                      norm=norm)


class TestUtilization:
    def test_fraction(self):
        assert utilization(0.5, 2.0) == 0.25

    def test_non_positive_span_raises(self):
        with pytest.raises(ObsError):
            utilization(1.0, 0.0)


class TestTimeSeriesSampling:
    def test_sample_mode_buckets_by_time(self):
        ts = series(window=1.0)
        ts.observe(0.5, 10.0)
        ts.observe(0.6, 20.0)
        ts.observe(2.5, 5.0)
        assert ts.points == {0: [30.0, 2.0, 10.0, 20.0], 2: [5.0, 1.0, 5.0, 5.0]}

    def test_busy_span_splits_across_windows(self):
        ts = series(mode="busy", window=1.0)
        ts.observe_span(0.5, 2.25)
        assert ts.points[0][0] == pytest.approx(0.5)
        assert ts.points[1][0] == pytest.approx(1.0)
        assert ts.points[2][0] == pytest.approx(0.25)

    def test_mode_mismatch_raises(self):
        with pytest.raises(ObsError):
            series(mode="busy").observe(0.0, 1.0)
        with pytest.raises(ObsError):
            series(mode="sample").observe_span(0.0, 1.0)

    def test_busy_window_never_overflows_capacity(self):
        ts = series(mode="busy", window=1.0)
        ts.observe_span(0.0, 7.5)
        for idx, (s, _c, _lo, _hi) in ts.points.items():
            assert s <= ts.window + 1e-12

    def test_coalescing_doubles_window_and_preserves_mass(self):
        ts = series(window=1.0, capacity=4)
        for i in range(10):
            ts.observe(i + 0.5, 1.0)
        assert ts.level >= 1
        assert ts.window == 2.0 ** ts.level
        assert len(ts.points) <= 4
        total = sum(p[0] for p in ts.points.values())
        count = sum(p[1] for p in ts.points.values())
        assert total == pytest.approx(10.0)
        assert count == pytest.approx(10.0)

    def test_coalescing_is_deterministic_in_the_observation_sequence(self):
        a, b = series(capacity=8), series(capacity=8)
        for i in range(1000):
            t = i * 3.7e-5
            a.observe(t, float(i))
            b.observe(t, float(i))
        assert a.as_dict() == b.as_dict()


class TestTimeSeriesMerge:
    def test_merge_identical_levels_adds_pointwise(self):
        a, b = series(window=1.0), series(window=1.0)
        a.observe(0.5, 1.0)
        b.observe(0.5, 3.0)
        a.merge_doc(b.as_dict())
        assert a.points[0] == [4.0, 2.0, 1.0, 3.0]

    def test_merge_rescales_to_the_coarser_level(self):
        fine = series(window=1.0, capacity=4)
        coarse = series(window=1.0, capacity=4)
        for i in range(10):  # forces coarse past capacity -> level >= 1
            coarse.observe(i + 0.5, 1.0)
        fine.observe(0.25, 2.0)
        level = coarse.level
        coarse.merge_doc(fine.as_dict())
        assert coarse.level >= level
        total = sum(p[0] for p in coarse.points.values())
        assert total == pytest.approx(12.0)

    def test_merge_mode_mismatch_raises(self):
        a = series(mode="busy", window=1.0)
        with pytest.raises(ObsError):
            a.merge_doc(series(mode="sample", window=1.0).as_dict())

    def test_merge_norm_mismatch_raises(self):
        a = series(norm=4.0)
        with pytest.raises(ObsError):
            a.merge_doc(series(norm=2.0).as_dict())

    def test_self_merge_doubles(self):
        a = series(window=1.0)
        for i in range(6):
            a.observe(float(i), 2.0)
        doc = a.as_dict()
        a.merge_doc(doc)
        for idx, (s, c, _lo, _hi) in a.points.items():
            assert s == pytest.approx(4.0)
            assert c == pytest.approx(2.0)


class TestQuantileDigest:
    def test_quantiles_track_the_distribution_within_gamma(self):
        d = QuantileDigest("d", (), gamma=1.02)
        rng = np.random.default_rng(7)
        values = rng.exponential(1e-3, size=5000)
        for v in values:
            d.observe(float(v))
        for q in (0.5, 0.9, 0.99):
            exact = float(np.quantile(values, q))
            assert d.quantile(q) == pytest.approx(exact, rel=0.05)

    def test_extrema_clamp(self):
        d = QuantileDigest("d", ())
        d.observe(1.0)
        assert d.quantile(0.0) == 1.0
        assert d.quantile(1.0) == 1.0

    def test_zero_bucket(self):
        d = QuantileDigest("d", ())
        for _ in range(9):
            d.observe(0.0)
        d.observe(5.0)
        assert d.quantile(0.5) == 0.0
        assert d.quantile(1.0) == 5.0

    def test_merge_doubles_counts_and_keeps_quantiles(self):
        d = QuantileDigest("d", ())
        for v in (1.0, 2.0, 3.0, 4.0):
            d.observe(v)
        q99 = d.quantile(0.99)
        d.merge_doc(d.as_dict())
        assert d.count == 8
        assert d.quantile(0.99) == q99

    def test_gamma_mismatch_raises(self):
        d = QuantileDigest("d", (), gamma=1.02)
        with pytest.raises(ObsError):
            d.merge_doc(QuantileDigest("d", (), gamma=1.05).as_dict())

    def test_serialized_walk_matches_live(self):
        d = QuantileDigest("d", ())
        rng = np.random.default_rng(3)
        for v in rng.lognormal(-7, 1, size=800):
            d.observe(float(v))
        doc = json.loads(json.dumps(d.as_dict()))
        for q in (0.5, 0.99, 0.999):
            assert digest_quantile(doc, q) == d.quantile(q)


class TestSeriesValues:
    def test_busy_mode_renders_utilization(self):
        ts = series(mode="busy", window=2.0, norm=4.0)
        ts.observe_span(0.0, 2.0)
        assert series_values(ts.as_dict()) == [(0, pytest.approx(0.25))]

    def test_sample_mode_renders_means(self):
        ts = series(window=1.0)
        ts.observe(0.1, 2.0)
        ts.observe(0.2, 4.0)
        assert series_values(ts.as_dict()) == [(0, pytest.approx(3.0))]


def seeded_run(obs, schedule="aid_hybrid,80", faults=None, seed=11):
    from repro.amp.presets import odroid_xu4
    from repro.sched.registry import parse_schedule

    n = 512
    costs = np.full(n, 2e-4)
    return run_loop(
        odroid_xu4(),
        parse_schedule(schedule),
        n_iterations=n,
        costs=costs,
        obs=obs,
        rng=np.random.default_rng(stable_seed("obs-ts-test", seed)),
        faults=faults,
    )


class TestRuntimeInstrumentation:
    def test_run_emits_all_promised_series_and_digests(self):
        # The exact catalogue, not a subset: a new instrument needs a
        # reader, this test and a row in docs/observability.md.
        obs = Observability()
        seeded_run(obs)
        snap = obs.registry.snapshot()
        ts_names = {m["name"] for m in snap["timeseries"]}
        assert ts_names == {"core_utilization", "sf_estimate"}
        dg_names = {m["name"] for m in snap["digests"]}
        assert dg_names == {"chunk_compute_seconds", "chunk_size_iters",
                            "dispatch_overhead_seconds"}
        assert snap["histograms"] == []

    def test_cost_attribution_counters_are_disjoint_and_cover_busy_time(self):
        obs = Observability()
        result = seeded_run(obs)
        snap = obs.registry.snapshot()
        by_cat = {}
        for m in snap["counters"]:
            if m["name"] == "sim_time_seconds_total":
                cat = m["labels"]["category"]
                by_cat[cat] = by_cat.get(cat, 0.0) + m["value"]
        compute = sum(
            m["value"] for m in snap["counters"]
            if m["name"] == "compute_seconds_total"
        )
        assert by_cat["compute"] == pytest.approx(compute)
        assert by_cat.get("overhead", 0.0) >= 0.0

    def test_utilization_sampler_agrees_with_thread_utilization(self):
        # Satellite: one busy/span definition. On the inline static
        # path the sampler records exactly [start, finish) per thread,
        # so summed series busy time must equal the scalar metric's
        # per-thread busy fractions times the loop span.
        obs = Observability()
        result = seeded_run(obs, schedule="static")
        snap = obs.registry.snapshot()
        busy_total = sum(
            p[0]
            for m in snap["timeseries"]
            if m["name"] == "core_utilization"
            for p in m["points"].values()
        )
        util = thread_utilization(result)
        assert busy_total == pytest.approx(
            sum(util) * result.duration, rel=1e-9
        )

    def test_snapshot_round_trips_and_passes_obs_invariants(self):
        obs = Observability()
        seeded_run(obs)
        assert obs_violations(obs.registry.snapshot()) == []

    def test_identical_runs_snapshot_identically(self):
        a, b = Observability(), Observability()
        seeded_run(a)
        seeded_run(b)
        assert json.dumps(a.registry.snapshot(), sort_keys=True) == \
            json.dumps(b.registry.snapshot(), sort_keys=True)


THROTTLE = plan_from_tuples(
    # Quarter-speed all four big cores (cpus 4-7 on odroid_xu4) from
    # mid-loop on: the healthy run takes ~7.5ms, so t0=3ms lands inside.
    [("throttle", cpu, 0.003, 10.0, 0.25) for cpu in (4, 5, 6, 7)]
)


class TestFaultVisibility:
    """A mid-loop throttle must show in the timeline's utilization lanes
    and flip the tail-latency diff class on p99."""

    def run_pair(self):
        healthy, faulted = Observability(), Observability()
        seeded_run(healthy, schedule="dynamic,4")
        seeded_run(faulted, schedule="dynamic,4", faults=THROTTLE)
        return healthy, faulted

    def test_timeline_renders_the_faulted_run(self):
        _healthy, faulted = self.run_pair()
        snapshot = {"metrics": faulted.registry.snapshot()}
        text = timeline(snapshot, metric="core_utilization")
        assert "core_utilization" in text
        assert "|" in text  # sparkline lanes rendered

    def test_throttle_flips_the_tail_latency_diff_class(self):
        healthy, faulted = self.run_pair()
        a = {"metrics": healthy.registry.snapshot(), "decisions": []}
        b = {"metrics": faulted.registry.snapshot(), "decisions": []}
        diff = diff_snapshots(a, b)
        tail = [e for e in diff.regressions if e.kind == "tail-latency"]
        assert any(
            e.name == "chunk_compute_seconds" for e in tail
        ), f"expected a chunk_compute_seconds p99 regression, got {tail}"


class TestFuzzObsChecks:
    def test_small_campaign_is_clean(self):
        assert fuzz(4, seed=21).ok

    def test_small_campaign_with_sim_faults_is_clean(self):
        assert fuzz(4, seed=22, faults="sim").ok

    def test_obs_violations_flags_nan(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(float("nan"))
        assert any("JSON" in v for v in obs_violations(reg.snapshot()))

    def test_obs_violations_flags_busy_overrun(self):
        reg = MetricsRegistry()
        ts = reg.timeseries("t", mode="busy", window=1.0)
        ts.points[0] = [5.0, 1.0, 5.0, 5.0]  # 5s busy in a 1s window
        assert any("overrun" in v for v in obs_violations(reg.snapshot()))
