"""Unit tests for the shared AID sampling machinery."""

import pytest

from repro.amp.presets import odroid_xu4
from repro.amp.topology import bs_mapping
from repro.check.generators import DEFAULT_VARIANTS
from repro.check.recording import CheckContext
from repro.errors import ConfigError, SchedulerError
from repro.faults.model import plan_from_tuples
from repro.obs import Observability
from repro.runtime.context import LoopContext
from repro.runtime.team import Team
from repro.sched import parse_schedule
from repro.sched.aid_common import (
    SamplingState,
    aid_targets,
    offline_sf_table,
    state_setter,
)

from tests.helpers import preset_platform, run_loop


class TestSamplingState:
    def test_record_counts_completions(self):
        s = SamplingState(n_types=2)
        assert s.record(0, 1.0) == 1
        assert s.record(1, 0.5) == 2
        assert s.record(1, 0.7) == 3

    def test_mean_times(self):
        s = SamplingState(n_types=2)
        s.record(0, 2.0)
        s.record(0, 4.0)
        s.record(1, 1.0)
        assert s.mean_times() == [3.0, 1.0]

    def test_sf_relative_to_slowest_type(self):
        s = SamplingState(n_types=2)
        s.record(0, 3.0)  # small cores: 3 s per chunk
        s.record(1, 1.0)  # big cores: 1 s per chunk
        sf = s.sf_per_type()
        assert sf[0] == 1.0
        assert sf[1] == pytest.approx(3.0)

    def test_unsampled_type_falls_back_to_one(self):
        s = SamplingState(n_types=3)
        s.record(0, 2.0)
        s.record(2, 1.0)
        sf = s.sf_per_type()
        assert sf[1] == 1.0  # type 1 never sampled
        assert sf[2] == pytest.approx(2.0)

    def test_zero_duration_degenerates_to_one(self):
        s = SamplingState(n_types=2)
        s.record(0, 0.0)
        s.record(1, 0.0)
        assert s.sf_per_type() == {0: 1.0, 1: 1.0}

    def test_negative_duration_rejected(self):
        s = SamplingState(n_types=1)
        with pytest.raises(SchedulerError):
            s.record(0, -0.1)


class TestAidTargets:
    def test_zero_iterations(self):
        assert aid_targets(0, {0: 1.0, 1: 2.0}, (4, 4)) == [0, 0]

    def test_no_threads_rejected(self):
        with pytest.raises(SchedulerError):
            aid_targets(100, {0: 1.0}, (0,))

    def test_missing_type_defaults_to_sf_one(self):
        targets = aid_targets(120, {0: 1.0}, (2, 2))
        # SF for type 1 defaults to 1 -> even split.
        assert targets == [30, 30]


class TestOfflineTable:
    def make_ctx(self, offline):
        p = odroid_xu4()
        team = Team(p, bs_mapping(p))
        return LoopContext(team, 100, offline_sf=offline)

    def test_normalizes_to_slowest_type(self):
        ctx = self.make_ctx({0: 2.0, 1: 7.0})
        table = offline_sf_table(ctx)
        assert table[0] == 1.0
        assert table[1] == pytest.approx(3.5)

    def test_zero_baseline_rejected(self):
        ctx = self.make_ctx({0: 0.0, 1: 2.0})
        with pytest.raises(SchedulerError):
            offline_sf_table(ctx)

    def test_missing_entry_rejected(self):
        ctx = self.make_ctx({0: 1.0})
        with pytest.raises(ConfigError):
            offline_sf_table(ctx)

    def test_no_table_rejected(self):
        ctx = self.make_ctx(None)
        with pytest.raises(ConfigError):
            offline_sf_table(ctx)


class TestStateRecording:
    def test_setter_records_changes_only(self):
        check = CheckContext()
        state = ["START"]
        set_state = state_setter(state, check, "aid_static")
        for new in ("SAMPLING", "SAMPLING_WAIT", "SAMPLING_WAIT", "AID"):
            set_state(0, new)
        assert state == ["AID"]
        assert [ev.state for ev in check.states] == [
            "SAMPLING", "SAMPLING_WAIT", "AID",
        ]

    def test_setter_without_recorder_is_the_list_write(self):
        state = ["START"]
        assert state_setter(state, None, "aid_static") == state.__setitem__

    @pytest.mark.parametrize("platform", ["odroid_xu4", "tri"])
    @pytest.mark.parametrize("variant", DEFAULT_VARIANTS)
    def test_fault_free_runs_record_no_repeated_state(self, variant, platform):
        check = CheckContext()
        run_loop(
            preset_platform(platform), parse_schedule(variant),
            n_iterations=1024, check=check,
        )
        assert check.states
        last: dict[tuple[int, str], str] = {}
        for ev in check.states:
            key = (ev.tid, ev.scheduler)
            assert last.get(key) != ev.state, (
                f"{variant}: tid {ev.tid} re-recorded {ev.state} "
                f"under {ev.scheduler}"
            )
            last[key] = ev.state


class TestLostSampler:
    """A sampler whose core goes offline mid-chunk (odroid: tid 0 runs on
    CPU 7 under the BS mapping; its first sampling chunk starts at 0 and
    is cut at 20 us) and comes back at 2 ms."""

    PLAN = (("offline", 7, 20e-6), ("online", 7, 2e-3))

    def records(self, variant: str) -> list[dict]:
        obs = Observability()
        result = run_loop(
            preset_platform("odroid_xu4"), parse_schedule(variant),
            n_iterations=1024, faults=plan_from_tuples(self.PLAN), obs=obs,
        )
        assert sum(result.iterations) == 1024
        return obs.decisions.records

    def tid0(self, variant: str) -> list[tuple[str, int, float]]:
        return [
            (r["event"], r.get("retake", 0), r["t"])
            for r in self.records(variant)
            if r["tid"] == 0 and r["scheduler"] != "faults"
        ]

    @pytest.mark.parametrize(
        "variant", ["aid_static", "aid_hybrid,80", "aid_auto,1,5", "aid_steal,8"]
    )
    def test_revived_sampler_resamples(self, variant):
        events = self.tid0(variant)
        samples = [e for e in events if e[0].startswith("sample_")]
        assert samples == [
            ("sample_start", 0, 0.0),
            ("sample_start", 1, 2e-3),
            ("sample_complete", 1, pytest.approx(2.05e-3)),
        ]

    @pytest.mark.parametrize(
        "variant,event",
        [
            ("aid_static", "publish_targets"),
            ("aid_hybrid,80", "publish_targets"),
            ("aid_steal,8", "partition"),
        ],
    )
    def test_publication_waits_for_the_resample(self, variant, event):
        (pub,) = [r for r in self.records(variant) if r["event"] == event]
        assert pub["tid"] == 0
        assert pub["t"] == pytest.approx(2.05e-3)

    def test_aid_auto_decides_without_the_lost_sampler(self):
        (decide,) = [
            r for r in self.records("aid_auto,1,5") if r["event"] == "decide"
        ]
        assert decide["tid"] == 7
        assert decide["t"] == pytest.approx(6.67e-5, rel=1e-3)
        # The revived thread still re-samples before its allotment (no
        # shortcut from START to the published targets).
        names = [e[0] for e in self.tid0("aid_auto,1,5")]
        assert names[1:4] == ["sample_start", "sample_complete", "aid_allotment"]

    def test_aid_dynamic_does_not_resample(self):
        events = self.tid0("aid_dynamic,1,5")
        assert [e for e in events if e[0].startswith("sample_")] == [
            ("sample_start", 0, 0.0),
        ]
        assert events[1] == ("wait_steal", 0, 2e-3)
