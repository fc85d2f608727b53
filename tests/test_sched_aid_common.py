"""Unit tests for the shared AID sampling machinery."""

import pytest

from repro.amp.presets import odroid_xu4
from repro.amp.topology import bs_mapping
from repro.errors import ConfigError, SchedulerError
from repro.runtime.context import LoopContext
from repro.runtime.team import Team
from repro.sched.aid_common import SamplingState, aid_targets, offline_sf_table


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
