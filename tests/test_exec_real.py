"""Real-thread executor tests: functional correctness under concurrency."""

import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.amp.presets import odroid_xu4
from repro.check.recording import CheckContext
from repro.errors import ConfigError, SchedulerError
from repro.exec_real import ThreadTeam, parallel_map
from repro.sched import (
    AidAutoSpec,
    AidDynamicSpec,
    AidHybridSpec,
    AidStaticSpec,
    AidStealSpec,
    DynamicSpec,
    GuidedSpec,
    StaticSpec,
)
from repro.sched.base import LoopScheduler, ScheduleSpec

ALL_SPECS = [
    StaticSpec(),
    StaticSpec(chunk=5),
    DynamicSpec(3),
    GuidedSpec(2),
    AidStaticSpec(),
    AidHybridSpec(percentage=80),
    AidDynamicSpec(1, 5),
    AidStealSpec(),
    AidAutoSpec(),
]


@pytest.fixture(scope="module")
def team():
    return ThreadTeam(4)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_every_iteration_once(team, spec):
    n = 2000
    counter = np.zeros(n, dtype=np.int64)

    def body(tid, lo, hi):
        counter[lo:hi] += 1

    stats = team.parallel_for(n, body, spec)
    assert counter.sum() == n
    assert counter.max() == 1
    assert sum(stats.iterations_per_thread) == n


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_with_contended_shared_accumulator(team, spec):
    """Workers updating a shared value under their own lock must still
    see a correct total (exercise real interleavings)."""
    n = 1500
    total = [0]
    lock = threading.Lock()

    def body(tid, lo, hi):
        s = sum(range(lo, hi))
        with lock:
            total[0] += s

    team.parallel_for(n, body, spec)
    assert total[0] == n * (n - 1) // 2


def test_empty_loop(team):
    stats = team.parallel_for(0, lambda tid, lo, hi: None, DynamicSpec(1))
    assert stats.iterations_per_thread == [0, 0, 0, 0]


def test_single_iteration(team):
    hits = []
    team.parallel_for(1, lambda tid, lo, hi: hits.append((lo, hi)), StaticSpec())
    assert hits == [(0, 1)]


def test_worker_exception_propagates(team):
    def body(tid, lo, hi):
        if lo >= 50:
            raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        team.parallel_for(200, body, DynamicSpec(10))


def test_negative_trip_count_rejected(team):
    with pytest.raises(ConfigError):
        team.parallel_for(-1, lambda *a: None, StaticSpec())


def test_team_validation():
    with pytest.raises(ConfigError):
        ThreadTeam(0)
    with pytest.raises(ConfigError):
        ThreadTeam(16, odroid_xu4())  # oversubscribes the 8-core platform


def test_on_modeled_platform():
    team = ThreadTeam(8, odroid_xu4())
    n = 3000
    counter = np.zeros(n, dtype=np.int64)

    def body(tid, lo, hi):
        counter[lo:hi] += 1

    stats = team.parallel_for(n, body, AidDynamicSpec(1, 5))
    assert counter.sum() == n and counter.max() == 1
    assert stats.dispatches > 0


def test_offline_sf_under_real_threads():
    team = ThreadTeam(4)
    n = 400
    counter = np.zeros(n, dtype=np.int64)

    def body(tid, lo, hi):
        counter[lo:hi] += 1

    team.parallel_for(
        n, body, AidStaticSpec(use_offline_sf=True), offline_sf={0: 1.0, 1: 2.0}
    )
    assert counter.sum() == n and counter.max() == 1


def test_parallel_map_preserves_order():
    out = parallel_map(lambda i: i * i, 300, DynamicSpec(7), n_threads=4)
    assert out == [i * i for i in range(300)]


def test_parallel_map_with_aid():
    out = parallel_map(str, 100, AidHybridSpec(60), n_threads=3)
    assert out == [str(i) for i in range(100)]


def test_ranges_cover_space(team):
    n = 512
    stats = team.parallel_for(n, lambda tid, lo, hi: None, GuidedSpec(4))
    seen = np.zeros(n, dtype=int)
    for _tid, lo, hi in stats.ranges:
        seen[lo:hi] += 1
    assert seen.min() == 1 and seen.max() == 1


# -- the team's lock: scheduler calls never overlap -----------------------


@pytest.fixture
def fast_switching():
    """Switch threads every microsecond, so a race the team's lock must
    prevent gets many chances to happen."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(old)


class _OverlapProbe(LoopScheduler):
    """``dynamic,1`` that counts calls entered while another is inside."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.inside = 0
        self.overlaps = 0

    def next_range(self, tid, now):
        self.inside += 1
        if self.inside > 1:
            self.overlaps += 1
        time.sleep(0)  # give up the GIL while inside
        got = self.ctx.workshare.take(1)
        self.inside -= 1
        return got


@dataclass(frozen=True)
class _OverlapProbeSpec(ScheduleSpec):
    built: list = field(default_factory=list, compare=False)

    @property
    def name(self):
        return "overlap-probe"

    def create(self, ctx):
        probe = _OverlapProbe(ctx)
        self.built.append(probe)
        return probe


def test_scheduler_calls_never_overlap(team, fast_switching):
    spec = _OverlapProbeSpec()
    stats = team.parallel_for(2000, lambda tid, lo, hi: None, spec)
    assert sum(stats.iterations_per_thread) == 2000
    assert spec.built[0].overlaps == 0


@pytest.mark.parametrize(
    "spec", [DynamicSpec(1), GuidedSpec(1)], ids=lambda s: s.name
)
def test_take_log_is_in_pool_order(team, spec, fast_switching):
    """Each take is numbered in the order the pool served it: seqs run
    0..n-1 and the fetch-and-add's pre-add values rise with them."""
    for _ in range(5):
        check = CheckContext()
        team.parallel_for(3000, lambda tid, lo, hi: None, spec, check=check)
        assert [ev.seq for ev in check.takes] == list(range(len(check.takes)))
        before = [ev.before for ev in check.takes if not ev.requeued]
        assert all(a < b for a, b in zip(before, before[1:])), before
