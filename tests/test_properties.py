"""Property-based tests (hypothesis) over core invariants.

The load-bearing invariant of the whole system: *every scheduling policy
executes every iteration of every loop exactly once*, for any platform
shape, trip count, chunking and cost profile. Plus structural properties
of the building blocks (pool partitioning, static blocks, AID target
arithmetic, cost-model sanity).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amp.presets import dual_speed_platform
from repro.perfmodel.overhead import OverheadModel
from repro.sched import aid_common as ac
from repro.sched.aid_auto import AidAutoSpec
from repro.sched.aid_dynamic import AidDynamicSpec
from repro.sched.aid_hybrid import AidHybridSpec
from repro.sched.aid_static import AidStaticSpec
from repro.sched.aid_steal import AidStealSpec
from repro.sched.dynamic import DynamicSpec
from repro.sched.guided import GuidedSpec
from repro.sched.static import StaticSpec, static_block
from repro.runtime.workshare import WorkShare
from repro.workloads.costmodels import (
    BimodalCost,
    JitteredCost,
    LognormalCost,
    RampCost,
)

from tests.helpers import assert_valid_partition, run_loop

# -- strategies ---------------------------------------------------------------

schedule_specs = st.one_of(
    st.just(StaticSpec()),
    st.integers(1, 64).map(lambda c: StaticSpec(chunk=c)),
    st.integers(1, 64).map(lambda c: DynamicSpec(chunk=c)),
    st.integers(1, 32).map(lambda c: GuidedSpec(chunk=c)),
    st.integers(1, 8).map(lambda c: AidStaticSpec(sampling_chunk=c)),
    st.floats(10.0, 100.0).map(lambda p: AidHybridSpec(percentage=p)),
    st.tuples(st.integers(1, 8), st.integers(0, 40)).map(
        lambda mm: AidDynamicSpec(mm[0], mm[0] + mm[1])
    ),
    st.tuples(st.integers(1, 4), st.integers(0, 20)).map(
        lambda mm: AidAutoSpec(mm[0], mm[0] + mm[1])
    ),
    st.integers(1, 32).map(lambda c: AidStealSpec(serve_chunk=c)),
)

platforms = st.tuples(
    st.integers(1, 4), st.integers(1, 4), st.floats(1.0, 6.0)
).map(lambda t: dual_speed_platform(t[0], t[1], big_speedup=t[2]))


# -- the big one ----------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    spec=schedule_specs,
    platform=platforms,
    n_iterations=st.integers(1, 700),
    seed=st.integers(0, 2**16),
)
def test_every_schedule_partitions_every_loop(spec, platform, n_iterations, seed):
    rng = np.random.default_rng(seed)
    costs = rng.lognormal(-9.0, 0.8, size=n_iterations)
    result = run_loop(
        platform,
        spec,
        n_iterations=n_iterations,
        costs=costs,
        overhead=OverheadModel(),
    )
    assert_valid_partition(result, n_iterations)


@settings(max_examples=60, deadline=None)
@given(
    spec=schedule_specs,
    n_iterations=st.integers(1, 400),
)
def test_finish_times_never_precede_start(spec, n_iterations):
    platform = dual_speed_platform(2, 2)
    result = run_loop(platform, spec, n_iterations=n_iterations)
    assert all(t >= result.start_time for t in result.finish_times)
    assert result.end_time == max(result.finish_times)


# -- static blocks ---------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 10_000), nt=st.integers(1, 64))
def test_static_block_partitions(n, nt):
    cursor = 0
    for tid in range(nt):
        lo, hi = static_block(n, nt, tid)
        assert lo == cursor
        assert hi >= lo
        cursor = hi
    assert cursor == n


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 10_000), nt=st.integers(1, 64))
def test_static_block_sizes_differ_by_at_most_one(n, nt):
    sizes = [hi - lo for lo, hi in (static_block(n, nt, t) for t in range(nt))]
    assert max(sizes) - min(sizes) <= 1


# -- work share -------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(0, 2000),
    chunks=st.lists(st.integers(1, 97), min_size=1, max_size=400),
)
def test_workshare_takes_partition(n, chunks):
    ws = WorkShare(0, n)
    taken = []
    i = 0
    while not ws.exhausted:
        r = ws.take(chunks[i % len(chunks)])
        i += 1
        if r is None:
            break
        taken.append(r)
    cursor = 0
    for lo, hi in taken:
        assert lo == cursor
        cursor = hi
    assert cursor == n


# -- AID target arithmetic --------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    ni=st.integers(0, 100_000),
    sf=st.floats(1.0, 16.0),
    n_small=st.integers(1, 16),
    n_big=st.integers(1, 16),
)
def test_aid_targets_sum_close_to_ni(ni, sf, n_small, n_big):
    targets = ac.aid_targets(ni, {0: 1.0, 1: sf}, (n_small, n_big))
    total = n_small * targets[0] + n_big * targets[1]
    # Rounding: at most half an iteration of error per thread.
    assert abs(total - ni) <= (n_small + n_big)
    assert all(t >= 0 for t in targets)


@settings(max_examples=100, deadline=None)
@given(
    ni=st.integers(1, 100_000),
    sfs=st.lists(st.floats(1.0, 10.0), min_size=1, max_size=5),
)
def test_aid_targets_monotone_in_sf(ni, sfs):
    sf_map = {0: 1.0}
    counts = [2]
    for j, s in enumerate(sfs, start=1):
        sf_map[j] = s
        counts.append(2)
    targets = ac.aid_targets(ni, sf_map, tuple(counts))
    for j, s in enumerate(sfs, start=1):
        if s >= 1.0:
            assert targets[j] >= targets[0] - 1  # allow rounding slack


# -- cost models ---------------------------------------------------------------------------


cost_models = st.one_of(
    st.floats(0.0, 10.0).map(lambda w: JitteredCost(w, jitter=0.3)),
    st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)).map(
        lambda t: RampCost(*t)
    ),
    st.floats(0.01, 10.0).map(lambda m: LognormalCost(m, sigma=0.9)),
    st.tuples(st.floats(0, 2), st.floats(0, 8), st.floats(0, 1)).map(
        lambda t: BimodalCost(t[0], t[1], t[2])
    ),
)


@settings(max_examples=150, deadline=None)
@given(model=cost_models, n=st.integers(1, 2000), seed=st.integers(0, 2**20))
def test_cost_models_produce_valid_vectors(model, n, seed):
    costs = model.generate(n, np.random.default_rng(seed))
    assert len(costs) == n
    assert np.all(costs >= 0)
    assert np.all(np.isfinite(costs))


@settings(max_examples=50, deadline=None)
@given(model=cost_models, n=st.integers(1, 500), seed=st.integers(0, 2**20))
def test_cost_models_deterministic(model, n, seed):
    a = model.generate(n, np.random.default_rng(seed))
    b = model.generate(n, np.random.default_rng(seed))
    np.testing.assert_array_equal(a, b)
