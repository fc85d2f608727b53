"""Unit tests for the loop context."""

import pytest

from repro.amp.presets import odroid_xu4, tri_type_platform
from repro.amp.topology import bs_mapping, sb_mapping
from repro.errors import ConfigError
from repro.runtime.context import LoopContext
from repro.runtime.team import Team


@pytest.fixture
def ctx_bs(platform_a):
    return LoopContext(Team(platform_a, bs_mapping(platform_a)), 128)


def test_shape(ctx_bs):
    assert ctx_bs.n_threads == 8
    assert ctx_bs.n_types == 2
    assert ctx_bs.type_counts() == (4, 4)
    assert ctx_bs.type_of(0) == 1  # BS: thread 0 on a big core
    assert ctx_bs.type_of(7) == 0


def test_thread_views(ctx_bs):
    views = ctx_bs.threads
    assert len(views) == 8
    assert views[0].cpu_id == 7 and views[0].type_index == 1
    assert views[7].cpu_id == 0 and views[7].type_index == 0


def test_workshare_matches_trip_count(ctx_bs):
    assert ctx_bs.workshare.n_iterations == 128
    assert ctx_bs.workshare.take(128) == (0, 128)


def test_validation(platform_a):
    team = Team(platform_a, sb_mapping(platform_a))
    with pytest.raises(ConfigError):
        LoopContext(team, -1)
    with pytest.raises(ConfigError):
        LoopContext(team, 10, default_chunk=0)


def test_charge_timestamp_forwards(platform_a):
    charged = []
    team = Team(platform_a, bs_mapping(platform_a))
    ctx = LoopContext(team, 10, charge_timestamp=charged.append)
    ctx.charge_timestamp(3)
    ctx.charge_timestamp(3)
    assert charged == [3, 3]
    # No callback installed -> silently ignored.
    LoopContext(team, 10).charge_timestamp(0)


def test_offline_sf_lookup(platform_a):
    team = Team(platform_a, bs_mapping(platform_a))
    ctx = LoopContext(team, 10, offline_sf={0: 1.0, 1: 2.5})
    assert ctx.offline_sf_for_type(1) == 2.5
    with pytest.raises(ConfigError):
        ctx.offline_sf_for_type(2)
    with pytest.raises(ConfigError):
        LoopContext(team, 10).offline_sf_for_type(0)


def test_three_type_context(tri_platform):
    ctx = LoopContext(Team(tri_platform, bs_mapping(tri_platform)), 60)
    assert ctx.n_types == 3
    assert ctx.type_counts() == (2, 2, 2)
