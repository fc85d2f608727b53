"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amp.topology import bs_mapping, sb_mapping
from repro.check.generators import preset_platform
from repro.perfmodel.overhead import ZERO_OVERHEAD, OverheadModel
from repro.perfmodel.speed import PerfModel
from repro.runtime.team import Team
from repro.sim.rng import stable_seed


@pytest.fixture
def platform_a():
    return preset_platform("odroid_xu4")


@pytest.fixture
def platform_b():
    return preset_platform("xeon_emulated")


@pytest.fixture
def flat2x():
    """A 2+2 AMP whose big cores are exactly 2x faster for all code —
    analytic expectations are exact on it."""
    return preset_platform("dual:2:2")


@pytest.fixture
def flat2x_team(flat2x):
    return Team(flat2x, bs_mapping(flat2x))


@pytest.fixture
def tri_platform():
    return preset_platform("tri")


@pytest.fixture
def team_a_bs(platform_a):
    return Team(platform_a, bs_mapping(platform_a))


@pytest.fixture
def team_a_sb(platform_a):
    return Team(platform_a, sb_mapping(platform_a))


@pytest.fixture
def zero_overhead():
    return ZERO_OVERHEAD


@pytest.fixture
def default_overhead():
    return OverheadModel()


@pytest.fixture
def perf_a(platform_a):
    return PerfModel(platform_a)


@pytest.fixture
def rng(request):
    """Seeded per-test RNG, announcing its seed for replay.

    The seed is stable-hashed from the test's node id, so reruns of one
    test are deterministic while distinct tests get distinct streams.
    Override with ``REPRO_TEST_SEED=<n> pytest ...`` to replay a stream
    in a different test; the print only surfaces in pytest's captured
    output when the test fails.
    """
    import os

    override = os.environ.get("REPRO_TEST_SEED")
    if override is not None:
        seed = int(override)
    else:
        seed = stable_seed("tests", request.node.nodeid)
    print(f"rng fixture seed: {seed} (REPRO_TEST_SEED={seed} to replay)")
    return np.random.default_rng(seed)


@pytest.fixture(scope="session")
def paper_grids():
    """Both full Fig. 6/7 grids at root seed 0, built once per session;
    preset name -> :class:`~repro.experiments.harness.GridResult`."""
    from repro.check.golden import GRID_PRESETS
    from repro.experiments.harness import run_grid

    return {name: run_grid(preset_platform(name)) for name in GRID_PRESETS}


@pytest.fixture(scope="session")
def fresh_golden(paper_grids):
    """The fresh side of every golden comparison, shared by the whole
    session: the engine corpus and the sweep are computed on first use,
    the grid digests come from :func:`paper_grids`."""
    from repro.check.golden import GoldenArtifacts, grid_digests

    return GoldenArtifacts(grids=grid_digests(paper_grids.values()))


@pytest.fixture
def session_golden(fresh_golden, monkeypatch):
    """Make ``python -m repro.check golden`` compare and write the
    session's :func:`fresh_golden` instead of computing its own."""
    from repro.check import golden

    monkeypatch.setattr(golden, "fresh_artifacts", lambda: fresh_golden)
    return fresh_golden
