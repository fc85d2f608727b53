"""Unit tests for the work-share iteration pool."""

import pytest

from repro.errors import WorkShareError
from repro.runtime.workshare import WorkShare


def test_initial_state():
    ws = WorkShare(0, 100)
    assert ws.n_iterations == 100
    assert ws.remaining == 100
    assert not ws.exhausted
    assert ws.dispatch_count == 0


def test_invalid_range_rejected():
    with pytest.raises(WorkShareError):
        WorkShare(10, 5)


def test_take_removes_chunk():
    ws = WorkShare(0, 10)
    assert ws.take(4) == (0, 4)
    assert ws.take(4) == (4, 8)
    assert ws.remaining == 2


def test_take_clamps_at_end():
    ws = WorkShare(0, 10)
    ws.take(8)
    assert ws.take(8) == (8, 10)
    assert ws.exhausted


def test_take_from_empty_returns_none():
    ws = WorkShare(0, 4)
    ws.take(4)
    assert ws.take(1) is None
    assert ws.take(100) is None


def test_empty_pool_from_start():
    ws = WorkShare(5, 5)
    assert ws.n_iterations == 0
    assert ws.take(1) is None


def test_nonzero_start():
    ws = WorkShare(100, 110)
    assert ws.take(5) == (100, 105)


def test_take_rejects_nonpositive_chunk():
    ws = WorkShare(0, 10)
    with pytest.raises(WorkShareError):
        ws.take(0)
    with pytest.raises(WorkShareError):
        ws.take(-3)


def test_dispatch_count_tracks_successes_only():
    ws = WorkShare(0, 5)
    ws.take(3)
    ws.take(3)  # clamped but successful
    ws.take(3)  # empty -> not counted
    assert ws.dispatch_count == 2


def test_take_all():
    ws = WorkShare(0, 10)
    ws.take(3)
    assert ws.take_all() == (3, 10)
    assert ws.exhausted
