"""Tests for the declarative fault model: validation, JSON and tuple
round-trips, seeded random plans, horizon scaling."""

import dataclasses
import math

import pytest

from repro.errors import FaultError, ReproError
from repro.faults import (
    CoreOfflineEvent,
    CoreOnlineEvent,
    FaultPlan,
    OverheadSpikeEvent,
    ThrottleEvent,
    WorkerStallEvent,
    plan_from_tuples,
    random_plan,
)
from repro.faults.model import EMPTY_PLAN, event_from_tuple, event_to_tuple

ONE_OF_EACH = (
    ThrottleEvent(cpu=3, t0=0.1, t1=0.5, factor=0.25),
    CoreOfflineEvent(cpu=1, t=0.2),
    CoreOnlineEvent(cpu=1, t=0.6),
    WorkerStallEvent(tid=0, t=0.3, seconds=0.05),
    OverheadSpikeEvent(t0=0.4, t1=0.7, factor=8.0),
)


def test_empty_plan_is_empty():
    assert EMPTY_PLAN.is_empty
    assert FaultPlan().is_empty
    assert not FaultPlan(ONE_OF_EACH).is_empty


def test_json_round_trip_every_kind():
    plan = FaultPlan(ONE_OF_EACH)
    again = FaultPlan.from_json(plan.to_json())
    assert again == plan
    assert again.to_json() == plan.to_json()


def test_tuple_round_trip_every_kind():
    plan = FaultPlan(ONE_OF_EACH)
    assert plan_from_tuples(plan.to_tuples()) == plan
    for event in ONE_OF_EACH:
        assert event_from_tuple(event_to_tuple(event)) == event


@pytest.mark.parametrize(
    "bad",
    [
        ThrottleEvent(cpu=-1, t0=0.0, t1=1.0, factor=0.5),
        ThrottleEvent(cpu=0, t0=0.5, t1=0.5, factor=0.5),
        ThrottleEvent(cpu=0, t0=0.0, t1=1.0, factor=0.0),
        CoreOfflineEvent(cpu=0, t=-0.1),
        CoreOnlineEvent(cpu=-2, t=0.1),
        WorkerStallEvent(tid=0, t=0.1, seconds=0.0),
        OverheadSpikeEvent(t0=0.2, t1=0.1, factor=2.0),
    ],
)
def test_invalid_events_are_rejected(bad):
    with pytest.raises(FaultError):
        FaultPlan((bad,))


@pytest.mark.parametrize(
    "item",
    [
        ("throttle", 0, 0.0, math.inf, 0.5),
        ("throttle", 0, 0.0, 1.0, math.inf),
        ("offline", 0, math.nan),
        ("online", 0, math.inf),
        ("stall", 0, math.inf, 0.1),
        ("stall", 0, 0.0, math.inf),
        ("spike", 0.0, 1.0, math.inf),
    ],
)
def test_non_finite_fields_are_rejected(item):
    # An idle slot of the slot engine holds +inf, so no fault may put
    # a firing, a stall's overhead or a completion there.
    with pytest.raises(FaultError, match="finite"):
        event_from_tuple(item)


@pytest.mark.parametrize(
    "payload",
    [
        "not json at all",
        "[]",
        '{"schema": "other/v1", "events": []}',
        '{"schema": "repro.faults.plan/v1"}',
        '{"schema": "repro.faults.plan/v1", "events": [{"kind": "nope"}]}',
        '{"schema": "repro.faults.plan/v1", "events": [{"kind": "stall"}]}',
    ],
)
def test_malformed_payloads_raise_fault_error(payload):
    with pytest.raises(FaultError) as exc:
        FaultPlan.from_json(payload)
    assert isinstance(exc.value, ReproError)


def test_scaled_multiplies_every_time_field_including_stall_seconds():
    plan = FaultPlan(ONE_OF_EACH).scaled(10.0)
    throttle, offline, online, stall, spike = plan.events
    assert (throttle.t0, throttle.t1) == (1.0, 5.0)
    assert throttle.factor == 0.25  # factors are dimensionless
    assert offline.t == 2.0 and online.t == 6.0
    assert stall.t == 3.0
    # A stall's duration lives on the same clock as its firing time:
    # fractional plans must carry fractional stalls.
    assert stall.seconds == 0.5
    assert (spike.t0, spike.t1, spike.factor) == (4.0, 7.0, 8.0)
    with pytest.raises(FaultError):
        plan.scaled(0.0)


def test_random_plan_is_seed_deterministic_and_valid():
    a = random_plan(7, n_cpus=8, intensity=0.6)
    b = random_plan(7, n_cpus=8, intensity=0.6)
    assert a == b and not a.is_empty
    assert random_plan(8, n_cpus=8, intensity=0.6) != a
    # Round-trips survive and every event validates by construction.
    assert FaultPlan.from_json(a.to_json()) == a
    for event in a.events:
        event.validate()


def test_random_plan_rejects_bad_parameters():
    with pytest.raises(FaultError):
        random_plan(0, n_cpus=0)
    with pytest.raises(FaultError):
        random_plan(0, n_cpus=4, intensity=0.0)
    with pytest.raises(FaultError):
        random_plan(0, n_cpus=4, kinds=("nope",))


def test_events_are_frozen_value_types():
    event = ThrottleEvent(cpu=0, t0=0.0, t1=1.0, factor=0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.factor = 1.0
