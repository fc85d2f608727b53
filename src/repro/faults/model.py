"""Declarative fault model: frozen events, plans, JSON round-trip.

Times are seconds on the executing clock — virtual seconds for the
simulator, wall-clock seconds for :mod:`repro.exec_real`. Plans built
by :func:`random_plan` use *fractional* times in ``[0, 1]``; call
:meth:`FaultPlan.scaled` with a makespan estimate to pin them to a
concrete horizon.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import FaultError

PLAN_SCHEMA = "repro.faults.plan/v1"


def _require_finite(event) -> None:
    """Reject an infinite or NaN field: a time or amount at +inf would
    put an event where the slot engine keeps its idle slots."""
    for field in dataclasses.fields(event):
        value = getattr(event, field.name)
        if not math.isfinite(value):
            raise FaultError(
                f"{event.kind} {field.name} must be finite, got {value}"
            )


@dataclass(frozen=True)
class ThrottleEvent:
    """Scale one CPU's speed by ``factor`` over the window ``[t0, t1)``.

    ``factor`` multiplies the core's execution rate: ``0.25`` models a
    thermally throttled core running at a quarter speed, values above
    ``1.0`` model a boost. Overlapping throttles on the same CPU
    compose multiplicatively.
    """

    cpu: int
    t0: float
    t1: float
    factor: float

    kind = "throttle"

    def validate(self) -> None:
        _require_finite(self)
        if self.cpu < 0:
            raise FaultError(f"throttle cpu must be >= 0, got {self.cpu}")
        if not (0.0 <= self.t0 < self.t1):
            raise FaultError(
                f"throttle window must satisfy 0 <= t0 < t1, got "
                f"[{self.t0}, {self.t1})"
            )
        if not (self.factor > 0.0):
            raise FaultError(f"throttle factor must be > 0, got {self.factor}")


@dataclass(frozen=True)
class CoreOfflineEvent:
    """Take one CPU offline at time ``t``.

    The worker pinned to it is preempted: completed iterations of its
    in-flight chunk are kept, the remainder is returned to the pool,
    and the worker takes no further chunks until a matching
    :class:`CoreOnlineEvent` fires.
    """

    cpu: int
    t: float

    kind = "offline"

    def validate(self) -> None:
        _require_finite(self)
        if self.cpu < 0:
            raise FaultError(f"offline cpu must be >= 0, got {self.cpu}")
        if self.t < 0.0:
            raise FaultError(f"offline time must be >= 0, got {self.t}")


@dataclass(frozen=True)
class CoreOnlineEvent:
    """Bring a previously offlined CPU back at time ``t``."""

    cpu: int
    t: float

    kind = "online"

    def validate(self) -> None:
        _require_finite(self)
        if self.cpu < 0:
            raise FaultError(f"online cpu must be >= 0, got {self.cpu}")
        if self.t < 0.0:
            raise FaultError(f"online time must be >= 0, got {self.t}")


@dataclass(frozen=True)
class WorkerStallEvent:
    """Add ``seconds`` of latency to worker ``tid``'s next chunk.

    In the simulator the stall is charged as extra dispatch overhead on
    the worker's next dispatch at or after ``t``. Under
    :mod:`repro.exec_real` the worker genuinely sleeps, which is what
    the team watchdog is meant to catch.
    """

    tid: int
    t: float
    seconds: float

    kind = "stall"

    def validate(self) -> None:
        _require_finite(self)
        if self.tid < 0:
            raise FaultError(f"stall tid must be >= 0, got {self.tid}")
        if self.t < 0.0:
            raise FaultError(f"stall time must be >= 0, got {self.t}")
        if not (self.seconds > 0.0):
            raise FaultError(f"stall seconds must be > 0, got {self.seconds}")


@dataclass(frozen=True)
class OverheadSpikeEvent:
    """Multiply runtime dispatch overhead by ``factor`` over ``[t0, t1)``.

    Models OS noise / interference on the runtime's shared structures.
    Overlapping spikes compose multiplicatively.
    """

    t0: float
    t1: float
    factor: float

    kind = "spike"

    def validate(self) -> None:
        _require_finite(self)
        if not (0.0 <= self.t0 < self.t1):
            raise FaultError(
                f"spike window must satisfy 0 <= t0 < t1, got "
                f"[{self.t0}, {self.t1})"
            )
        if not (self.factor > 0.0):
            raise FaultError(f"spike factor must be > 0, got {self.factor}")


FaultEvent = (
    ThrottleEvent
    | CoreOfflineEvent
    | CoreOnlineEvent
    | WorkerStallEvent
    | OverheadSpikeEvent
)

_EVENT_TYPES = {
    cls.kind: cls
    for cls in (
        ThrottleEvent,
        CoreOfflineEvent,
        CoreOnlineEvent,
        WorkerStallEvent,
        OverheadSpikeEvent,
    )
}

# Positional tuple forms, used by the fuzzer so FuzzCase stays a flat,
# JSON-friendly dataclass: ("throttle", cpu, t0, t1, factor) etc.
_TUPLE_FIELDS = {
    "throttle": ("cpu", "t0", "t1", "factor"),
    "offline": ("cpu", "t"),
    "online": ("cpu", "t"),
    "stall": ("tid", "t", "seconds"),
    "spike": ("t0", "t1", "factor"),
}
_INT_FIELDS = {"cpu", "tid"}


def event_to_tuple(event: FaultEvent) -> tuple:
    return (event.kind, *(getattr(event, f) for f in _TUPLE_FIELDS[event.kind]))


def event_from_tuple(item: Sequence) -> FaultEvent:
    if not item:
        raise FaultError("empty fault-event tuple")
    kind = item[0]
    fields = _TUPLE_FIELDS.get(kind)
    if fields is None:
        raise FaultError(f"unknown fault-event kind {kind!r}")
    if len(item) != len(fields) + 1:
        raise FaultError(
            f"fault-event tuple for {kind!r} needs {len(fields) + 1} items, "
            f"got {len(item)}"
        )
    kwargs = {}
    for name, value in zip(fields, item[1:]):
        kwargs[name] = int(value) if name in _INT_FIELDS else float(value)
    event = _EVENT_TYPES[kind](**kwargs)
    event.validate()
    return event


def _scale_event(event: FaultEvent, horizon: float) -> FaultEvent:
    # "seconds" is a duration, but it lives on the same clock as the
    # event times: a fractional-time plan carries fractional stalls.
    updates = {
        name: getattr(event, name) * horizon
        for name in ("t", "t0", "t1", "seconds")
        if hasattr(event, name)
    }
    return dataclasses.replace(event, **updates)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of fault events.

    Event times may be absolute seconds or fractions of an (unknown)
    makespan; :meth:`scaled` converts the latter to the former. The
    plan itself does not care which convention is in force — the
    injection engines consume whatever times they are given.
    """

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, tuple(_EVENT_TYPES.values())):
                raise FaultError(
                    f"fault plan events must be fault-event dataclasses, "
                    f"got {type(event).__name__}"
                )
            event.validate()

    @property
    def is_empty(self) -> bool:
        return not self.events

    def scaled(self, horizon: float) -> "FaultPlan":
        """Return a copy with every event time multiplied by ``horizon``."""
        if not (horizon > 0.0):
            raise FaultError(f"scale horizon must be > 0, got {horizon}")
        return FaultPlan(tuple(_scale_event(e, horizon) for e in self.events))

    def to_tuples(self) -> tuple[tuple, ...]:
        return tuple(event_to_tuple(e) for e in self.events)

    def to_payload(self) -> dict:
        return {
            "schema": PLAN_SCHEMA,
            "events": [
                {"kind": e.kind, **dataclasses.asdict(e)} for e in self.events
            ],
        }

    @classmethod
    def from_payload(cls, payload: object) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise FaultError(
                f"fault plan payload must be a dict, got {type(payload).__name__}"
            )
        if payload.get("schema") != PLAN_SCHEMA:
            raise FaultError(
                f"unsupported fault plan schema {payload.get('schema')!r}"
            )
        raw = payload.get("events")
        if not isinstance(raw, list):
            raise FaultError("fault plan payload has no event list")
        events = []
        for entry in raw:
            if not isinstance(entry, dict):
                raise FaultError("fault plan event entries must be dicts")
            kind = entry.get("kind")
            fields = _TUPLE_FIELDS.get(kind)
            if fields is None:
                raise FaultError(f"unknown fault-event kind {kind!r}")
            try:
                values = [entry[name] for name in fields]
            except KeyError as exc:
                raise FaultError(
                    f"fault-event entry for {kind!r} is missing field {exc}"
                ) from exc
            events.append(event_from_tuple((kind, *values)))
        return cls(tuple(events))

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_payload(payload)


EMPTY_PLAN = FaultPlan()


def plan_from_tuples(items: Iterable[Sequence]) -> FaultPlan:
    return FaultPlan(tuple(event_from_tuple(item) for item in items))


def random_plan(
    seed: int,
    n_cpus: int,
    intensity: float = 0.5,
    n_events: int | None = None,
    kinds: Sequence[str] = ("throttle", "offline", "spike", "stall"),
) -> FaultPlan:
    """Generate a seed-deterministic plan with fractional event times.

    ``intensity`` in ``(0, 1]`` controls both how many events are drawn
    (when ``n_events`` is not given) and how severe each one is:
    higher intensity means slower throttle factors, longer windows and
    longer stalls. Offline events are always paired with a matching
    online event, except that at the highest intensities one core may
    stay down for the rest of the run.
    """
    if n_cpus <= 0:
        raise FaultError(f"random_plan needs n_cpus > 0, got {n_cpus}")
    if not (0.0 < intensity <= 1.0):
        raise FaultError(f"intensity must be in (0, 1], got {intensity}")
    if not kinds:
        raise FaultError("random_plan needs at least one event kind")
    for kind in kinds:
        if kind not in _TUPLE_FIELDS:
            raise FaultError(f"unknown fault-event kind {kind!r}")
    rng = np.random.default_rng(seed)
    if n_events is None:
        n_events = 1 + int(rng.integers(0, 2 + round(3 * intensity)))
    events: list[FaultEvent] = []
    for _ in range(n_events):
        kind = str(rng.choice(list(kinds)))
        t0 = float(rng.uniform(0.05, 0.85))
        if kind == "throttle":
            t1 = min(1.0, t0 + float(rng.uniform(0.1, 0.6)))
            factor = float(rng.uniform(1.0 - 0.8 * intensity, 0.95))
            events.append(
                ThrottleEvent(cpu=int(rng.integers(n_cpus)), t0=t0, t1=t1,
                              factor=max(factor, 0.05))
            )
        elif kind == "offline":
            cpu = int(rng.integers(n_cpus))
            events.append(CoreOfflineEvent(cpu=cpu, t=t0))
            if intensity < 0.9 or rng.random() > 0.5:
                t1 = min(1.0, t0 + float(rng.uniform(0.1, 0.5)))
                if t1 > t0:
                    events.append(CoreOnlineEvent(cpu=cpu, t=t1))
        elif kind == "online":
            events.append(CoreOnlineEvent(cpu=int(rng.integers(n_cpus)), t=t0))
        elif kind == "spike":
            t1 = min(1.0, t0 + float(rng.uniform(0.05, 0.4)))
            events.append(
                OverheadSpikeEvent(t0=t0, t1=t1,
                                   factor=1.0 + float(rng.uniform(1.0, 9.0)) * intensity)
            )
        else:  # stall
            events.append(
                WorkerStallEvent(
                    tid=int(rng.integers(n_cpus)),
                    t=t0,
                    seconds=float(rng.uniform(0.02, 0.2)) * intensity,
                )
            )
    return FaultPlan(tuple(events))
