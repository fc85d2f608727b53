"""Atomic primitives shared by the simulated and real-thread runtimes.

libgomp's dynamic schedule removes iterations from the shared pool with a
single fetch-and-add instruction; the AID extensions add two atomic time
accumulators and an atomic completed-sampling counter (paper Sec. 4.2,
footnote 2). These classes name those counters. Every caller reaches
them through a scheduler call, and scheduler calls never overlap: the
discrete-event simulator runs one event at a time, and the real-thread
team (:mod:`repro.exec_real`) holds its lock around every call into the
scheduler. So a plain read-modify-write is atomic on both backends.
"""

from __future__ import annotations


class AtomicCounter:
    """Integer with fetch-and-add semantics."""

    __slots__ = ("_value",)

    def __init__(self, value: int = 0) -> None:
        self._value = int(value)

    @property
    def value(self) -> int:
        return self._value

    def fetch_add(self, delta: int) -> int:
        """Atomically add ``delta``; return the value *before* the add."""
        old = self._value
        self._value = old + int(delta)
        return old

    def add_fetch(self, delta: int) -> int:
        """Atomically add ``delta``; return the value *after* the add."""
        value = self._value + int(delta)
        self._value = value
        return value

    def store(self, value: int) -> None:
        self._value = int(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AtomicCounter({self._value})"


class AtomicFloat:
    """Float accumulator with atomic add (the AID time-sum counters)."""

    __slots__ = ("_value",)

    def __init__(self, value: float = 0.0) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def add(self, delta: float) -> float:
        """Atomically add ``delta``; return the value after the add."""
        value = self._value + float(delta)
        self._value = value
        return value

    def store(self, value: float) -> None:
        self._value = float(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AtomicFloat({self._value})"
