"""The opt-in ``check=`` context: ground truth for the oracle.

A :class:`CheckContext` is passed into the runtime (``LoopExecutor.run``
or ``ThreadTeam.parallel_for``) and threaded down to the structures the
invariants reason about:

* :class:`~repro.runtime.workshare.WorkShare` reports every
  fetch-and-add on the pool pointer — requested size, pointer value
  before the add, the granted (clamped) range or ``None``;
* the executor reports each scheduler dispatch (tid, virtual time,
  granted range) and the final :class:`LoopResult`;
* the AID schedulers report per-thread state transitions through the
  setter :func:`repro.sched.aid_common.state_setter` binds once per
  loop, and their decision records through a tee emitter that is
  *always on* — the oracle does not depend on observability being
  enabled.

This is deliberately a write-only event log: no checking happens while
recording, so instrumented runs take the exact same scheduling decisions
as bare ones. The oracle (:mod:`repro.check.oracle`) replays the log
afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.decisions import DecisionEmitter, DecisionLog


@dataclass(frozen=True)
class TakeEvent:
    """One fetch-and-add on a work-share pool pointer.

    Attributes:
        seq: append order, which is the pool's order on both backends:
            the simulator makes scheduler calls one event at a time, and
            the real-thread team holds its lock around every call.
        requested: chunk size asked for.
        before: pool ``next`` value the fetch-and-add returned.
        granted: the clamped range handed out, or ``None`` when the pool
            was already drained.
        requeued: True when the grant was served from the pool's
            returned-range queue (fault recovery) rather than the
            fetch-and-add pointer; ``before`` is then the range's own
            ``lo``, not a pointer value.
    """

    seq: int
    requested: int
    before: int
    granted: tuple[int, int] | None
    requeued: bool = False


@dataclass(frozen=True)
class DispatchEvent:
    """One scheduler call as seen by the executor (ground truth of what
    each thread actually executes)."""

    seq: int
    tid: int
    t: float
    granted: tuple[int, int] | None


@dataclass(frozen=True)
class StateEvent:
    """One per-thread scheduler state transition."""

    seq: int
    tid: int
    state: str
    scheduler: str


class _TeeEmitter:
    """Decision emitter writing to the check log and (optionally) obs.

    Drop-in for :class:`~repro.obs.decisions.DecisionEmitter`: the AID
    schedulers only touch ``.on`` and ``.emit``. ``on`` is always True —
    conformance checking needs the decision stream even when the
    observability layer is the null sink.
    """

    __slots__ = ("_log", "_loop", "_scheduler", "_obs_emitter")

    on = True

    def __init__(
        self, log: DecisionLog, loop_name: str, scheduler_name: str, obs
    ) -> None:
        self._log = log
        self._loop = loop_name
        self._scheduler = scheduler_name
        self._obs_emitter = DecisionEmitter(obs, loop_name, scheduler_name)

    def emit(self, tid: int, t: float, event: str, **fields: object) -> None:
        self._log.record(
            loop=self._loop,
            scheduler=self._scheduler,
            tid=tid,
            t=t,
            event=event,
            **fields,
        )
        if self._obs_emitter.on:
            self._obs_emitter.emit(tid, t, event, **fields)


@dataclass
class CheckContext:
    """Ground-truth observation of one parallel-loop execution.

    Create one, pass it as ``check=`` to the executor, then hand it to
    :func:`repro.check.oracle.verify_loop`.
    """

    takes: list[TakeEvent] = field(default_factory=list)
    dispatches: list[DispatchEvent] = field(default_factory=list)
    states: list[StateEvent] = field(default_factory=list)
    decisions: DecisionLog = field(default_factory=DecisionLog)
    team_info: dict | None = None
    loop_name: str = ""
    spec_name: str = ""
    n_iterations: int | None = None
    result: object | None = None
    #: Runtime self-check failure (e.g. the executor's iteration-count
    #: assertion) captured by the harness when the run aborted.
    error: str | None = None
    #: Scheduler label of the last tee emitter built (the active policy).
    scheduler: str = ""

    # -- hooks called by the runtime ----------------------------------------

    def on_team(self, info: dict) -> None:
        self.team_info = dict(info)

    def on_loop_begin(
        self, *, loop_name: str, n_iterations: int, spec_name: str
    ) -> None:
        self.loop_name = loop_name
        self.n_iterations = int(n_iterations)
        self.spec_name = spec_name

    def on_take(
        self,
        requested: int,
        before: int,
        granted: tuple[int, int] | None,
        requeued: bool = False,
    ) -> None:
        self.takes.append(
            TakeEvent(
                len(self.takes), int(requested), int(before), granted,
                bool(requeued),
            )
        )

    def on_dispatch(
        self, tid: int, t: float, granted: tuple[int, int] | None
    ) -> None:
        self.dispatches.append(
            DispatchEvent(len(self.dispatches), int(tid), float(t), granted)
        )

    def on_state(self, tid: int, state: str, scheduler: str) -> None:
        self.states.append(
            StateEvent(len(self.states), int(tid), state, scheduler)
        )

    def on_loop_end(self, result) -> None:
        self.result = result

    def emitter(self, loop_name: str, scheduler_name: str, obs) -> _TeeEmitter:
        """Build the always-on decision emitter for one scheduler."""
        self.scheduler = scheduler_name
        return _TeeEmitter(self.decisions, loop_name, scheduler_name, obs)

    def fault_emitter(self, loop_name: str, obs) -> _TeeEmitter:
        """Build the emitter the fault-injection engines log through.

        Records carry ``scheduler="faults"`` so the oracle can separate
        injected perturbations from policy decisions; unlike
        :meth:`emitter` this does *not* update :attr:`scheduler` — the
        active policy label stays whatever the scheduler installed.
        """
        return _TeeEmitter(self.decisions, loop_name, "faults", obs)

    # -- derived views -------------------------------------------------------

    def executed_ranges(self) -> list[tuple[int, int, int]]:
        """Every executed ``(tid, lo, hi)`` in dispatch order."""
        return [
            (d.tid, d.granted[0], d.granted[1])
            for d in self.dispatches
            if d.granted is not None
        ]

    def decision_records(self, event: str | None = None) -> list[dict]:
        recs = self.decisions.records
        return recs if event is None else [r for r in recs if r["event"] == event]

    def fault_records(self, event: str | None = None) -> list[dict]:
        """Fault-engine records (``scheduler="faults"``), optionally
        filtered by event name."""
        recs = [
            r for r in self.decisions.records if r.get("scheduler") == "faults"
        ]
        return recs if event is None else [r for r in recs if r["event"] == event]

    @property
    def has_faults(self) -> bool:
        """True when any fault-engine record was logged — the signal the
        invariants use to switch to their under-fault relaxations."""
        return any(
            r.get("scheduler") == "faults" for r in self.decisions.records
        )
