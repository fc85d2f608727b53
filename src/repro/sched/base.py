"""Scheduler protocol shared by all loop-scheduling policies."""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.runtime.context import LoopContext


@dataclass(frozen=True)
class PoolAdvancement:
    """A scheduler's declaration that its dispatch loop is a pure
    fixed-chunk drain of the shared pool.

    Returning one from :meth:`LoopScheduler.advancement` asserts that,
    for the remainder of the loop, every ``next_range(tid, now)`` call
    is exactly ``ctx.workshare.take(chunk)`` — no per-call decision
    records, no timestamp charges, no internal state that depends on
    ``tid`` or ``now``. Batch-capable backends use the declaration to
    advance a thread through several chunks in closed form without
    calling the scheduler once per chunk; backends that cannot honour it
    simply keep calling :meth:`LoopScheduler.next_range`.
    """

    chunk: int


class LoopScheduler(abc.ABC):
    """Per-loop-execution scheduling state machine.

    The executor calls :meth:`next_range` from a worker thread whenever
    that thread needs more work — the analogue of libgomp's
    ``GOMP_loop_<sched>_next()``. Every call costs one runtime-dispatch
    overhead (the executor charges it); a policy that wants to be cheap
    must therefore hand out larger ranges, which is the entire design
    space the paper explores.

    Calls never overlap: the simulator makes them one event at a time,
    and the real-thread team holds its lock around every call. So an
    implementation takes no lock of its own, even under real threads.

    Attributes:
        timed: per-thread flag, set by :meth:`mark_timed` for a dispatch
            whose execution start the policy wants to know; the
            simulator clears it when it calls
            :meth:`note_execution_start`.
    """

    def __init__(self, ctx: LoopContext) -> None:
        self.ctx = ctx
        self.timed = [False] * ctx.n_threads

    @abc.abstractmethod
    def next_range(self, tid: int, now: float) -> tuple[int, int] | None:
        """Assign the next iteration range to thread ``tid``.

        Args:
            tid: calling thread's ID within the team.
            now: current time in seconds (virtual in the simulator, wall
                clock in the real executor). AID policies use successive
                ``now`` values to time sampling phases.

        Returns:
            A half-open iteration range ``(lo, hi)``, or ``None`` when the
            thread is done with this loop.
        """

    def mark_timed(self, tid: int) -> None:
        """Ask for :meth:`note_execution_start` on the range this
        ``next_range`` call hands to ``tid``."""
        self.timed[tid] = True

    def note_execution_start(self, tid: int, t: float) -> None:
        """Called by the simulator, once per dispatch marked with
        :meth:`mark_timed` and for no other, with the instant ``t`` at
        which thread ``tid`` starts executing the range: the call's
        ``now`` plus its dispatch overhead, its pool queueing and the
        timestamp charges it made.

        The AID sampling phases bracket the *chunk execution* with
        timestamps (paper Sec. 4.2), so their duration measurements must
        start here, not at the dispatch call — otherwise contention on
        the work-share line (similar in absolute time on every core)
        would systematically flatten the estimated SF. The real-thread
        team never calls it: a policy there keeps the ``now`` of the
        dispatch.
        """

    # -- fault-recovery hooks (overridden by adaptive policies) -------------
    #
    # The fault-injection engines (repro.faults.engine for the simulator,
    # the watchdog in repro.exec_real.team) drive these. The defaults
    # make every policy minimally fault-correct: reclaimed iterations go
    # back to the shared pool, and losing/regaining a worker changes
    # nothing a pool-driven policy needs to know about.

    def reclaim(self, tid: int, lo: int, hi: int) -> None:
        """Return ``[lo, hi)`` — the unfinished tail of a chunk assigned
        to ``tid`` — to this policy's distribution authority.

        Called when a fault preempts the chunk (core offlined, throttle
        preemption) or the watchdog declares its owner stalled. Policies
        that assign work outside the shared pool (e.g. AID-steal's
        per-thread partitions) override this to route the range where
        their serving paths will actually find it.
        """
        self.ctx.workshare.requeue(lo, hi)

    def on_worker_lost(self, tid: int, now: float) -> None:
        """Worker ``tid`` stopped taking work at ``now`` (core offlined)."""

    def on_worker_back(self, tid: int, now: float) -> None:
        """Worker ``tid`` resumed taking work at ``now``."""

    def on_rates_changed(self, now: float, multipliers: dict[int, float]) -> None:
        """Effective per-CPU speed multipliers changed at ``now``.

        ``multipliers`` maps CPU index to the product of active throttle
        factors (1.0 = nominal). Adaptive policies may invalidate cached
        SF estimates here; the default ignores the signal.
        """

    # -- optional introspection (overridden by AID policies) ----------------

    def advancement(self) -> PoolAdvancement | None:
        """Chunk-batch advancement declaration for batching backends.

        ``None`` (the default) means the policy is stateful: a backend
        must step it one :meth:`next_range` call at a time. Policies
        whose dispatch is a pure ``workshare.take(chunk)`` return a
        :class:`PoolAdvancement` so the vectorized backend can integrate
        whole chunk batches in closed form.
        """
        return None

    def estimated_sf(self) -> dict[int, float] | None:
        """Per-core-type SF this policy estimated online, if any.

        Keys are core-type indices; entry 0 is 1.0 by construction.
        Non-sampling policies return ``None``.
        """
        return None


@dataclass(frozen=True)
class ScheduleSpec(abc.ABC):
    """Immutable configuration of a scheduling policy.

    A spec is shared across loops and runs; :meth:`create` builds the
    mutable per-loop state machine.
    """

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Canonical name, e.g. ``"dynamic,4"`` or ``"aid_hybrid,80"``."""

    @abc.abstractmethod
    def create(self, ctx: LoopContext) -> LoopScheduler:
        """Build a fresh scheduler for one loop execution."""

    @property
    def needs_offline_sf(self) -> bool:
        """True when :meth:`create` requires ``ctx.offline_sf``."""
        return False

    @property
    def requires_bs_mapping(self) -> bool:
        """True for AID policies, which assume low TIDs sit on big cores."""
        return False
