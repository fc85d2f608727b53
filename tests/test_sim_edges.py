"""Edge cases of the simulation core: zero-length chunks, simultaneous
event ties, fault windows landing exactly on chunk boundaries, and the
event budget that stops a livelocked scheduler.

These are the boundaries where the slot engine's stepped path
(``reference``) and its closed-form pool drain (``vectorized``) could
most plausibly drift apart, so each scenario that touches scheduling is
asserted byte-identical across both execution backends on top of its
own invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.amp.presets import odroid_xu4
from repro.backends.vectorized import Slots
from repro.check.backend_diff import decision_bytes, result_key
from repro.check.generators import preset_platform, run_loop
from repro.errors import SimulationError, WorkShareError
from repro.faults.engine import SimFaultEngine
from repro.faults.model import plan_from_tuples
from repro.obs import NULL_OBS, Observability
from repro.runtime.workshare import WorkShare
from repro.sched.base import LoopScheduler, ScheduleSpec
from repro.sched.registry import parse_schedule
from repro.tracing.trace import ThreadState, TraceRecorder


# -- zero-length chunks -------------------------------------------------------


class TestZeroLengthChunks:
    def test_final_take_clamps_to_end(self):
        ws = WorkShare(0, 10)
        assert ws.take(8) == (0, 8)
        # Only 2 iterations left: the take is clamped, not zero-length.
        assert ws.take(8) == (8, 10)
        assert ws.take(8) is None
        assert ws.dispatch_count == 2
        assert ws.empty_take_count == 1
        assert ws.attempt_count == 3

    def test_empty_pool_is_immediately_exhausted(self):
        ws = WorkShare(5, 5)
        assert ws.n_iterations == 0
        assert ws.exhausted
        assert ws.take(1) is None
        assert ws.dispatch_count == 0

    def test_zero_length_requeue_rejected(self):
        ws = WorkShare(0, 8)
        with pytest.raises(WorkShareError):
            ws.requeue(3, 3)

    def test_take_never_returns_zero_length_range(self):
        # Adversarial draining: whatever the request size, a successful
        # take always removes at least one iteration.
        ws = WorkShare(0, 7)
        sizes = []
        while (r := ws.take(3)) is not None:
            sizes.append(r[1] - r[0])
        assert min(sizes) >= 1
        assert sum(sizes) == 7

    @pytest.mark.parametrize("schedule", ["dynamic,8", "aid_dynamic,1,5"])
    def test_chunk_larger_than_loop_identical_across_backends(
        self, schedule
    ):
        # ni=1 with chunk 8: the very first dispatch clamps to a single
        # iteration and every other thread's take comes up empty.
        spec = parse_schedule(schedule)
        obs_ref, obs_vec = Observability(), Observability()
        ref = run_loop(
            odroid_xu4(), spec, n_iterations=1, obs=obs_ref,
            backend="reference",
        )
        vec = run_loop(
            odroid_xu4(), spec, n_iterations=1, obs=obs_vec,
            backend="vectorized",
        )
        assert sum(ref.iterations) == 1
        assert result_key(ref) == result_key(vec)
        assert decision_bytes(obs_ref) == decision_bytes(obs_vec)


# -- simultaneous-event tie-breaking ------------------------------------------


class _Policy:
    """The scheduler hooks a fault engine calls, as no-ops."""

    def on_rates_changed(self, t, mults):
        pass

    def reclaim(self, tid, lo, hi):
        pass

    def on_worker_lost(self, tid, t):
        pass

    def on_worker_back(self, tid, t):
        pass


def _fault_engine(events, wakes):
    """A fault engine over unit-cost iterations, one thread per CPU,
    editing the slots of threads woken at ``wakes``."""
    plan = plan_from_tuples(events)
    engine = SimFaultEngine(
        plan=plan, scheduler=_Policy(), prefix=np.arange(65, dtype=float),
        cpu_of_tid=list(range(len(wakes))), loop_name="L", obs=NULL_OBS,
    )
    firings = engine.firings(0.0)
    slots = Slots(wakes, len(firings))
    engine.bind(slots, lambda *row: None, lambda tid, t: None)
    return engine, slots, firings


def _dispatch(engine, slots, tid, lo, hi, t):
    """Write what the slot engine writes when ``tid`` dispatches
    ``[lo, hi)`` at ``t`` with zero overhead and unit speed: the
    in-flight block, and its completion in the thread's slot."""
    mult = engine.tid_mult[tid]
    slots.blocks[tid] = (t, lo, hi, t, 1.0, mult, t, 0.0)
    slots.push(tid, t + (hi - lo) / mult)


def _pending(slots, tid):
    """Whether ``tid``'s slot holds an event (an idle slot is at +inf)."""
    return slots.times[tid] != math.inf


def _firing_order(slots):
    """Pending threads in the order the engine's min-scan fires them:
    earliest time first, then lowest seq."""
    pending = [t for t in range(len(slots.times)) if _pending(slots, t)]
    return sorted(pending, key=lambda t: (slots.times[t], slots.seqs[t]))


class TestSimultaneousEventTies:
    def test_cancelling_inside_a_tie_group_preserves_fifo(self):
        # Rule 1: a re-timed completion takes a new seq, so it fires
        # after the events already queued for its new instant. Thread
        # 0 computes [0, 4) at half speed (due at 8.0); the throttle
        # lifts at 2.0 with one unit done, moving the completion to
        # exactly 5.0, where thread 1's event was queued first.
        engine, slots, firings = _fault_engine(
            (("throttle", 0, 0.0, 2.0, 0.5),), [0.0, 0.0]
        )
        (t_begin, begin), (t_end, end) = firings
        slots.now = t_begin
        begin()
        slots.cancel(0)
        _dispatch(engine, slots, 0, 0, 4, 0.0)
        assert slots.times[0] == 8.0
        slots.push(1, 5.0)
        slots.now = t_end
        end()
        assert slots.times[0] == slots.times[1] == 5.0
        assert slots.blocks[0] == (0.0, 0, 4, 0.0, 1.0, 1.0, 2.0, 1.0)
        assert _firing_order(slots) == [1, 0]

    def test_same_time_event_scheduled_during_tie_fires_last(self):
        # Rule 2: when another thread's event is queued for a block
        # completion's instant, the completion and its redispatch are
        # two events. The engine tests for such an event in the times
        # once the completing slot is idle, and pushes the redispatch at
        # that instant under a new seq, so it fires after every event
        # already queued for it — here thread 1's, queued after the
        # completion. With nothing else queued there, the test finds no
        # event (the idle slot's +inf never matches) and the engine
        # redispatches in the same step.
        for t1, tied in ((4.0, True), (5.0, False)):
            engine, slots, _ = _fault_engine(
                (("stall", 0, 0.5, 0.1),), [0.0, 0.0]
            )
            slots.cancel(0)
            _dispatch(engine, slots, 0, 0, 4, 0.0)
            slots.push(1, t1)
            assert _firing_order(slots) == [0, 1]
            slots.now = 4.0
            slots.cancel(0)  # the completion fires
            slots.blocks[0] = None
            assert not _pending(slots, 0)
            assert (4.0 in slots.times) is tied
            if tied:
                slots.push(0, 4.0)
                assert _firing_order(slots) == [1, 0]

    def test_online_keeps_a_pending_redispatch(self):
        # A slot holds one event. A throttle preempts thread 0 at 1.0
        # and queues its redispatch; its core goes offline and comes
        # back at that same instant. The worker keeps the redispatch it
        # already has instead of queueing a second one.
        engine, slots, firings = _fault_engine(
            (("throttle", 0, 1.0, 3.0, 0.5), ("offline", 0, 1.0),
             ("online", 0, 1.0)),
            [0.0, 0.0],
        )
        slots.cancel(0)  # the wake
        assert 0 not in engine.parked
        _dispatch(engine, slots, 0, 0, 4, 0.0)
        (t1, throttle), (t2, offline), (t3, online), _ = firings
        assert t1 == t2 == t3 == 1.0
        slots.now = 1.0
        throttle()
        queued = (slots.times[0], slots.seqs[0])
        assert _pending(slots, 0) and queued[0] == 1.0
        # Preempted: the slot holds the redispatch, not a completion.
        assert slots.blocks[0] is None
        offline()
        assert 0 in engine.parked
        online()
        assert 0 not in engine.parked
        assert _pending(slots, 0) and (slots.times[0], slots.seqs[0]) == queued

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_retimed_completion_fires_last_end_to_end(self, backend):
        # Rule 1 through the whole engine. dual:1:1 maps thread 0 to
        # the big core (CPU 1, rate 2) and thread 1 to the small one
        # (CPU 0, rate 1); dynamic,4 hands out [0, 4) then [4, 8). At
        # t=0 thread 0 starts 4 units at half speed (due at 4.0) and
        # thread 1 starts 2.5 units (due at 2.5). The throttle lifts at
        # 1.0 with one unit done, re-timing thread 0 to exactly 2.5,
        # behind thread 1's completion: thread 1 finishes first and
        # takes [8, 12) before thread 0 takes [12, 16).
        costs = np.array([1.0] * 4 + [0.625] * 4 + [1.0] * 8)
        plan = plan_from_tuples((("throttle", 1, 0.0, 1.0, 0.5),))
        r = run_loop(
            preset_platform("dual:1:1"), parse_schedule("dynamic,4"),
            n_iterations=16, costs=costs, faults=plan, backend=backend,
        )
        assert r.ranges == [(1, 4, 8), (0, 0, 4), (0, 12, 16), (1, 8, 12)]
        assert r.finish_times == [4.5, 6.5]

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_redispatch_fires_last_end_to_end(self, backend):
        # Rule 2 through the whole engine, on the same threads with unit
        # costs. At 2.0 thread 0 completes [0, 4) just as a throttle on
        # thread 1's core begins. The firing goes first: it cuts thread
        # 1's [4, 8) after two iterations, requeues [6, 8) and queues
        # thread 1's redispatch at 2.0. Thread 0's completion then
        # queues its redispatch behind it, so thread 1 takes the
        # requeued [6, 8) and thread 0 takes [8, 12).
        plan = plan_from_tuples((("throttle", 0, 2.0, 3.0, 0.5),))
        r = run_loop(
            preset_platform("dual:1:1"), parse_schedule("dynamic,4"),
            n_iterations=16, costs=np.full(16, 1.0), faults=plan,
            backend=backend,
        )
        assert r.ranges == [
            (1, 4, 6), (0, 0, 4), (0, 8, 12), (1, 6, 8), (0, 12, 16),
        ]
        assert r.finish_times == [6.0, 4.5]

    def test_tied_dispatches_are_deterministic_and_backend_identical(self):
        # Uniform costs on a flat dual:2:2 platform make same-type
        # threads finish chunks at exactly equal times; tie-breaking
        # (FIFO by wakeup order) must be reproducible run-over-run and
        # identical between engines.
        platform = preset_platform("dual:2:2")
        spec = parse_schedule("dynamic,1")
        costs = np.full(64, 1e-4)

        def one(backend):
            obs = Observability()
            r = run_loop(
                platform, spec, n_iterations=64, costs=costs, obs=obs,
                backend=backend,
            )
            return result_key(r), decision_bytes(obs)

        ref1, ref2 = one("reference"), one("reference")
        vec = one("vectorized")
        assert ref1 == ref2
        assert ref1 == vec


# -- fault boundaries exactly on chunk boundaries -----------------------------


def _chunk_boundaries(platform, spec, ni, costs):
    """Exact chunk-completion times of the fault-free run."""
    trace = TraceRecorder()
    run_loop(
        platform, spec, n_iterations=ni, costs=costs, trace=trace,
        backend="reference",
    )
    return sorted({
        iv.t1 for iv in trace.intervals if iv.state is ThreadState.COMPUTE
    })


class TestFaultBoundaryOnChunkBoundary:
    @pytest.mark.parametrize("kind", ["throttle", "offline"])
    def test_window_starting_exactly_at_chunk_end(self, kind):
        platform = preset_platform("dual:2:2")
        spec = parse_schedule("dynamic,2")
        ni = 48
        costs = np.full(ni, 2e-4)
        ends = _chunk_boundaries(platform, spec, ni, costs)
        assert len(ends) > 4
        # The window opens at the *exact float* a mid-run chunk ends on.
        t_b = ends[len(ends) // 2]
        if kind == "throttle":
            events = (("throttle", 0, t_b, t_b * 2.0, 0.25),)
        else:
            events = (("offline", 0, t_b),)
        plan = plan_from_tuples(events)

        def one(backend):
            obs = Observability()
            r = run_loop(
                platform, spec, n_iterations=ni, costs=costs,
                faults=plan, obs=obs, backend=backend,
            )
            return r, decision_bytes(obs)

        ref, ref_log = one("reference")
        vec, vec_log = one("vectorized")
        # Every iteration still executes exactly once, the fault made
        # the run no faster, and both backends tell the same story.
        assert sum(ref.iterations) == ni
        assert ref.end_time >= ends[-1]
        assert result_key(ref) == result_key(vec)
        assert ref_log == vec_log

    def test_window_closing_exactly_at_chunk_end(self):
        platform = preset_platform("dual:2:2")
        spec = parse_schedule("dynamic,2")
        ni = 48
        costs = np.full(ni, 2e-4)
        ends = _chunk_boundaries(platform, spec, ni, costs)
        t_b = ends[len(ends) // 2]
        # Throttle from loop start until exactly a chunk boundary.
        plan = plan_from_tuples((("throttle", 1, 0.0, t_b, 0.5),))
        ref = run_loop(
            platform, spec, n_iterations=ni, costs=costs, faults=plan,
            backend="reference",
        )
        vec = run_loop(
            platform, spec, n_iterations=ni, costs=costs, faults=plan,
            backend="vectorized",
        )
        assert sum(ref.iterations) == ni
        assert result_key(ref) == result_key(vec)


# -- event budget -------------------------------------------------------------


class _EmptyRanges(LoopScheduler):
    """Hands every thread the empty range ``(0, 0)``, forever."""

    def next_range(self, tid, now):
        return (0, 0)


class _EmptyRangesSpec(ScheduleSpec):
    name = "empty-ranges"

    def create(self, ctx):
        return _EmptyRanges(ctx)


class TestEventBudget:
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("faulted", [False, True])
    def test_livelocked_scheduler_exceeds_the_budget(self, backend, faulted):
        # The pool never drains and, with zero overheads, virtual time
        # never advances: only the event budget ends the run. A faulted
        # run counts two events per chunk, its completion and its
        # redispatch, even when one step runs both, and gets a larger
        # budget.
        plan = (
            plan_from_tuples((("throttle", 0, 0.0, 1.0, 0.5),))
            if faulted else None
        )
        with pytest.raises(SimulationError, match="exceeded"):
            run_loop(
                preset_platform("dual:1:1"), _EmptyRangesSpec(),
                n_iterations=8, faults=plan, backend=backend,
            )


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_iteration_cost_is_rejected(backend, bad):
    # An idle slot holds +inf, so a chunk completing there would read
    # as a retired thread instead of an unfinished one.
    costs = np.ones(16)
    costs[5] = bad
    with pytest.raises(SimulationError, match="finite"):
        run_loop(
            preset_platform("dual:1:1"), parse_schedule("dynamic,4"),
            n_iterations=16, costs=costs, backend=backend,
        )


# -- the timing contract -------------------------------------------------------


class _TimedProbe(LoopScheduler):
    """``dynamic,1`` that charges two timestamps on dispatch number
    ``mark`` and marks it as timed; records every call and every hook."""

    def __init__(self, ctx, mark):
        super().__init__(ctx)
        self.mark = mark
        self.calls = []  # (tid, now) per next_range call, in call order
        self.hooks = []  # (tid, t) per note_execution_start call

    def next_range(self, tid, now):
        got = self.ctx.workshare.take(1)
        if len(self.calls) == self.mark:
            self.ctx.charge_timestamp(tid)
            self.ctx.charge_timestamp(tid)
            self.mark_timed(tid)
        self.calls.append((tid, now))
        return got

    def note_execution_start(self, tid, t):
        self.hooks.append((tid, t))


@dataclass(frozen=True)
class _TimedProbeSpec(ScheduleSpec):
    mark: int
    built: list = field(default_factory=list, compare=False)

    @property
    def name(self):
        return "timed-probe"

    def create(self, ctx):
        probe = _TimedProbe(ctx, self.mark)
        self.built.append(probe)
        return probe


class TestTimingContract:
    @pytest.mark.parametrize("faulted", [False, True])
    def test_hook_fires_once_for_the_marked_dispatch(self, faulted):
        # Threads wake 1 us apart and each pool access holds the line
        # for 5 us, so the third dispatch queues behind the first two.
        from repro.perfmodel.overhead import OverheadModel

        platform = preset_platform("dual:2:2")
        overhead = OverheadModel(
            atomic_service=5e-6, wake_stagger=1e-6, wake_jitter=0.0
        )
        # A stall long after the loop ends only switches the engine to
        # its faulted path.
        plan = plan_from_tuples((("stall", 0, 10.0, 1.0),)) if faulted else None
        mark = 2
        spec = _TimedProbeSpec(mark)
        run_loop(
            platform, spec, n_iterations=40, overhead=overhead, faults=plan
        )
        (probe,) = spec.built
        # Replay the work-share line: every call is one pool access.
        svc = overhead.atomic_service
        pool_free = 0.0
        for i, (tid, now) in enumerate(probe.calls):
            begin = max(now, pool_free)
            pool_free = begin + svc
            if i == mark:
                ct = platform.core(platform.n_cores - 1 - tid).core_type
                stamps = (0.0 + overhead.timestamp(ct)) + overhead.timestamp(ct)
                dispatch = overhead.dispatch(ct, platform.n_cores)
                queued = begin - now
                expected = (tid, now + ((dispatch + stamps) + (queued + svc)))
        assert queued > 0.0
        # Exactly one hook, at the post-overhead instant; unmarked
        # dispatches never reach it.
        assert probe.hooks == [expected]
        assert len(probe.calls) > mark + 1
