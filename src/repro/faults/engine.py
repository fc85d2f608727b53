"""Simulator-side fault injection: time-varying core speed, offlining,
stalls and overhead spikes, driven through the slot engine.

The engine sits inside the slot engine of
:mod:`repro.backends.vectorized`. When a loop is handed a non-empty
:class:`~repro.faults.model.FaultPlan`, the plan's boundaries become
firings the slot engine's min-scan orders ahead of every thread slot at
the same instant (:meth:`SimFaultEngine.firings`), and every compute
block goes through :meth:`SimFaultEngine.begin_block`. The engine owns
the block's thread slot — first its completion, then its redispatch —
and re-integrates the block's cost piecewise whenever a throttle
boundary changes the owning core's effective rate:

    work_done += (t_boundary - t_segment_start) * rate * multiplier

so a chunk spanning N speed segments costs exactly the sum of its
per-segment integrals — the piecewise-rate generalization of the
executor's single ``work / rate`` division.

Recovery semantics:

* a *slowing* throttle that catches a chunk with at least one finished
  and one unfinished iteration preempts it: the finished prefix is kept
  (recorded with the original dispatch timestamp, so per-thread clock
  monotonicity is preserved), the tail goes back through
  :meth:`repro.sched.base.LoopScheduler.reclaim`, and the worker
  redispatches immediately — a slow core never sits on a chunk sized
  for its old speed;
* a core going offline preempts the same way, parks the worker, and
  notifies the policy via ``on_worker_lost``; a later online event
  unparks it through ``on_worker_back``. Offlining the *last* live
  worker is deferred (logged as ``offline_deferred``) — someone must
  finish the loop;
* stalls add latency to the victim's next dispatch; overhead spikes
  multiply dispatch overhead while active.

Every state change is logged through the decision stream under the
pseudo-scheduler label ``"faults"`` (flowing into the conformance log,
the obs decision log and Chrome-trace instant events) and counted on
the metrics registry.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from repro.faults.model import (
    CoreOfflineEvent,
    CoreOnlineEvent,
    FaultPlan,
    OverheadSpikeEvent,
    ThrottleEvent,
    WorkerStallEvent,
)
from repro.obs.decisions import DecisionEmitter


class _Block:
    """One in-flight compute chunk, tracked for piecewise-rate costing."""

    __slots__ = (
        "tid", "lo", "hi", "dispatch_t", "compute_start", "t_seg",
        "work_done", "total_work", "speed0", "mult",
    )

    def __init__(self, tid, lo, hi, dispatch_t, compute_start, total_work,
                 speed0, mult):
        self.tid = tid
        self.lo = lo
        self.hi = hi
        self.dispatch_t = dispatch_t
        self.compute_start = compute_start
        # Start of the current constant-rate segment; work_done holds the
        # work units integrated over all earlier segments.
        self.t_seg = compute_start
        self.work_done = 0.0
        self.total_work = total_work
        self.speed0 = speed0
        self.mult = mult


class SimFaultEngine:
    """Applies one :class:`FaultPlan` to one simulated loop execution.

    The slot engine binds its
    :class:`~repro.backends.vectorized.Slots` and two callbacks after
    construction (:meth:`bind`): ``record_exec`` performs the deferred
    per-chunk accounting (conformance dispatch record, executed-ranges
    list, iteration counters, the dispatch log's execution row), and
    ``set_finish`` updates a thread's finish time when it parks.
    """

    def __init__(
        self,
        plan: FaultPlan,
        scheduler,
        prefix: np.ndarray,
        cpu_of_tid: Sequence[int],
        loop_name: str,
        obs,
        check=None,
    ) -> None:
        self.plan = plan
        self.scheduler = scheduler
        self.prefix = prefix
        self._cpu_of = list(cpu_of_tid)
        self._nt = len(self._cpu_of)
        self._tids_on: dict[int, list[int]] = {}
        for tid, cpu in enumerate(self._cpu_of):
            self._tids_on.setdefault(cpu, []).append(tid)
        if check is not None:
            self.dec = check.fault_emitter(loop_name, obs)
        else:
            self.dec = DecisionEmitter(obs, loop_name, "faults")
        self._obs = obs
        self._loop_name = loop_name
        # Causal span recorder (None when tracing is off). Window spans
        # (throttle/spike/offline) are opened at the begin firing and
        # their end time patched at the end firing or at publish();
        # stalls are recorded as they are consumed.
        self._srec = getattr(obs, "spans", None)
        self._open_spans: dict[tuple, object] = {}
        # -- dynamic state ------------------------------------------------
        self._active_throttles: dict[int, list[float]] = {}
        self._mult: dict[int, float] = {}
        self._active_spikes: list[float] = []
        self._offline: set[int] = set()
        self._parked: set[int] = set()
        self._lost: set[int] = set()
        self._retired: set[int] = set()
        self._woke: set[int] = set()
        self._inflight: dict[int, _Block] = {}
        self._pending_stall: dict[int, float] = {}
        self._stall_by_tid: dict[int, float] = {}
        self._counts: dict[str, float] = {}
        # -- slot-engine wiring (bound via bind()) ------------------------
        self.slots = None
        self._record_exec: Callable[..., None] | None = None
        self._set_finish: Callable[[int, float], None] | None = None

    # -- wiring ------------------------------------------------------------

    def bind(
        self,
        slots,
        record_exec: Callable[..., None],
        set_finish: Callable[[int, float], None],
    ) -> None:
        self.slots = slots
        self._record_exec = record_exec
        self._set_finish = set_finish

    @property
    def n_plan_events(self) -> int:
        return len(self.plan.events)

    def firings(self, start_time: float) -> list[tuple[float, Callable]]:
        """The plan's firings as ``(time, action)``, in firing order.

        Windows that ended before ``start_time`` are dropped; firings in
        the past are clamped to ``start_time``. The firings take the
        first seqs, in plan order, so at equal times a fault fires
        before any thread slot and plan order breaks ties between
        firings — the deterministic tie-break the invariants rely on.
        """
        clamp = lambda t: max(float(t), start_time)  # noqa: E731
        out: list[tuple[float, Callable]] = []
        for ev in self.plan.events:
            if isinstance(ev, ThrottleEvent):
                if ev.t1 <= start_time:
                    continue
                out.append((clamp(ev.t0), partial(self._fire_throttle_begin, ev)))
                out.append((clamp(ev.t1), partial(self._fire_throttle_end, ev)))
            elif isinstance(ev, CoreOfflineEvent):
                out.append((clamp(ev.t), partial(self._fire_offline, ev)))
            elif isinstance(ev, CoreOnlineEvent):
                out.append((clamp(ev.t), partial(self._fire_online, ev)))
            elif isinstance(ev, WorkerStallEvent):
                out.append((clamp(ev.t), partial(self._fire_stall, ev)))
            elif isinstance(ev, OverheadSpikeEvent):
                if ev.t1 <= start_time:
                    continue
                out.append((clamp(ev.t0), partial(self._fire_spike_begin, ev)))
                out.append((clamp(ev.t1), partial(self._fire_spike_end, ev)))
        out.sort(key=itemgetter(0))  # stable: seq order within an instant
        return out

    # -- slot-engine-facing API -------------------------------------------

    def slot_fired(self, tid: int) -> bool:
        """``tid``'s slot fired at ``slots.now``; True = dispatch now.

        A thread with a block in flight holds that block's completion
        in its slot, which is handled here; otherwise the slot is a
        wake or redispatch, which a parked worker ignores.
        """
        block = self._inflight.get(tid)
        if block is not None:
            self._complete(block)
            return False
        self._woke.add(tid)
        return tid not in self._parked

    def worker_retired(self, tid: int) -> None:
        self._retired.add(tid)

    def adjust_overhead(self, tid: int, now: float, overhead_dt: float) -> float:
        """Apply active overhead spikes and consume any pending stall."""
        if self._active_spikes:
            m = 1.0
            for f in self._active_spikes:
                m *= f
            overhead_dt *= m
        stall = self._pending_stall.pop(tid, None)
        if stall:
            overhead_dt += stall
            self._count("fault_stall_seconds_total", stall)
            self._stall_by_tid[tid] = self._stall_by_tid.get(tid, 0.0) + stall
            if self._srec is not None:
                self._srec.record_fault(
                    "stall", now, now + stall, tid=tid, seconds=stall
                )
            if self.dec.on:
                self.dec.emit(tid, now, "stall_applied", seconds=stall)
        return overhead_dt

    def stall_seconds_of(self, tid: int) -> float:
        """Stall seconds folded into ``tid``'s dispatch overhead so far
        (cost attribution subtracts them back out of the overhead
        category)."""
        return self._stall_by_tid.get(tid, 0.0)

    def begin_block(
        self,
        tid: int,
        dispatch_t: float,
        compute_start: float,
        lo: int,
        hi: int,
        speed0: float,
    ) -> None:
        """Register a dispatched chunk and schedule its completion.

        ``speed0`` is the worker's unthrottled execution rate in work
        units per second (platform rate divided by locality slowdown).
        """
        mult = self._mult.get(self._cpu_of[tid], 1.0)
        total = float(self.prefix[hi] - self.prefix[lo])
        block = _Block(tid, lo, hi, dispatch_t, compute_start, total,
                       speed0, mult)
        t_done = compute_start + (total / (speed0 * mult) if total > 0 else 0.0)
        self.slots.push(tid, t_done)
        self._inflight[tid] = block

    def publish(self) -> None:
        """Fold the run's fault counters into the metrics registry."""
        if self._srec is not None:
            self._close_open_spans(self.slots.now)
        if not getattr(self._obs, "enabled", False):
            return
        reg = self._obs.registry
        for name, value in sorted(self._counts.items()):
            if "@" in name:
                base, kind = name.split("@", 1)
                reg.counter(base, loop=self._loop_name, kind=kind).inc(value)
            else:
                reg.counter(name, loop=self._loop_name).inc(value)

    # -- internals ---------------------------------------------------------

    def _count(self, name: str, value: float = 1.0) -> None:
        self._counts[name] = self._counts.get(name, 0.0) + value

    def _span_open(self, kind: str, key: tuple, t: float, **attrs) -> None:
        if self._srec is None:
            return
        self._srec.record_fault(kind, t, t, **attrs)
        self._open_spans[(kind,) + key] = self._srec.spans[-1]

    def _span_close(self, kind: str, key: tuple, t: float) -> None:
        span = self._open_spans.pop((kind,) + key, None)
        if span is not None:
            span.t1 = max(span.t0, t)

    def _close_open_spans(self, t: float) -> None:
        """Patch end times of windows still open when the loop finishes
        (e.g. a throttle lasting past the loop's horizon)."""
        for span in self._open_spans.values():
            span.t1 = max(span.t0, t)
        self._open_spans.clear()

    def _restart(self, tid: int, t: float) -> None:
        """Queue ``tid``'s redispatch at ``t``, behind the events already
        queued for that instant. A worker back online whose redispatch
        from before it parked has not fired yet keeps that one."""
        if not self.slots.active[tid]:
            self.slots.push(tid, t)

    def _completed_iters(self, block: _Block) -> int:
        """Whole iterations of ``block`` finished given ``work_done``."""
        if block.work_done <= 0.0:
            return 0
        target = (
            float(self.prefix[block.lo])
            + block.work_done
            + 1e-12 * max(1.0, block.work_done)
        )
        k = int(np.searchsorted(self.prefix, target, side="right")) - 1 - block.lo
        return max(0, min(k, block.hi - block.lo))

    def _accrue(self, block: _Block, t: float) -> None:
        """Integrate the current constant-rate segment up to ``t``."""
        if t > block.t_seg:
            block.work_done += (t - block.t_seg) * block.speed0 * block.mult
            block.t_seg = t

    def _complete(self, block: _Block) -> None:
        tid = block.tid
        self._inflight.pop(tid, None)
        now = self.slots.now
        self._record_exec(
            tid, block.dispatch_t, block.lo, block.hi, block.compute_start, now
        )
        # The redispatch is a separate event at this instant: it fires
        # after the events already queued for it.
        self._restart(tid, now)

    def _preempt(self, block: _Block, t: float, k: int, reason: str) -> None:
        """Cut ``block`` at iteration boundary ``k`` and reclaim the tail."""
        tid = block.tid
        self.slots.cancel(tid)
        del self._inflight[tid]
        # A preempt inside the overhead window (compute never started)
        # truncates the RUNTIME segment at the preempt time and records
        # zero compute; otherwise the chunk computed [compute_start, t].
        cs = min(block.compute_start, t)
        self._record_exec(
            tid, block.dispatch_t, block.lo, block.lo + k, cs, t,
        )
        requeue_lo = block.lo + k
        self._count("fault_preemptions_total")
        if self.dec.on:
            self.dec.emit(
                tid, t, "preempt",
                range=[block.lo, block.hi], completed=k, reason=reason,
            )
        if requeue_lo < block.hi:
            self._count(
                "fault_requeued_iterations_total", block.hi - requeue_lo
            )
            if self.dec.on:
                self.dec.emit(
                    tid, t, "requeue",
                    range=[requeue_lo, block.hi], reason=reason,
                )
            self.scheduler.reclaim(tid, requeue_lo, block.hi)

    # -- firings -----------------------------------------------------------

    def _fire_throttle_begin(self, ev: ThrottleEvent) -> None:
        t = self.slots.now
        self._count("fault_events_total@throttle")
        self._active_throttles.setdefault(ev.cpu, []).append(ev.factor)
        self._span_open(
            "throttle", (ev.cpu, ev.factor), t, cpu=ev.cpu, factor=ev.factor
        )
        if self.dec.on:
            self.dec.emit(-1, t, "throttle_begin", cpu=ev.cpu, factor=ev.factor)
        self._recompute_mult(ev.cpu, t)

    def _fire_throttle_end(self, ev: ThrottleEvent) -> None:
        t = self.slots.now
        active = self._active_throttles.get(ev.cpu, [])
        if ev.factor in active:
            active.remove(ev.factor)
        self._span_close("throttle", (ev.cpu, ev.factor), t)
        if self.dec.on:
            self.dec.emit(-1, t, "throttle_end", cpu=ev.cpu, factor=ev.factor)
        self._recompute_mult(ev.cpu, t)

    def _recompute_mult(self, cpu: int, t: float) -> None:
        new = 1.0
        for f in self._active_throttles.get(cpu, ()):
            new *= f
        old = self._mult.get(cpu, 1.0)
        if new == old:
            return
        self._mult[cpu] = new
        for tid in self._tids_on.get(cpu, ()):
            block = self._inflight.get(tid)
            if block is None:
                continue
            self._accrue(block, t)
            block.mult = new
            k = self._completed_iters(block)
            rem = (block.hi - block.lo) - k
            if new < old and k >= 1 and rem >= 1:
                # A slowed core sitting on a part-done chunk: keep the
                # finished prefix, hand the tail back, redispatch — the
                # policy resizes for the new speed.
                self._preempt(block, t, k, reason="throttle")
                self._restart(tid, t)
            else:
                # Re-timed: the completion takes a new seq, so it fires
                # after the events already queued for its instant.
                remaining = max(0.0, block.total_work - block.work_done)
                t_new = block.t_seg + remaining / (block.speed0 * new)
                self.slots.push(tid, t_new)
        dec_records = (
            getattr(self._obs.decisions, "records", None)
            if self._srec is not None
            else None
        )
        mark = len(dec_records) if dec_records is not None else 0
        self.scheduler.on_rates_changed(t, dict(self._mult))
        if dec_records is not None:
            # Any SF resample the rate change just triggered is causally
            # downstream of the fault window: materialize the edge.
            src = next(
                (
                    s.span_id
                    for s in reversed(self._srec.spans)
                    if s.cat == "fault"
                ),
                None,
            )
            loop_path = self._srec.current_loop
            if src is not None and loop_path is not None:
                for rec in dec_records[mark:]:
                    if rec.get("event") != "resample":
                        continue
                    tid = rec.get("tid", -1)
                    dst = (
                        f"{loop_path}/t{tid}" if tid is not None and tid >= 0
                        else loop_path
                    )
                    self._srec.edge(
                        src, dst, "fault_resample", float(rec.get("t", t))
                    )

    def _live_workers_excluding(self, cpu: int) -> list[int]:
        return [
            w for w in range(self._nt)
            if w not in self._retired
            and self._cpu_of[w] != cpu
            and self._cpu_of[w] not in self._offline
        ]

    def _fire_offline(self, ev: CoreOfflineEvent) -> None:
        t = self.slots.now
        self._count("fault_events_total@offline")
        if ev.cpu in self._offline:
            return
        tids = [w for w in self._tids_on.get(ev.cpu, ()) if w not in self._retired]
        if tids and not self._live_workers_excluding(ev.cpu):
            # Someone has to finish the loop: offlining the last live
            # worker is deferred (the event is dropped, not queued).
            self._count("fault_offline_deferred_total")
            if self.dec.on:
                for tid in tids:
                    self.dec.emit(tid, t, "offline_deferred", cpu=ev.cpu)
            return
        self._offline.add(ev.cpu)
        self._span_open("offline", (ev.cpu,), t, cpu=ev.cpu)
        for tid in tids:
            block = self._inflight.get(tid)
            if block is not None:
                self._accrue(block, t)
                self._preempt(block, t, self._completed_iters(block),
                              reason="offline")
            self._parked.add(tid)
            self._lost.add(tid)
            self._set_finish(tid, t)
            if self.dec.on:
                self.dec.emit(tid, t, "offline", cpu=ev.cpu)
            self.scheduler.on_worker_lost(tid, t)

    def _fire_online(self, ev: CoreOnlineEvent) -> None:
        t = self.slots.now
        self._count("fault_events_total@online")
        if ev.cpu not in self._offline:
            return
        self._offline.discard(ev.cpu)
        self._span_close("offline", (ev.cpu,), t)
        for tid in self._tids_on.get(ev.cpu, ()):
            if tid in self._retired or tid not in self._parked:
                continue
            self._parked.discard(tid)
            if self.dec.on:
                self.dec.emit(tid, t, "online", cpu=ev.cpu)
            if tid in self._lost:
                self._lost.discard(tid)
                self.scheduler.on_worker_back(tid, t)
            if tid in self._woke:
                self._restart(tid, t)
            # else: the worker's initial wake is still pending in its
            # slot and will start its dispatch loop (the core is back by
            # then).

    def _fire_stall(self, ev: WorkerStallEvent) -> None:
        t = self.slots.now
        self._count("fault_events_total@stall")
        if ev.tid >= self._nt:
            return
        self._pending_stall[ev.tid] = (
            self._pending_stall.get(ev.tid, 0.0) + ev.seconds
        )
        if self.dec.on:
            self.dec.emit(ev.tid, t, "stall_fired", seconds=ev.seconds)

    def _fire_spike_begin(self, ev: OverheadSpikeEvent) -> None:
        t = self.slots.now
        self._count("fault_events_total@spike")
        self._active_spikes.append(ev.factor)
        self._span_open("spike", (ev.factor,), t, factor=ev.factor)
        if self.dec.on:
            self.dec.emit(-1, t, "spike_begin", factor=ev.factor)

    def _fire_spike_end(self, ev: OverheadSpikeEvent) -> None:
        t = self.slots.now
        if ev.factor in self._active_spikes:
            self._active_spikes.remove(ev.factor)
        self._span_close("spike", (ev.factor,), t)
        if self.dec.on:
            self.dec.emit(-1, t, "spike_end", factor=ev.factor)
