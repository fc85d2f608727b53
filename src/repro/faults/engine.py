"""Simulator-side fault injection: time-varying core speed, offlining,
stalls and overhead spikes, driven through the slot engine.

The engine sits inside the slot engine of
:mod:`repro.backends.vectorized`. When a loop is handed a non-empty
:class:`~repro.faults.model.FaultPlan`, the plan's boundaries become
firings the slot engine's min-scan orders ahead of every thread slot at
the same instant (:meth:`SimFaultEngine.firings`). The slot engine
itself writes each dispatched block into ``Slots.blocks`` (its layout
is documented on :class:`~repro.backends.vectorized.Slots`), holds its
completion in the thread's slot and accounts it when it fires; this
engine handles only what fires rarely.
Its firings read and edit that in-flight state: a throttle boundary
that changes the owning core's effective rate re-integrates the
block's cost piecewise,

    work_done += (t_boundary - t_segment_start) * rate * multiplier

so a chunk spanning N speed segments costs exactly the sum of its
per-segment integrals — the piecewise-rate generalization of the
executor's single ``work / rate`` division. Between firings the slot
engine calls in only to apply an active spike or a pending stall
(:meth:`SimFaultEngine.adjust_overhead`) and when a worker retires.

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

import math
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


class SimFaultEngine:
    """Applies one :class:`FaultPlan` to one simulated loop execution.

    The slot engine binds its
    :class:`~repro.backends.vectorized.Slots` and two callbacks after
    construction (:meth:`bind`), and reads four attributes, which are
    only ever mutated in place:

    * ``parked`` — the workers whose core is offline; a parked worker
      ignores its wake or redispatch;
    * ``tid_mult`` — each thread's current throttle multiplier, which a
      block dispatched now starts at;
    * ``active_spikes`` and ``pending_stall`` — while either is
      non-empty, every dispatch's overhead goes through
      :meth:`adjust_overhead`.
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
        self.tid_mult = [1.0] * self._nt
        self.active_spikes: list[float] = []
        self._offline: set[int] = set()
        self.parked: set[int] = set()
        self._lost: set[int] = set()
        self._retired: set[int] = set()
        self.pending_stall: dict[int, float] = {}
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
        """Wire in the run's slots (their ``blocks`` are the in-flight
        state the firings edit) and two callbacks: ``record_exec(tid,
        dispatch_t, lo, hi, t0, t1)`` is the one accounting path for an
        executed range (conformance dispatch record, executed-ranges
        list, iteration counters, the dispatch log's execution row), and
        ``set_finish(tid, t)`` updates a thread's finish time when it
        parks."""
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

    def worker_retired(self, tid: int) -> None:
        self._retired.add(tid)

    def adjust_overhead(self, tid: int, now: float, overhead_dt: float) -> float:
        """Apply active overhead spikes and consume any pending stall.

        The identity while ``active_spikes`` and ``pending_stall`` are
        both empty, so the slot engine skips the call then."""
        if self.active_spikes:
            m = 1.0
            for f in self.active_spikes:
                m *= f
            overhead_dt *= m
        stall = self.pending_stall.pop(tid, None)
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
        queued for that instant. A worker whose slot still holds an
        event — its first wake, or a redispatch from before it parked —
        keeps that one."""
        if self.slots.times[tid] == math.inf:
            self.slots.push(tid, t)

    def _completed_iters(self, lo: int, hi: int, work_done: float) -> int:
        """Whole iterations of block ``[lo, hi)`` finished given
        ``work_done``."""
        if work_done <= 0.0:
            return 0
        target = (
            float(self.prefix[lo]) + work_done + 1e-12 * max(1.0, work_done)
        )
        k = int(np.searchsorted(self.prefix, target, side="right")) - 1 - lo
        return max(0, min(k, hi - lo))

    @staticmethod
    def _accrue(block: tuple, t: float) -> tuple[float, float]:
        """``(t_seg, work_done)`` of ``block`` with its current
        constant-rate segment integrated up to ``t``."""
        _, _, _, _, speed0, mult, t_seg, work_done = block
        if t > t_seg:
            return t, work_done + (t - t_seg) * speed0 * mult
        return t_seg, work_done

    def _preempt(self, tid: int, t: float, k: int, reason: str) -> None:
        """Cut ``tid``'s in-flight block at iteration boundary ``k`` and
        reclaim the tail."""
        dispatch_t, lo, hi, compute_start = self.slots.blocks[tid][:4]
        self.slots.cancel(tid)
        self.slots.blocks[tid] = None
        # A preempt inside the overhead window (compute never started)
        # truncates the RUNTIME segment at the preempt time and records
        # zero compute; otherwise the chunk computed [compute_start, t].
        cs = min(compute_start, t)
        self._record_exec(tid, dispatch_t, lo, lo + k, cs, t)
        requeue_lo = lo + k
        self._count("fault_preemptions_total")
        if self.dec.on:
            self.dec.emit(
                tid, t, "preempt",
                range=[lo, hi], completed=k, reason=reason,
            )
        if requeue_lo < hi:
            self._count("fault_requeued_iterations_total", hi - requeue_lo)
            if self.dec.on:
                self.dec.emit(
                    tid, t, "requeue",
                    range=[requeue_lo, hi], reason=reason,
                )
            self.scheduler.reclaim(tid, requeue_lo, hi)

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
        blocks = self.slots.blocks
        for tid in self._tids_on.get(cpu, ()):
            self.tid_mult[tid] = new
            block = blocks[tid]
            if block is None:
                continue
            dispatch_t, lo, hi, cs, speed0 = block[:5]
            t_seg, work_done = self._accrue(block, t)
            k = self._completed_iters(lo, hi, work_done)
            rem = (hi - lo) - k
            if new < old and k >= 1 and rem >= 1:
                # A slowed core sitting on a part-done chunk: keep the
                # finished prefix, hand the tail back, redispatch — the
                # policy resizes for the new speed.
                self._preempt(tid, t, k, reason="throttle")
                self._restart(tid, t)
            else:
                # Re-timed: the completion takes a new seq, so it fires
                # after the events already queued for its instant.
                blocks[tid] = (
                    dispatch_t, lo, hi, cs, speed0, new, t_seg, work_done
                )
                total = float(self.prefix[hi] - self.prefix[lo])
                remaining = max(0.0, total - work_done)
                t_new = t_seg + remaining / (speed0 * new)
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
            block = self.slots.blocks[tid]
            if block is not None:
                _, work_done = self._accrue(block, t)
                k = self._completed_iters(block[1], block[2], work_done)
                self._preempt(tid, t, k, reason="offline")
            self.parked.add(tid)
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
            if tid in self._retired or tid not in self.parked:
                continue
            self.parked.discard(tid)
            if self.dec.on:
                self.dec.emit(tid, t, "online", cpu=ev.cpu)
            if tid in self._lost:
                self._lost.discard(tid)
                self.scheduler.on_worker_back(tid, t)
            # A worker whose first wake is still pending keeps it: it
            # starts the dispatch loop, and the core is back by then.
            self._restart(tid, t)

    def _fire_stall(self, ev: WorkerStallEvent) -> None:
        t = self.slots.now
        self._count("fault_events_total@stall")
        if ev.tid >= self._nt:
            return
        self.pending_stall[ev.tid] = (
            self.pending_stall.get(ev.tid, 0.0) + ev.seconds
        )
        if self.dec.on:
            self.dec.emit(ev.tid, t, "stall_fired", seconds=ev.seconds)

    def _fire_spike_begin(self, ev: OverheadSpikeEvent) -> None:
        t = self.slots.now
        self._count("fault_events_total@spike")
        self.active_spikes.append(ev.factor)
        self._span_open("spike", (ev.factor,), t, factor=ev.factor)
        if self.dec.on:
            self.dec.emit(-1, t, "spike_begin", factor=ev.factor)

    def _fire_spike_end(self, ev: OverheadSpikeEvent) -> None:
        t = self.slots.now
        if ev.factor in self.active_spikes:
            self.active_spikes.remove(ev.factor)
        self._span_close("spike", (ev.factor,), t)
        if self.dec.on:
            self.dec.emit(-1, t, "spike_end", factor=ev.factor)
