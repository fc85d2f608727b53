"""The slot engine: every simulated loop, faulted or not.

Both simulated backends run :func:`slot_engine`; ``vectorized`` turns
its pool drain on, ``reference`` (:mod:`repro.backends.reference`) off.

* **Slots** — a thread never has more than one event pending (its wake,
  its block completion or its redispatch), so the event heap collapses
  to a per-thread ``(time, seq)`` slot (:class:`Slots`) and a linear
  min-scan. ``seq`` mirrors a heap's push counter, so ties break in
  push order and every scheduler sees the same ``(tid, now)`` call
  sequence whichever path runs it. Fault-free, a block's completion
  *is* its thread's next dispatch.
* **Faults** — a non-empty fault plan arms
  :class:`~repro.faults.engine.SimFaultEngine`. The plan's firings take
  the first seqs and join the min-scan ahead of every thread slot at
  their instant. A dispatch writes its block into ``Slots.blocks`` and
  the thread's slot holds the block's completion, which the fault
  engine's firings may re-time (piecewise, when a throttle boundary
  changes the core's rate) or cut. When the completion fires, the
  engine accounts the executed range and, unless another thread's
  event is queued for that instant, dispatches the thread in the same
  step: one event per chunk, as fault-free. A tie queues the
  redispatch as a second event behind it (:meth:`Slots.requeue_on_tie`).
  The fault engine is called per dispatch only while an overhead spike
  is active or a stall is pending.
* **Integrated pool drains** — when the scheduler declares a
  :class:`~repro.sched.base.PoolAdvancement` (a pure fixed-chunk pool
  drain, e.g. ``schedule(dynamic)``), the whole drain runs against
  per-thread chunk-duration tables computed in one numpy pass up front
  (cost prefix sums and the locality-ownership prefix sums integrate
  every chunk's compute time in closed form). The event loop then only
  chains additions of precomputed floats, folding consecutive chunks of
  one thread into a single slot update while their completions precede
  the earliest other pending event. Faulted runs and runs with a
  conformance recorder never take it: a fault can cut a chunk, and the
  recorder's ``on_take`` hooks must fire from the genuine work-share
  call sites.
* **One dispatch log** — the engine writes the shared dispatch log of
  :mod:`repro.backends.common` (one row per scheduler call; the drain
  one array after its loop: chunks in dispatch order, then the empty
  takes), and :func:`~repro.backends.common.publish_log` projects it
  onto the metrics registry, the span recorder and the trace recorder.

Float-exactness notes (load-bearing, do not "simplify"):

* A stepped dispatch computes ``overhead_dt = dispatch_cost + extra`` then
  ``overhead_dt += (begin - now) + takes * svc``. With ``extra == 0``
  and ``begin == now`` this collapses to ``fl(dc + svc)`` — the
  per-thread drain constant ``C``. ``fl(dc + svc) >= svc`` for
  ``dc >= 0``, hence a thread's overhead end never precedes its own
  pool-release time and every in-drain dispatch sees a free pool,
  keeping ``begin == now`` exact throughout.
* The drain is only entered when ``now >= pool_free`` so the first
  ``max(now, pool_free)`` is exactly ``now``; the rare busy case runs a
  scalar step that replays the stepped expression verbatim.
* Chunk compute times are ``fl(fl(slowdown * work) / rate)``; numpy
  float64 elementwise arithmetic performs the identical roundings, and
  the ownership warm fraction — a count of owned segments divided by a
  segment count — is computed from prefix sums whose integer values are
  exactly representable, so the division result is the identical float
  ``LoopOwnership.warm_fraction`` produces.
"""

from __future__ import annotations

import math

import numpy as np

from repro.backends.common import (
    LoopRunRequest,
    RunSetup,
    finish_run,
    prepare_run,
)
from repro.backends.core import ExecutionBackend
from repro.errors import SimulationError


class _FastSlowdown:
    """Per-run locality slowdowns from precomputed ownership prefix sums.

    ``LoopOwnership.warm_fraction`` counts owned segments with
    ``np.count_nonzero`` per call; over a prefix sum the count is one
    subtraction of exactly-represented integers, so the resulting
    division — and therefore the slowdown — is the identical float.
    """

    def __init__(self, locality, ownership, kernel) -> None:
        self.active = bool(
            locality.enabled
            and ownership is not None
            and ownership.invocations_seen > 0
        )
        if not self.active:
            return
        self.seg = ownership.segment_size
        owner = ownership.owner
        n_tids = int(owner.max()) + 1 if owner.size else 0
        self._cum = {
            t: np.concatenate(
                ([0.0], np.cumsum((owner == t).astype(np.float64)))
            )
            for t in range(max(n_tids, 0))
        }
        self._zeros = np.zeros(len(owner) + 1)
        reuse = kernel.memory_weight * (1.0 - 0.5 * kernel.mlp)
        self.penalty = locality.penalty
        self.reuse = reuse

    def scalar(self, tid: int, lo: int, hi: int) -> float:
        if not self.active or hi <= lo:
            return 1.0
        s0 = lo // self.seg
        s1 = (hi - 1) // self.seg + 1
        cum = self._cum.get(tid, self._zeros)
        warm = float(cum[s1] - cum[s0]) / (s1 - s0)
        cold = 1.0 - warm
        if cold <= 0.0:
            return 1.0
        return 1.0 + self.penalty * self.reuse * cold

    def batch(self, tid: int, los: np.ndarray, his: np.ndarray):
        """Slowdown array for uniform chunks, or ``None`` for all-1.0."""
        if not self.active or len(los) == 0:
            return None
        s0s = los // self.seg
        s1s = (his - 1) // self.seg + 1
        cum = self._cum.get(tid, self._zeros)
        warm = (cum[s1s] - cum[s0s]) / (s1s - s0s)
        cold = 1.0 - warm
        pr = self.penalty * self.reuse
        return np.where(cold <= 0.0, 1.0, 1.0 + pr * cold)


class VectorizedBackend(ExecutionBackend):
    """The slot engine with the pool drain on."""

    name = "vectorized"

    def run_scheduled(self, executor, req: LoopRunRequest):
        return slot_engine(executor, req, drain=True)


class Slots:
    """The pending events of one simulated loop, one slot per thread.

    A thread never has more than one event pending (its wake, its block
    completion or its redispatch), so the event heap collapses to three
    per-thread lists and a linear min-scan. ``seq`` mirrors a heap's
    push counter: the fault plan's firings take the first values, the
    wakes the next ones in tid order, and every push takes a new one (a
    cancel frees none). At one instant events fire in seq order, so a
    re-timed completion or a redispatch pushed at the current instant
    fires after every event already queued for it. ``now`` is the
    instant of the event being processed.

    Under a fault plan, ``blocks[tid]`` is ``None`` while ``tid``'s slot
    holds a wake or a redispatch, or nothing. While it holds a block's
    completion, it is that in-flight block, the tuple ``(dispatch_t, lo,
    hi, compute_start, speed0, mult, t_seg, work_done)``: ``speed0`` is
    the worker's unthrottled rate in work units per second (platform
    rate divided by locality slowdown) and ``mult`` its core's throttle
    multiplier; ``t_seg`` starts the current constant-rate segment and
    ``work_done`` holds the work integrated over all earlier segments.
    A dispatch writes it with ``t_seg = compute_start`` and
    ``work_done = 0.0``; the fault engine's firings replace it when they
    re-time the block and clear it when they cut it.
    """

    __slots__ = ("times", "seqs", "active", "seq", "now", "blocks")

    def __init__(self, wakes: list[float], first_seq: int) -> None:
        n = len(wakes)
        self.times = list(wakes)
        self.seqs = list(range(first_seq, first_seq + n))
        self.active = [True] * n
        self.seq = first_seq + n
        self.now = 0.0
        self.blocks: list[tuple | None] = [None] * n

    def push(self, tid: int, t: float) -> None:
        """Make ``tid``'s pending event fire at ``t``, under a new seq."""
        self.times[tid] = t
        self.seqs[tid] = self.seq
        self.seq += 1
        self.active[tid] = True

    def cancel(self, tid: int) -> None:
        self.active[tid] = False

    def requeue_on_tie(self, tid: int) -> bool:
        """``tid``'s block completed at ``now`` and its slot is free.

        If another thread's event is queued for this instant, the
        redispatch is a second event behind it: push it under a new seq
        and return True. Otherwise return False, and the caller
        dispatches ``tid`` in the same step — the redispatch would be
        the next event anyway, since firings win ties and so have all
        fired before any thread slot at their instant is taken.
        """
        now, times, active = self.now, self.times, self.active
        for t in range(len(times)):
            if active[t] and times[t] == now:
                self.push(tid, now)
                return True
        return False


def slot_engine(executor, req: LoopRunRequest, drain: bool):
    """Play out one loop on per-thread slots plus the fault plan's
    firings; ``drain`` allows the integrated pool drain."""
    from repro.runtime.executor import _EVENT_BUDGET_SLACK

    setup: RunSetup = prepare_run(executor, req)
    loop, check = req.loop, req.check
    nt = setup.nt
    prefix = setup.prefix
    rates = setup.rates
    core_types = setup.core_types
    pending_overhead = setup.pending_overhead
    ctx = setup.ctx
    scheduler = setup.scheduler
    overhead = executor.overhead

    svc = overhead.atomic_service
    dc = [overhead.dispatch(core_types[tid], nt) for tid in range(nt)]
    pool_free = setup.start_time

    finish = list(setup.entry)
    iters = [0] * nt
    calls = [0] * nt
    assigned: list[tuple[int, int, int]] = []
    slow = _FastSlowdown(executor.locality, req.ownership, loop.kernel)
    execs = setup.execs

    budget = (loop.n_iterations + nt * _EVENT_BUDGET_SLACK) * 2
    fault = None
    firings: list = []
    if req.faults is not None and not req.faults.is_empty:
        from repro.faults.engine import SimFaultEngine

        fault = SimFaultEngine(
            plan=req.faults,
            scheduler=scheduler,
            prefix=prefix,
            cpu_of_tid=[executor.team.cpu_of(t) for t in range(nt)],
            loop_name=loop.name,
            obs=executor.obs,
            check=check,
        )
        firings = fault.firings(setup.start_time)

        def record_exec(tid, dispatch_t, lo, hi, t0, t1):
            if execs is not None:
                execs.append(
                    (tid, dispatch_t, t0, t1, lo, hi, max(0.0, t1 - t0))
                )
            if hi > lo:
                if check is not None:
                    check.on_dispatch(tid, dispatch_t, (lo, hi))
                assigned.append((tid, lo, hi))
                iters[tid] += hi - lo

        # A block completion and its redispatch count as two events,
        # even when one step runs both, and every fault boundary can
        # preempt (and thus redispatch) up to one chunk per thread.
        budget = (2 * loop.n_iterations + nt * _EVENT_BUDGET_SLACK) * 2
        budget += (nt + 2) * (fault.n_plan_events + 2) * 4
    slots = Slots(setup.wake_begin, len(firings))
    if fault is not None:
        fault.bind(slots, record_exec, finish.__setitem__)

    # The integrated pool drain: legal only when the scheduler declares
    # a pure fixed-chunk drain, no conformance recorder needs the real
    # work-share call sites and no fault can cut a chunk. The drain then
    # owns the slots, and a local copy of their seq counter, to the end
    # of the run.
    adv = (
        scheduler.advancement()
        if drain and check is None and fault is None
        else None
    )
    if adv is not None:
        out = _drain_engine(
            req, setup, slow, adv.chunk, dc, svc, pool_free,
            slots.times, slots.seqs, slots.active, nt, slots.seq,
            finish, calls, budget,
        )
        iters, assigned, dispatches, attempts, empty_takes = out
        return finish_run(
            executor, req, setup,
            finish=finish, iters=iters, calls=calls, assigned=assigned,
            dispatches=dispatches, attempts=attempts,
            empty_takes=empty_takes,
        )

    times, seqs, active = slots.times, slots.seqs, slots.active
    if fault is not None:
        blocks = slots.blocks
        parked = fault.parked
        tid_mult = fault.tid_mult
        spikes, stalls = fault.active_spikes, fault.pending_stall
        cost = prefix.tolist()
    n_fire = len(firings)
    fi = 0
    fire_t = firings[0][0] if firings else math.inf
    events = 0
    log = setup.log
    # Cached work-share internals: the engine single-steps events, so
    # the advisory-read counter collapses to a plain attribute read
    # (see WorkShare.dispatch_count).
    ws = ctx.workshare
    ws_disp = ws._dispatches
    next_range = scheduler.next_range
    while True:
        best = -1
        bt = 0.0
        bs = 0
        for t in range(nt):
            if active[t]:
                ti = times[t]
                if best < 0 or ti < bt or (ti == bt and seqs[t] < bs):
                    best, bt, bs = t, ti, seqs[t]
        if best < 0 and fi == n_fire:
            break
        events += 1
        if events > budget:
            raise SimulationError(
                f"simulation exceeded {budget} events; "
                "likely a livelocked scheduler"
            )
        if fault is not None:
            if best < 0 or fire_t <= bt:
                # A plan firing: its seq precedes every thread slot's.
                slots.now = fire_t
                firings[fi][1]()
                fi += 1
                fire_t = firings[fi][0] if fi < n_fire else math.inf
                continue
            slots.now = bt
            active[best] = False
            block = blocks[best]
            if block is not None:
                # The block's completion: account the executed range,
                # then redispatch in this same step unless another
                # thread's event is queued for this instant (the C-level
                # count is the cheap pre-check).
                blocks[best] = None
                record_exec(best, block[0], block[1], block[2], block[3], bt)
                if times.count(bt) > 1 and slots.requeue_on_tie(best):
                    continue
                events += 1
                if events > budget:
                    raise SimulationError(
                        f"simulation exceeded {budget} events; "
                        "likely a livelocked scheduler"
                    )
            elif best in parked:
                # A wake or redispatch of a worker whose core is offline.
                continue
        tid = best
        now = bt

        takes_before = ws_disp._value
        got = next_range(tid, now)
        calls[tid] += 1
        if check is not None and fault is None:
            check.on_dispatch(tid, now, got)
        extra = pending_overhead[tid]
        pending_overhead[tid] = 0.0
        overhead_dt = dc[tid] + extra
        if svc > 0.0:
            # The work-share cache line is a serialization point: each
            # genuine pool access (a removal, or the final fetch-and-add
            # that finds the pool empty) occupies it for atomic_service
            # seconds, and a thread arriving while it is busy queues
            # behind it. Thread-local ranges (AID-steal) never queue.
            takes = ws_disp._value - takes_before
            if got is None:
                takes += 1
            if takes > 0:
                begin = max(now, pool_free)
                pool_free = begin + takes * svc
                overhead_dt += (begin - now) + takes * svc
        if fault is not None:
            # A fault may cut or delay the chunk, so its accounting
            # (conformance record, executed range, iteration counts,
            # execution row) waits for its completion or preemption.
            if spikes or stalls:
                overhead_dt = fault.adjust_overhead(tid, now, overhead_dt)
            lo, hi = got if got is not None else (-1, 0)
            if log is not None:
                log.append((tid, now, overhead_dt, lo, hi, 0.0))
            end = now + overhead_dt
            if got is None:
                finish[tid] = end
                if execs is not None:
                    execs.append((tid, now, end, end, -1, 0, 0.0))
                if check is not None:
                    check.on_dispatch(tid, now, None)
                fault.worker_retired(tid)
                continue
            scheduler.note_execution_start(tid, end)
            # The in-flight block (see Slots) and its completion, at the
            # core's current throttle multiplier.
            speed0 = rates[tid] / slow.scalar(tid, lo, hi)
            mult = tid_mult[tid]
            total = cost[hi] - cost[lo]
            blocks[tid] = (now, lo, hi, end, speed0, mult, end, 0.0)
            times[tid] = end + (total / (speed0 * mult) if total > 0 else 0.0)
            seqs[tid] = slots.seq
            slots.seq += 1
            active[tid] = True
            continue
        if got is None:
            finish[tid] = now + overhead_dt
            active[tid] = False
            if log is not None:
                log.append((tid, now, overhead_dt, -1, 0, 0.0))
            continue
        # Fault-free, the block's completion *is* the thread's next
        # dispatch: one event per chunk.
        lo, hi = got
        assigned.append((tid, lo, hi))
        scheduler.note_execution_start(tid, now + overhead_dt)
        work = float(prefix[hi] - prefix[lo])
        sdn = slow.scalar(tid, lo, hi)
        compute_dt = sdn * work / rates[tid]
        iters[tid] += hi - lo
        t_done = (now + overhead_dt) + compute_dt
        if log is not None:
            log.append((tid, now, overhead_dt, lo, hi, compute_dt))
        # Slots.push inlined: the slot is already active, and its seq
        # comes from the one counter every push draws from.
        times[tid] = t_done
        seqs[tid] = slots.seq
        slots.seq += 1

    return finish_run(
        executor, req, setup,
        finish=finish,
        iters=iters,
        calls=calls,
        assigned=assigned,
        dispatches=ws.dispatch_count,
        attempts=ws.attempt_count,
        empty_takes=ws.empty_take_count,
        engine=fault,
    )


def _drain_engine(
    req, setup, slow, c, dc, svc, pool_free,
    times, seqs, active, live, seq_counter, finish, calls, budget,
):
    """Integrated fixed-chunk pool drain (PoolAdvancement fast path).

    The work-share's fetch-and-add hands out chunk ``j`` to the ``j``-th
    successful dispatch, whoever makes it — so the drain's entire
    outcome is the *sequence of dispatching tids*. Everything else
    (chunk bounds, compute times, overheads, completion times) is a pure
    function of ``(tid, j, dispatch time)`` and is reconstructed
    vectorially after the loop. The loop itself only chains additions of
    floats precomputed in one numpy pass, recording ``(tid, time)``
    per dispatch; when a sink listens, the reconstruction becomes the
    run's dispatch log, one array: chunks in dispatch order, then the
    empty takes.
    """
    loop = req.loop
    prefix = setup.prefix
    rates = setup.rates
    nt = setup.nt
    N = loop.n_iterations
    n_chunks = (N + c - 1) // c

    # Per-chunk work and per-tid chunk durations, one numpy pass.
    # cds[t][j] is exactly the stepped fl(fl(slowdown*work)/rate)
    # for thread t executing chunk j.
    los_all = c * np.arange(n_chunks)
    his_all = np.minimum(los_all + c, N)
    works_all = prefix[his_all] - prefix[los_all]
    cds_rows = []
    for t in range(nt):
        sdns = slow.batch(t, los_all, his_all)
        if sdns is None:
            cds_rows.append(works_all / rates[t])
        else:
            cds_rows.append(sdns * works_all / rates[t])
    cds_list = [row.tolist() for row in cds_rows]
    # Per-thread drain constant: overhead_dt collapses to fl(dc + svc)
    # when the pool is free at dispatch (see module docstring).
    C_of = [(dc[t] + svc) if svc > 0.0 else (dc[t] + 0.0) for t in range(nt)]

    # Dispatch times, one per dispatch; the owning tid is recorded per
    # *fold turn* as (tid, count) and expanded with np.repeat afterwards.
    # Preallocated: dispatch j consumes chunk j, so both are bounded by
    # n_chunks, and item assignment keeps the hot loop free of any
    # Python call.
    disp_nows: list[float] = [0.0] * n_chunks
    turn_tids: list[int] = [0] * n_chunks
    turn_runs: list[int] = [0] * n_chunks
    n_turns = 0
    #: dispatch index -> overhead_dt for the rare pool-busy dispatches
    #: whose overhead differs from C.
    overrides: dict[int, float] = {}
    #: One (tid, now, overhead_dt) per empty take.
    empties: list[tuple[int, float, float]] = []

    nxc = 0
    events = 0
    inf = math.inf

    while live:
        # Fused scan: the earliest pending slot (FIFO tie-break on seq)
        # plus the earliest *other* pending time (the fold limit T2) in
        # one pass.
        best = -1
        bt = 0.0
        bs = 0
        t2 = inf
        for t in range(nt):
            if active[t]:
                ti = times[t]
                if best < 0:
                    best, bt, bs = t, ti, seqs[t]
                elif ti < bt or (ti == bt and seqs[t] < bs):
                    t2 = bt
                    best, bt, bs = t, ti, seqs[t]
                elif ti < t2:
                    t2 = ti
        tid = best
        now = bt
        events += 1
        if events > budget:
            raise SimulationError(
                f"simulation exceeded {budget} events; "
                "likely a livelocked scheduler"
            )

        if nxc >= n_chunks:
            # Empty take: the final fetch-and-add still occupies the
            # pool line for one service period.
            calls[tid] += 1
            overhead_dt = dc[tid] + 0.0
            if svc > 0.0:
                begin = max(now, pool_free)
                pool_free = begin + svc
                overhead_dt = overhead_dt + ((begin - now) + svc)
            finish[tid] = now + overhead_dt
            active[tid] = False
            live -= 1
            empties.append((tid, now, overhead_dt))
            continue

        cds_t = cds_list[tid]
        if svc > 0.0 and now < pool_free:
            # Pool line busy at dispatch time: replay the stepped
            # expression verbatim for one chunk (rounding of the
            # queueing delay makes the drain constant invalid here).
            j = nxc
            nxc += 1
            calls[tid] += 1
            overhead_dt = dc[tid] + 0.0
            begin = pool_free
            pool_free = begin + svc
            overhead_dt = overhead_dt + ((begin - now) + svc)
            t_done = (now + overhead_dt) + cds_t[j]
            turn_tids[n_turns] = tid
            turn_runs[n_turns] = 1
            n_turns += 1
            disp_nows[j] = now
            overrides[j] = overhead_dt
            times[tid] = t_done
            seqs[tid] = seq_counter
            seq_counter += 1
            continue

        # Free pool: fold consecutive chunks of this thread into one
        # slot update while each completion strictly precedes the
        # earliest other pending event (on a tie the earlier-pushed
        # event fires first, so the fold must stop).
        T2 = t2
        Ct = C_of[tid]
        j0 = nxc
        d = now
        while True:
            t_done = (d + Ct) + cds_t[nxc]
            disp_nows[nxc] = d
            nxc += 1
            if t_done >= T2 or nxc >= n_chunks:
                break
            d = t_done
        k = nxc - j0
        turn_tids[n_turns] = tid
        turn_runs[n_turns] = k
        n_turns += 1
        calls[tid] += k
        events += k - 1
        if svc > 0.0:
            pool_free = d + svc
        times[tid] = t_done
        seqs[tid] = seq_counter
        seq_counter += 1

    # -- vectorized reconstruction -----------------------------------------
    n_disp = nxc
    del disp_nows[n_disp:]
    dispatches = n_disp
    empty_takes = len(empties)
    attempts = n_disp + empty_takes

    j_arr = np.arange(n_disp)
    los = c * j_arr
    his = np.minimum(los + c, N)
    sizes = his - los
    tids_arr = np.repeat(
        np.asarray(turn_tids[:n_turns], dtype=np.int64),
        np.asarray(turn_runs[:n_turns], dtype=np.int64),
    )
    per_tid_iters = np.bincount(tids_arr, weights=sizes, minlength=nt)
    iters = [int(x) for x in per_tid_iters]
    assigned = list(zip(tids_arr.tolist(), los.tolist(), his.tolist()))

    if setup.log is not None:
        ovh_arr = np.asarray(C_of)[tids_arr]
        for j, o in overrides.items():
            ovh_arr[j] = o
        chunks = np.column_stack((
            tids_arr, disp_nows, ovh_arr, los, his,
            np.vstack(cds_rows)[tids_arr, j_arr] if n_disp else np.zeros(0),
        ))
        e = np.asarray(empties, dtype=float).reshape(-1, 3)
        zeros = np.zeros(len(e))
        setup.log = np.concatenate((
            chunks, np.column_stack((e, zeros - 1.0, zeros, zeros)),
        ))

    return iters, assigned, dispatches, attempts, empty_takes
