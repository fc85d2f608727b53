"""The vectorized backend: numpy closed-form batches, identical logs.

The reference engine spends its time in two places: the event heap and
per-dispatch Python closures. This backend removes both while
reproducing the reference semantics *bit for bit*:

* **Slot engine** — fault-free runs have exactly one outstanding event
  per thread, so the heap collapses to a per-thread ``(time, seq)`` slot
  and a linear min-scan. The seq counter mirrors the simulator's push
  counter, so FIFO tie-breaking is preserved and every scheduler sees
  the same ``(tid, now)`` call sequence in the same order — decision
  logs are byte-identical by construction, for every policy.
* **Integrated pool drains** — when the scheduler declares a
  :class:`~repro.sched.base.PoolAdvancement` (a pure fixed-chunk pool
  drain, e.g. ``schedule(dynamic)``), the whole drain runs against
  per-thread chunk-duration tables computed in one numpy pass up front
  (cost prefix sums and the locality-ownership prefix sums integrate
  every chunk's compute time in closed form). The event loop then only
  chains additions of precomputed floats, folding consecutive chunks of
  one thread into a single slot update while their completions precede
  the earliest other pending event.
* **One dispatch log** — both engines write the shared dispatch log of
  :mod:`repro.backends.common` (the generic engine one row per event,
  the drain one array after its loop: chunks in dispatch order, then
  the empty takes), and :func:`~repro.backends.common.publish_log`
  projects it onto the metrics registry, the span recorder and the
  trace recorder exactly as it does for the reference engine.

Whatever the engine cannot reproduce exactly it does not approximate:
runs with a non-empty fault plan are delegated to the reference backend
wholesale (the sim fault engine already integrates piecewise fault-rate
segments in closed form), and a conformance recorder forces the slot
engine onto the real work-share structure so ``on_take`` hooks fire
from the genuine call sites.

Float-exactness notes (load-bearing, do not "simplify"):

* The reference computes ``overhead_dt = dispatch_cost + extra`` then
  ``overhead_dt += (begin - now) + takes * svc``. With ``extra == 0``
  and ``begin == now`` this collapses to ``fl(dc + svc)`` — the
  per-thread drain constant ``C``. ``fl(dc + svc) >= svc`` for
  ``dc >= 0``, hence a thread's overhead end never precedes its own
  pool-release time and every in-drain dispatch sees a free pool,
  keeping ``begin == now`` exact throughout.
* The drain is only entered when ``now >= pool_free`` so the first
  ``max(now, pool_free)`` is exactly ``now``; the rare busy case runs a
  scalar step that replays the reference expression verbatim.
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
from repro.backends.reference import ReferenceBackend
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
    """Slot/drain engine; faulted runs are delegated to reference."""

    name = "vectorized"

    def __init__(self) -> None:
        self._reference = ReferenceBackend()

    def run_scheduled(self, executor, req: LoopRunRequest):
        if req.faults is not None and not req.faults.is_empty:
            if executor.obs.enabled:
                executor.obs.registry.counter(
                    "backend_fallbacks_total", backend=self.name,
                    reason="faults",
                ).inc()
            return self._reference.run_scheduled(executor, req)
        return _slot_engine(executor, req)


def _slot_engine(executor, req: LoopRunRequest):
    """One outstanding event per thread; heap replaced by a min-scan."""
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

    # Per-thread event slots: the simulator's heap degenerates to one
    # (time, seq) pair per thread. seq mirrors the push counter, so FIFO
    # tie-breaking matches the reference: wakes are pushed in tid order,
    # every completion re-push takes the next global value.
    times = list(setup.wake_begin)
    seqs = list(range(nt))
    active = [True] * nt
    live = nt
    seq_counter = nt

    # The integrated pool drain: legal only when the scheduler declares
    # a pure fixed-chunk drain AND no conformance recorder needs the
    # real work-share call sites.
    adv = scheduler.advancement() if check is None else None

    budget = (loop.n_iterations + nt * _EVENT_BUDGET_SLACK) * 2
    events = 0

    if adv is not None:
        out = _drain_engine(
            req, setup, slow, adv.chunk, dc, svc, pool_free,
            times, seqs, active, live, seq_counter, finish, calls, budget,
        )
        iters, assigned, dispatches, attempts, empty_takes = out
    else:
        log = setup.log
        # Cached work-share internals: the simulator single-steps events,
        # so the advisory-read counter collapses to a plain attribute
        # read (see WorkShare.dispatch_count).
        ws = ctx.workshare
        ws_disp = ws._dispatches
        next_range = scheduler.next_range
        # Generic engine: real scheduler, real work-share, one scalar
        # step per event — the reference step function verbatim, minus
        # the heap.
        while live:
            best = -1
            bt = 0.0
            bs = 0
            for t in range(nt):
                if active[t]:
                    ti = times[t]
                    if best < 0 or ti < bt or (ti == bt and seqs[t] < bs):
                        best, bt, bs = t, ti, seqs[t]
            tid = best
            now = bt
            events += 1
            if events > budget:
                raise SimulationError(
                    f"simulation exceeded {budget} events; "
                    "likely a livelocked scheduler"
                )

            takes_before = ws_disp._value
            got = next_range(tid, now)
            calls[tid] += 1
            if check is not None:
                check.on_dispatch(tid, now, got)
            extra = pending_overhead[tid]
            pending_overhead[tid] = 0.0
            overhead_dt = dc[tid] + extra
            if svc > 0.0:
                takes = ws_disp._value - takes_before
                if got is None:
                    takes += 1
                if takes > 0:
                    begin = max(now, pool_free)
                    pool_free = begin + takes * svc
                    overhead_dt += (begin - now) + takes * svc
            if got is None:
                finish[tid] = now + overhead_dt
                active[tid] = False
                live -= 1
                if log is not None:
                    log.append(
                        (tid, now, overhead_dt, ws.remaining, -1, 0, 0.0)
                    )
                continue
            lo, hi = got
            assigned.append((tid, lo, hi))
            scheduler.note_execution_start(tid, now + overhead_dt)
            work = float(prefix[hi] - prefix[lo])
            sdn = slow.scalar(tid, lo, hi)
            compute_dt = sdn * work / rates[tid]
            iters[tid] += hi - lo
            t_done = (now + overhead_dt) + compute_dt
            if log is not None:
                log.append(
                    (tid, now, overhead_dt, ws.remaining, lo, hi, compute_dt)
                )
            times[tid] = t_done
            seqs[tid] = seq_counter
            seq_counter += 1
        dispatches = ws.dispatch_count
        attempts = ws.attempt_count
        empty_takes = ws.empty_take_count

    return finish_run(
        executor, req, setup,
        finish=finish,
        iters=iters,
        calls=calls,
        assigned=assigned,
        dispatches=dispatches,
        attempts=attempts,
        empty_takes=empty_takes,
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
    # cds[t][j] is exactly the reference's fl(fl(slowdown*work)/rate)
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
            # Pool line busy at dispatch time: replay the reference
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
            tids_arr, disp_nows, ovh_arr,
            np.maximum(N - c * (j_arr + 1), 0), los, his,
            np.vstack(cds_rows)[tids_arr, j_arr] if n_disp else np.zeros(0),
        ))
        e = np.asarray(empties, dtype=float).reshape(-1, 3)
        zeros = np.zeros(len(e))
        setup.log = np.concatenate((
            chunks,
            np.column_stack((e, zeros, zeros - 1.0, zeros, zeros)),
        ))

    return iters, assigned, dispatches, attempts, empty_takes
