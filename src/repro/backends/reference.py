"""The reference backend: the original discrete-event simulation.

One simulator event per dispatch, exactly the engine
:meth:`repro.runtime.executor.LoopExecutor.run` historically inlined.
This is the semantic ground truth: every other backend's decision logs
and :class:`~repro.runtime.executor.LoopResult` fields are gated against
it by the conformance oracle and the differential backend fuzzer
(``python -m repro.check backends``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.backends.common import LoopRunRequest, finish_run, prepare_run
from repro.backends.core import ExecutionBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.executor import LoopExecutor, LoopResult


class ReferenceBackend(ExecutionBackend):
    """Event-driven execution, one event per scheduler dispatch."""

    name = "reference"

    def run_scheduled(
        self, executor: "LoopExecutor", req: LoopRunRequest
    ) -> "LoopResult":
        from repro.runtime.executor import _EVENT_BUDGET_SLACK
        from repro.sim.clock import VirtualClock
        from repro.sim.events import Simulator

        setup = prepare_run(executor, req)
        loop, check = req.loop, req.check
        nt = setup.nt
        start_time = setup.start_time
        prefix = setup.prefix
        rates = setup.rates
        core_types = setup.core_types
        pending_overhead = setup.pending_overhead
        ctx = setup.ctx
        scheduler = setup.scheduler
        ownership = req.ownership

        sim = Simulator(VirtualClock(start_time))
        engine = None
        if req.faults is not None and not req.faults.is_empty:
            from repro.faults.engine import SimFaultEngine

            engine = SimFaultEngine(
                plan=req.faults,
                sim=sim,
                scheduler=scheduler,
                prefix=prefix,
                cpu_of_tid=[executor.team.cpu_of(t) for t in range(nt)],
                loop_name=loop.name,
                obs=executor.obs,
                check=check,
            )
        finish = list(setup.entry)
        iters = [0] * nt
        calls = [0] * nt
        # The work-share cache line is a serialization point: each
        # fetch-and-add occupies it for atomic_service seconds, and a
        # thread arriving while it is busy queues behind it.
        pool_free_at = [start_time]
        svc = executor.overhead.atomic_service
        assigned: list[tuple[int, int, int]] = []
        # The dispatch log (None when no sink listens): one row per
        # scheduler call, projected onto every sink by finish_run.
        log = setup.log
        execs = setup.execs
        locality = executor.locality
        overhead = executor.overhead

        def thread_step(tid: int) -> None:
            now = sim.now
            dispatch_cost = overhead.dispatch(core_types[tid], nt)
            takes_before = ctx.workshare.dispatch_count
            got = scheduler.next_range(tid, now)
            calls[tid] += 1
            if check is not None:
                check.on_dispatch(tid, now, got)
            extra = pending_overhead[tid]
            pending_overhead[tid] = 0.0
            overhead_dt = dispatch_cost + extra
            if svc > 0.0:
                # Serialize only genuine pool accesses: successful
                # removals, plus the final fetch-and-add that finds the
                # pool empty. Policies serving thread-local ranges (e.g.
                # AID-steal) never queue on the work-share line.
                takes = ctx.workshare.dispatch_count - takes_before
                if got is None:
                    takes += 1
                if takes > 0:
                    begin = max(now, pool_free_at[0])
                    pool_free_at[0] = begin + takes * svc
                    overhead_dt += (begin - now) + takes * svc
            if got is None:
                finish[tid] = now + overhead_dt
                if log is not None:
                    log.append(
                        (tid, now, overhead_dt, ctx.workshare.remaining,
                         -1, 0, 0.0)
                    )
                return
            lo, hi = got
            assigned.append((tid, lo, hi))
            scheduler.note_execution_start(tid, now + overhead_dt)
            work = float(prefix[hi] - prefix[lo])
            slowdown = locality.slowdown(loop.kernel, ownership, tid, lo, hi)
            compute_dt = slowdown * work / rates[tid]
            iters[tid] += hi - lo
            if log is not None:
                log.append(
                    (tid, now, overhead_dt, ctx.workshare.remaining,
                     lo, hi, compute_dt)
                )
            t_done = (now + overhead_dt) + compute_dt
            sim.at(t_done, lambda: thread_step(tid), tag=f"t{tid}")

        # Fault-aware variant of thread_step, used only when a non-empty
        # FaultPlan is injected. Per-chunk accounting (conformance
        # dispatch record, executed range, iteration counters, execution
        # row) is deferred to block completion or preemption, because a
        # fault may truncate the chunk; the record keeps the *original*
        # dispatch timestamp so per-thread clock monotonicity is
        # preserved. The fault-free path above is left untouched so an
        # absent plan stays byte-identical.
        def thread_step_faulted(tid: int) -> None:
            now = sim.now
            engine.on_wake(tid)
            if engine.is_parked(tid):
                return
            dispatch_cost = overhead.dispatch(core_types[tid], nt)
            takes_before = ctx.workshare.dispatch_count
            got = scheduler.next_range(tid, now)
            calls[tid] += 1
            extra = pending_overhead[tid]
            pending_overhead[tid] = 0.0
            overhead_dt = dispatch_cost + extra
            if svc > 0.0:
                takes = ctx.workshare.dispatch_count - takes_before
                if got is None:
                    takes += 1
                if takes > 0:
                    begin = max(now, pool_free_at[0])
                    pool_free_at[0] = begin + takes * svc
                    overhead_dt += (begin - now) + takes * svc
            overhead_dt = engine.adjust_overhead(tid, now, overhead_dt)
            lo, hi = got if got is not None else (-1, 0)
            if log is not None:
                log.append(
                    (tid, now, overhead_dt, ctx.workshare.remaining,
                     lo, hi, 0.0)
                )
            if got is None:
                end = now + overhead_dt
                finish[tid] = end
                if execs is not None:
                    execs.append((tid, now, end, end, -1, 0, 0.0))
                if check is not None:
                    check.on_dispatch(tid, now, None)
                engine.worker_retired(tid)
                return
            t_overhead_end = now + overhead_dt
            scheduler.note_execution_start(tid, t_overhead_end)
            slowdown = locality.slowdown(loop.kernel, ownership, tid, lo, hi)
            engine.begin_block(
                tid,
                dispatch_t=now,
                compute_start=t_overhead_end,
                lo=lo,
                hi=hi,
                speed0=rates[tid] / slowdown,
            )

        if engine is not None:

            def _fault_restart(tid: int, t: float) -> None:
                sim.at(
                    t,
                    (lambda w: lambda: thread_step_faulted(w))(tid),
                    tag=f"t{tid}",
                )

            def _fault_record_exec(
                tid: int, dispatch_t: float, lo: int, hi: int,
                t0: float, t1: float,
            ) -> None:
                if execs is not None:
                    execs.append(
                        (tid, dispatch_t, t0, t1, lo, hi, max(0.0, t1 - t0))
                    )
                if hi > lo:
                    if check is not None:
                        check.on_dispatch(tid, dispatch_t, (lo, hi))
                    assigned.append((tid, lo, hi))
                    iters[tid] += hi - lo

            def _fault_set_finish(tid: int, t: float) -> None:
                finish[tid] = t

            engine.bind(_fault_restart, _fault_record_exec, _fault_set_finish)
            # Plan firings are scheduled before the worker wake events so
            # that at equal times the fault fires first (lower seq) —
            # deterministic tie-breaking, per the sim's FIFO contract.
            engine.schedule(start_time)

        step = thread_step if engine is None else thread_step_faulted

        # Every thread pays the loop-start call, then begins dispatching.
        # The barrier release wakes cores in CPU-number order, so threads
        # on low-numbered (small) cores reach the pool slightly earlier —
        # harmless for most schedules, decisive for guided's large early
        # chunks.
        for tid in range(nt):
            t_begin = setup.wake_begin[tid]
            sim.at(t_begin, (lambda t: lambda: step(t))(tid), tag=f"t{tid}")

        budget = (loop.n_iterations + nt * _EVENT_BUDGET_SLACK) * 2
        if engine is not None:
            # The fault path schedules a separate restart event after
            # each completed block, and every fault boundary can preempt
            # (and thus re-dispatch) up to one chunk per thread.
            budget = (2 * loop.n_iterations + nt * _EVENT_BUDGET_SLACK) * 2
            budget += (nt + 2) * (engine.n_plan_events + 2) * 4
        sim.run(max_events=budget)

        return finish_run(
            executor, req, setup,
            finish=finish,
            iters=iters,
            calls=calls,
            assigned=assigned,
            dispatches=ctx.workshare.dispatch_count,
            attempts=ctx.workshare.attempt_count,
            empty_takes=ctx.workshare.empty_take_count,
            engine=engine,
        )
