"""Shared request/setup plumbing for execution backends.

Every backend receives the same :class:`LoopRunRequest` (the arguments
of :meth:`repro.runtime.executor.LoopExecutor.run`, bundled) and the
slot engine both simulator backends run has this prologue and
epilogue:

* :func:`prepare_run` — validation, conformance hello, per-thread entry
  and wake times, the cost prefix sum, rates, the
  :class:`~repro.runtime.context.LoopContext` and the scheduler
  instance. Everything here is independent of the pool drain, so the
  two simulator backends cannot drift apart on setup.
* :func:`finish_run` — the executed-iteration-count self-check, the
  :class:`~repro.runtime.executor.LoopResult`, the conformance goodbye
  and the metrics publication.
* :func:`publish_log` — the one path from a simulated engine to its
  sinks. Engines append one row per scheduler call to the run's
  dispatch log; at loop end this projection turns the log into the
  registry's timeseries, digests and per-thread time totals, the span
  recorder's wake/chunk/empty-take spans and the trace recorder's
  intervals. The engine feeds no sink directly, so the drain and the
  stepped path publish identical observability by construction.

The epilogue takes the pool attempt counters *explicitly* rather than
reading the work-share structure: the drain advances the pool in closed
form and never touches the shared structure's atomics, yet must publish
the same ``workshare_take_attempts_total`` a stepped run would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.runtime.context import LoopContext
from repro.sched.base import LoopScheduler, ScheduleSpec
from repro.tracing.trace import ThreadState
from repro.workloads.loopspec import LoopSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perfmodel.locality import LoopOwnership
    from repro.runtime.executor import LoopExecutor, LoopResult


@dataclass
class LoopRunRequest:
    """One runtime-scheduled loop execution, as handed to a backend.

    Field semantics match
    :meth:`repro.runtime.executor.LoopExecutor.run` exactly; the
    executor builds one of these and delegates.
    """

    loop: LoopSpec
    costs: np.ndarray
    spec: ScheduleSpec
    start_time: float = 0.0
    offline_sf: Mapping[int, float] | None = None
    default_chunk: int = 1
    ownership: "LoopOwnership | None" = None
    rng: np.random.Generator | None = None
    start_times: Sequence[float] | None = None
    check: object = None
    faults: object = None


@dataclass
class RunSetup:
    """Backend-independent state prepared for one loop execution."""

    nt: int
    start_time: float
    entry: list[float]
    prefix: np.ndarray
    rates: list[float]
    core_types: list
    pending_overhead: list[float]
    ctx: LoopContext
    scheduler: LoopScheduler
    #: Per-tid time at which the thread finishes the loop-start call and
    #: issues its first dispatch (entry + wake stagger + jitter +
    #: loop_start).
    wake_begin: list[float] = field(default_factory=list)
    dec_mark: int = 0
    track_obs: bool = False
    #: The causal span recorder (``executor.obs.spans``), or ``None``
    #: when span tracing is off; ``span_loop`` is this run's loop span
    #: path and ``big_of`` flags threads on the fastest core type.
    spans: object = None
    span_loop: str | None = None
    big_of: list[bool] = field(default_factory=list)
    #: The dispatch log, or ``None`` when no sink listens (obs off, no
    #: span or trace recorder). One row per scheduler call:
    #: ``(tid, now, overhead_dt, lo, hi, compute_dt)``, with
    #: ``lo == -1`` for an empty take; a thread's rows are in its
    #: dispatch order (the drain stores the whole log as one array).
    log: list | np.ndarray | None = None
    #: Faulted runs only (a fault can cut or delay a chunk, so the
    #: dispatch rows cannot say when it ran): one row per executed range
    #: or empty take, ``(tid, t_dispatch, compute_start, t_end, lo, hi,
    #: compute_dt)``.
    execs: list | None = None


def prepare_run(executor: "LoopExecutor", req: "LoopRunRequest") -> RunSetup:
    """Validate the request and build the shared per-run state.

    Mirrors the historical prologue of ``LoopExecutor.run`` verbatim —
    including the single ``rng.uniform`` wake-jitter draw, so any two
    backends given the same request consume the random stream
    identically.
    """
    loop, costs, spec = req.loop, req.costs, req.spec
    if len(costs) != loop.n_iterations:
        raise SimulationError(
            f"cost vector length {len(costs)} != trip count {loop.n_iterations}"
        )
    if spec.requires_bs_mapping:
        executor.team.assert_bs_convention()
    check = req.check
    if check is not None:
        check.on_loop_begin(
            loop_name=loop.name,
            n_iterations=loop.n_iterations,
            spec_name=spec.name,
        )
        check.on_team(executor.team.conformance_info())

    nt = executor.team.n_threads
    start_time = req.start_time
    if req.start_times is not None:
        if len(req.start_times) != nt:
            raise SimulationError(
                f"{len(req.start_times)} start times for {nt} threads"
            )
        start_time = min(req.start_times)
    entry = (
        list(req.start_times)
        if req.start_times is not None
        else [start_time] * nt
    )
    prefix = np.concatenate(([0.0], np.cumsum(costs)))
    if not math.isfinite(prefix[-1]):
        # Any infinite or NaN cost makes the sum non-finite. A chunk
        # completing at +inf would read as an idle slot in the engine.
        raise SimulationError(
            f"loop {loop.name!r}: iteration costs must be finite"
        )
    rates = executor.rates_for(loop)
    core_types = [executor.team.core_type_of(tid) for tid in range(nt)]

    pending_overhead = [0.0] * nt
    stamp_cost = [executor.overhead.timestamp(ct) for ct in core_types]

    def charge_timestamp(tid: int) -> None:
        pending_overhead[tid] += stamp_cost[tid]

    ctx = LoopContext(
        team=executor.team,
        n_iterations=loop.n_iterations,
        default_chunk=req.default_chunk,
        offline_sf=req.offline_sf,
        charge_timestamp=charge_timestamp,
        obs=executor.obs,
        loop_name=loop.name,
        check=check,
    )
    scheduler = spec.create(ctx)

    jitter = (
        req.rng.uniform(0.0, executor.overhead.wake_jitter, size=nt)
        if req.rng is not None and executor.overhead.wake_jitter > 0.0
        else np.zeros(nt)
    )
    wake_begin = []
    for tid in range(nt):
        wake = (
            executor.overhead.wake_stagger * executor.team.cpu_of(tid)
            + jitter[tid]
        )
        wake_begin.append(
            entry[tid] + wake + executor.overhead.loop_start(core_types[tid])
        )

    track_obs = executor.obs.enabled
    srec = getattr(executor.obs, "spans", None)
    listening = (
        track_obs or srec is not None or executor.recorder is not None
    )
    faulted = req.faults is not None and not req.faults.is_empty
    span_loop = None
    big_of: list[bool] = []
    if srec is not None:
        span_loop = srec.begin_loop(loop.name)
        fastest = executor.team.n_types - 1
        big_of = [
            executor.team.type_index_of(tid) == fastest for tid in range(nt)
        ]
    return RunSetup(
        nt=nt,
        start_time=start_time,
        entry=entry,
        prefix=prefix,
        rates=rates,
        core_types=core_types,
        pending_overhead=pending_overhead,
        ctx=ctx,
        scheduler=scheduler,
        wake_begin=wake_begin,
        dec_mark=(
            len(executor.obs.decisions.records) if track_obs else 0
        ),
        track_obs=track_obs,
        spans=srec,
        span_loop=span_loop,
        big_of=big_of,
        log=[] if listening else None,
        execs=[] if listening and faulted else None,
    )


@dataclass
class LoopInstruments:
    """The per-run time-resolved instruments, fed in bulk columns by
    :func:`publish_log`."""

    util_of: list
    dispatch_digest: object
    compute_digest: object
    size_digest: object


def make_instruments(
    executor: "LoopExecutor", loop: LoopSpec, core_types: Sequence
) -> LoopInstruments:
    """Create/fetch the run's timeseries and digests from the registry.

    Cached per loop name on the executor: iterative programs run the
    same loop hundreds of times, and the handles (registry-owned,
    get-or-create) are identical on every invocation.
    """
    cached = executor._instrument_cache.get(loop.name)
    if cached is not None:
        return cached
    reg = executor.obs.registry
    type_names = [ct.name for ct in core_types]
    util_by_type = {
        tname: reg.timeseries(
            "core_utilization", mode="busy", loop=loop.name,
            core_type=tname, norm=float(type_names.count(tname)),
        )
        for tname in dict.fromkeys(type_names)
    }
    inst = LoopInstruments(
        util_of=[util_by_type[tname] for tname in type_names],
        dispatch_digest=reg.digest("dispatch_overhead_seconds", loop=loop.name),
        compute_digest=reg.digest("chunk_compute_seconds", loop=loop.name),
        size_digest=reg.digest("chunk_size_iters", loop=loop.name),
    )
    executor._instrument_cache[loop.name] = inst
    return inst


def publish_log(
    executor: "LoopExecutor", loop: LoopSpec, setup: RunSetup
) -> tuple[list[float], list[float]] | None:
    """Project the run's dispatch log onto every listening sink.

    Returns the per-thread overhead and compute seconds for
    ``_publish_loop_metrics`` (``None`` when obs is off). They are
    summed in event order, starting from the wake term: ``np.bincount``
    adds sequentially, like a running ``+=``. Each thread's rows are
    emitted in log order, so span chunk ordinals and trace intervals
    come out as per-event recording would produce them.
    """
    if setup.log is None:
        return None
    nt = setup.nt
    entry, wake = setup.entry, setup.wake_begin
    rows = np.asarray(setup.log, dtype=float).reshape(-1, 6)
    nows, ovh = rows[:, 1], rows[:, 2]
    if setup.execs is None:
        # Fault-free: every range ran exactly as it was dispatched.
        starts = nows + ovh
        ex = np.column_stack(
            (rows[:, 0], nows, starts, starts + rows[:, 5], rows[:, 3:6])
        )
    else:
        ex = np.asarray(setup.execs, dtype=float).reshape(-1, 7)
    ex_tids = ex[:, 0].astype(np.int64)
    t0s, starts, t1s, los, his, cds = ex[:, 1:].T
    acc = None
    if setup.track_obs:
        inst = make_instruments(executor, loop, setup.core_types)
        inst.dispatch_digest.observe_many(ovh)
        inst.size_digest.observe_many(
            (rows[:, 4] - rows[:, 3])[rows[:, 3] >= 0.0]
        )
        ran = los >= 0.0
        if setup.execs is not None:
            # A fault-free chunk counts even at zero cost; a faulted
            # range only when it computed.
            ran &= (his > los) & (cds > 0.0)
        inst.compute_digest.observe_many(cds[ran])
        for t in range(nt):
            m = ex_tids == t
            inst.util_of[t].observe_spans(
                np.concatenate(((entry[t],), t0s[m])),
                np.concatenate(((wake[t],), t1s[m])),
            )
        ovh_acc = np.bincount(
            np.concatenate((np.arange(nt), rows[:, 0].astype(np.int64))),
            weights=np.concatenate((np.subtract(wake, entry), ovh)),
            minlength=nt,
        )
        cmp_acc = np.bincount(ex_tids, weights=cds, minlength=nt)
        acc = (ovh_acc.tolist(), cmp_acc.tolist())
    srec = setup.spans
    if srec is not None:
        for t in range(nt):
            srec.record_wake(setup.span_loop, t, entry[t], wake[t])
            m = ex_tids == t
            srec.record_dispatches(
                setup.span_loop, t, t0s[m].tolist(), starts[m].tolist(),
                t1s[m].tolist(), los[m].astype(np.int64).tolist(),
                his[m].astype(np.int64).tolist(), setup.big_of[t],
            )
    recorder = executor.recorder
    if recorder is not None:
        runtime, compute = ThreadState.RUNTIME, ThreadState.COMPUTE
        for t in range(nt):
            recorder.record(t, runtime, entry[t], wake[t], loop.name)
        for tid, t0, t_start, t1 in zip(
            ex_tids.tolist(), t0s.tolist(), starts.tolist(), t1s.tolist()
        ):
            # Zero-length intervals (an empty take's compute part, an
            # overhead a fault cut to nothing) are dropped by record().
            recorder.record(tid, runtime, t0, t_start, loop.name)
            recorder.record(tid, compute, t_start, t1, loop.name)
    return acc


def finish_run(
    executor: "LoopExecutor",
    req: "LoopRunRequest",
    setup: RunSetup,
    finish: list[float],
    iters: list[int],
    calls: Sequence[int],
    assigned: list[tuple[int, int, int]],
    dispatches: int,
    attempts: int,
    empty_takes: int,
    engine=None,
) -> "LoopResult":
    """Shared epilogue: self-check, result, conformance, metrics."""
    from repro.runtime.executor import LoopResult

    loop, spec = req.loop, req.spec
    # Project first: a run that fails the self-check below still leaves
    # its trace and spans behind as evidence.
    acc = publish_log(executor, loop, setup)
    total_iters = sum(iters)
    if total_iters != loop.n_iterations:
        raise SimulationError(
            f"schedule {spec.name!r} executed {total_iters} of "
            f"{loop.n_iterations} iterations in loop {loop.name!r}"
        )
    result = LoopResult(
        loop_name=loop.name,
        start_time=setup.start_time,
        end_time=max(finish),
        finish_times=finish,
        iterations=iters,
        dispatches=dispatches,
        scheduler_calls=sum(calls),
        estimated_sf=setup.scheduler.estimated_sf(),
        ranges=assigned,
        extra={"scheduler": setup.scheduler},
    )
    if req.check is not None:
        req.check.on_loop_end(result)
    if engine is not None:
        engine.publish()
    if setup.spans is not None:
        dec_slice = (
            executor.obs.decisions.records[setup.dec_mark:]
            if setup.track_obs
            else ()
        )
        setup.spans.end_loop(
            setup.span_loop,
            t0=setup.start_time,
            t1=result.end_time,
            decisions=dec_slice,
            loop_name=loop.name,
        )
    if executor.obs.enabled:
        executor._publish_sf_drift(loop, setup.dec_mark)
        executor._publish_loop_metrics(
            loop, result, calls, *acc,
            attempts=attempts, empty_takes=empty_takes, engine=engine,
        )
    return result
