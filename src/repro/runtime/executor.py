"""Discrete-event execution of one parallel loop.

The executor is the meeting point of every substrate: it takes a
:class:`~repro.runtime.team.Team` (threads pinned on an AMP), a
per-iteration cost vector, a :class:`~repro.perfmodel.speed.PerfModel`
(work units -> seconds per core) and a
:class:`~repro.sched.base.ScheduleSpec`, and hands the loop to its
execution backend — for simulated runs, the discrete-event slot engine
of :mod:`repro.backends.vectorized`, fault plans included:

* each worker thread alternates *dispatch* (one scheduler call, charged
  as runtime overhead) and *compute* (executing the returned iteration
  range at its core's rate);
* AID sampling timestamps charged through the loop context are added to
  the thread's next compute block;
* everything is optionally recorded into a trace.

Event ordering is exactly the semantics that matter to the paper: the
thread that finishes its chunk first reaches the shared pool first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.obs import NULL_OBS, Observability
from repro.perfmodel.locality import LocalityModel, LoopOwnership
from repro.perfmodel.overhead import OverheadModel
from repro.perfmodel.speed import PerfModel
from repro.runtime.team import Team
from repro.sched.base import ScheduleSpec
from repro.sched.static import static_block
from repro.tracing.trace import ThreadState, TraceRecorder
from repro.workloads.loopspec import LoopSpec

#: Safety bound on events per loop execution (dispatches are at most one
#: per iteration plus per-thread bookkeeping; anything past this is a
#: livelocked policy).
_EVENT_BUDGET_SLACK = 64


@dataclass
class LoopResult:
    """Outcome of one parallel-loop execution.

    Attributes:
        loop_name: the executed loop.
        start_time: when all threads entered the loop.
        end_time: when the last thread finished its share (barrier cost
            not yet included — the program runner adds it).
        finish_times: per-TID completion times.
        iterations: per-TID executed iteration counts.
        dispatches: successful pool removals (0 for inline static).
        scheduler_calls: total scheduler invocations, including the final
            empty-handed ones.
        estimated_sf: per-core-type SF the scheduler sampled, if any.
        ranges: every assigned iteration range as ``(tid, lo, hi)``, in
            assignment order — the raw distribution, used by the locality
            model and by analyses/tests.
    """

    loop_name: str
    start_time: float
    end_time: float
    finish_times: list[float]
    iterations: list[int]
    dispatches: int
    scheduler_calls: int
    estimated_sf: dict[int, float] | None = None
    ranges: list[tuple[int, int, int]] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def imbalance(self) -> float:
        """Relative load imbalance: (max - min) / max of thread busy time.

        0 = perfectly balanced. Computed over finish times relative to
        the loop start.
        """
        busy = [t - self.start_time for t in self.finish_times]
        peak = max(busy)
        return 0.0 if peak <= 0 else (peak - min(busy)) / peak


class LoopExecutor:
    """Executes parallel loops for one (team, models) configuration.

    Args:
        team: threads pinned onto the platform.
        perf: performance model for the platform.
        overhead: runtime-call cost model.
        recorder: optional trace recorder.
        obs: observability bundle receiving per-loop counters and the
            scheduler decision log; defaults to the null sink (hooks are
            a single flag check, simulated results are unchanged).
        backend: execution backend for runtime-scheduled loops — a
            registered name (``"reference"``, ``"vectorized"``,
            ``"real"``), a live :class:`~repro.backends.ExecutionBackend`
            instance, or ``None`` to resolve via the ``REPRO_BACKEND``
            environment variable (default ``reference``).
    """

    def __init__(
        self,
        team: Team,
        perf: PerfModel,
        overhead: OverheadModel | None = None,
        recorder: TraceRecorder | None = None,
        locality: LocalityModel | None = None,
        background_cpus: tuple[int, ...] = (),
        obs: Observability | None = None,
        backend=None,
    ) -> None:
        from repro.backends import resolve_backend

        self.team = team
        self.perf = perf
        self.overhead = overhead if overhead is not None else OverheadModel()
        self.recorder = recorder
        self.obs = obs if obs is not None else NULL_OBS
        self.locality = locality if locality is not None else LocalityModel()
        #: CPUs occupied by *other* applications co-located on the
        #: platform (Sec. 4.3 scenarios); they count as LLC co-runners.
        self.background_cpus = tuple(background_cpus)
        self.backend = resolve_backend(backend)
        #: Per-loop-name caches of registry instrument handles. The
        #: registry get-or-creates by (name, labels) anyway; these only
        #: skip rebuilding the label keys on every invocation of an
        #: iterative loop (team and obs are fixed per executor).
        self._instrument_cache: dict = {}
        self._loop_metric_handles: dict = {}
        self.backend.prepare(self)

    # -- rates -----------------------------------------------------------------

    def rates_for(self, loop: LoopSpec) -> list[float]:
        """Per-TID execution rate (work units/second) for this loop,
        under the team's full co-running contention (including any
        co-located applications' threads)."""
        cpus = tuple(self.team.mapping.cpu_of_tid) + self.background_cpus
        return [
            self.perf.rate(self.team.cpu_of(tid), loop.kernel, cpus)
            for tid in range(self.team.n_threads)
        ]

    # -- inline static (vanilla-compiler) path ------------------------------------

    def run_inline_static(
        self,
        loop: LoopSpec,
        costs: np.ndarray,
        start_time: float = 0.0,
        ownership: LoopOwnership | None = None,
    ) -> LoopResult:
        """Run the loop as vanilla GCC lowers clause-less loops: an even
        split baked into the code, zero runtime calls."""
        nt = self.team.n_threads
        prefix = np.concatenate(([0.0], np.cumsum(costs)))
        rates = self.rates_for(loop)
        finish = [start_time] * nt
        iters = [0] * nt
        ranges: list[tuple[int, int, int]] = []
        for tid in range(nt):
            lo, hi = static_block(len(costs), nt, tid)
            work = float(prefix[hi] - prefix[lo])
            slowdown = self.locality.slowdown(loop.kernel, ownership, tid, lo, hi)
            finish[tid] = start_time + slowdown * work / rates[tid]
            iters[tid] = hi - lo
            if hi > lo:
                ranges.append((tid, lo, hi))
            if self.recorder is not None and hi > lo:
                self.recorder.record(
                    tid, ThreadState.COMPUTE, start_time, finish[tid], loop.name
                )
        result = LoopResult(
            loop_name=loop.name,
            start_time=start_time,
            end_time=max(finish),
            finish_times=finish,
            iterations=iters,
            dispatches=0,
            scheduler_calls=0,
            ranges=ranges,
        )
        srec = getattr(self.obs, "spans", None)
        if srec is not None:
            fastest = self.team.n_types - 1
            srec.record_inline_loop(
                srec.begin_loop(loop.name),
                start_time,
                finish,
                [self.team.type_index_of(t) == fastest for t in range(nt)],
                loop.name,
            )
        if self.obs.enabled:
            reg = self.obs.registry
            reg.counter("loop_invocations_total", loop=loop.name).inc()
            type_names = [self.team.core_type_of(t).name for t in range(nt)]
            sim_time: dict[str, float] = {}
            for tid in range(nt):
                reg.counter("iterations_total", loop=loop.name, tid=tid).inc(
                    iters[tid]
                )
                reg.counter("compute_seconds_total", loop=loop.name, tid=tid).inc(
                    finish[tid] - start_time
                )
                tname = type_names[tid]
                sim_time[tname] = sim_time.get(tname, 0.0) + (
                    finish[tid] - start_time
                )
                if finish[tid] > start_time:
                    reg.timeseries(
                        "core_utilization", mode="busy", loop=loop.name,
                        core_type=tname, norm=float(type_names.count(tname)),
                    ).observe_span(start_time, finish[tid])
            for tname, seconds in sorted(sim_time.items()):
                reg.counter(
                    "sim_time_seconds_total", loop=loop.name,
                    core_type=tname, category="compute",
                ).inc(seconds)
            reg.gauge("loop_last_duration_seconds", loop=loop.name).set(
                result.duration
            )
            reg.gauge("loop_last_imbalance", loop=loop.name).set(result.imbalance)
        return result

    # -- runtime-scheduled path ------------------------------------------------------

    def run(
        self,
        loop: LoopSpec,
        costs: np.ndarray,
        spec: ScheduleSpec,
        start_time: float = 0.0,
        offline_sf: Mapping[int, float] | None = None,
        default_chunk: int = 1,
        ownership: LoopOwnership | None = None,
        rng: np.random.Generator | None = None,
        start_times: Sequence[float] | None = None,
        check=None,
        faults=None,
    ) -> LoopResult:
        """Run the loop under a schedule through the runtime system.

        ``rng`` drives the per-thread wake jitter (OS noise); pass a
        stream seeded per invocation for reproducible-yet-varying
        arrival orders, or ``None`` for none.

        ``start_times`` gives each thread its own entry time into the
        work-sharing construct — how threads arrive after a preceding
        ``nowait`` loop. Defaults to everyone entering at ``start_time``.

        ``check`` is an opt-in conformance recorder
        (:class:`repro.check.recording.CheckContext`); it observes the
        run without altering any scheduling decision.

        ``faults`` is an optional :class:`repro.faults.model.FaultPlan`
        whose event times are absolute virtual seconds. ``None`` or an
        empty plan is a strict no-op: the executor runs the exact
        fault-free code path and produces byte-identical results.

        The execution itself is delegated to the executor's
        :class:`~repro.backends.ExecutionBackend` (``reference`` by
        default); all backends share this method's semantics, and both
        simulated ones run the same slot engine, faulted runs included.
        """
        from repro.backends.common import LoopRunRequest

        req = LoopRunRequest(
            loop=loop,
            costs=costs,
            spec=spec,
            start_time=start_time,
            offline_sf=offline_sf,
            default_chunk=default_chunk,
            ownership=ownership,
            rng=rng,
            start_times=start_times,
            check=check,
            faults=faults,
        )
        return self.backend.run_scheduled(self, req)

    def _publish_sf_drift(self, loop: LoopSpec, dec_mark: int) -> None:
        """Replay this run's SF publications into drift timeseries.

        Scans the decision records appended during the run (the emitters
        already carry timestamps), so no scheduler needs changing: every
        SF estimate published at time t becomes a sample on
        ``sf_estimate{loop,type}``.
        """
        from repro.obs.decisions import SF_EVENTS

        reg = self.obs.registry
        for rec in self.obs.decisions.records[dec_mark:]:
            # Cheapest test first: almost every record is a non-SF event.
            if rec.get("event") not in SF_EVENTS:
                continue
            sf = rec.get("sf")
            if not sf or rec.get("loop") != loop.name:
                continue
            for j, v in sf.items():
                reg.timeseries(
                    "sf_estimate", loop=loop.name, type=j
                ).observe(float(rec["t"]), float(v))

    def _publish_loop_metrics(
        self,
        loop: LoopSpec,
        result: LoopResult,
        calls: Sequence[int],
        overhead_acc: Sequence[float],
        compute_acc: Sequence[float],
        attempts: int = 0,
        empty_takes: int = 0,
        engine=None,
    ) -> None:
        """Fold one runtime-scheduled loop execution into the registry.

        Counter semantics across repeated invocations of the same loop
        are additive; the two gauges keep the *last* invocation's shape.
        ``attempts``/``empty_takes`` are passed explicitly rather than
        read off the work-share structure: a batching backend advances
        the pool in closed form without touching it, yet must publish
        the same totals a stepped run would.
        """
        reg = self.obs.registry
        name = loop.name
        nt = self.team.n_threads
        h = self._loop_metric_handles.get(name)
        if h is None:
            # First invocation of this loop: fetch every handle once.
            # The registry get-or-creates by (name, labels), so these are
            # the same instruments ad-hoc accessors would return; the
            # cache only skips rebuilding label keys per invocation.
            h = {
                "inv": reg.counter("loop_invocations_total", loop=name),
                "att": reg.counter(
                    "workshare_take_attempts_total", loop=name
                ),
                "emp": reg.counter("workshare_take_empty_total", loop=name),
                "per_tid": [
                    (
                        reg.counter("dispatches_total", loop=name, tid=tid),
                        reg.counter("sched_calls_total", loop=name, tid=tid),
                        reg.counter("iterations_total", loop=name, tid=tid),
                        reg.counter(
                            "runtime_overhead_seconds_total",
                            loop=name, tid=tid,
                        ),
                        reg.counter(
                            "compute_seconds_total", loop=name, tid=tid
                        ),
                    )
                    for tid in range(nt)
                ],
                "sim": {},
                "dur": reg.gauge("loop_last_duration_seconds", loop=name),
                "imb": reg.gauge("loop_last_imbalance", loop=name),
            }
            self._loop_metric_handles[name] = h
        h["inv"].inc()
        h["att"].inc(attempts)
        h["emp"].inc(empty_takes)
        dispatches_by_tid = [0] * nt
        for tid, _lo, _hi in result.ranges:
            dispatches_by_tid[tid] += 1
        for tid, (c_disp, c_calls, c_iters, c_ovh, c_cmp) in enumerate(
            h["per_tid"]
        ):
            c_disp.inc(dispatches_by_tid[tid])
            c_calls.inc(calls[tid])
            c_iters.inc(result.iterations[tid])
            c_ovh.inc(overhead_acc[tid])
            c_cmp.inc(compute_acc[tid])
        # Sim-time cost attribution: where did the loop's simulated
        # seconds go, per core type? Stall seconds (fault injection adds
        # them into dispatch overhead) are pulled back out so the
        # categories stay disjoint and sum to total busy time.
        by_type: dict[str, list[float]] = {}
        for tid in range(nt):
            tname = self.team.core_type_of(tid).name
            stall = engine.stall_seconds_of(tid) if engine is not None else 0.0
            slot = by_type.setdefault(tname, [0.0, 0.0, 0.0])
            slot[0] += compute_acc[tid]
            slot[1] += max(0.0, overhead_acc[tid] - stall)
            slot[2] += stall
        sim = h["sim"]
        for tname, (comp, ovh, stall) in sorted(by_type.items()):
            pair = sim.get(tname)
            if pair is None:
                pair = sim[tname] = (
                    reg.counter(
                        "sim_time_seconds_total", loop=name,
                        core_type=tname, category="compute",
                    ),
                    reg.counter(
                        "sim_time_seconds_total", loop=name,
                        core_type=tname, category="overhead",
                    ),
                )
            pair[0].inc(comp)
            pair[1].inc(ovh)
            if engine is not None:
                reg.counter(
                    "sim_time_seconds_total", loop=name, core_type=tname,
                    category="stall",
                ).inc(stall)
        h["dur"].set(result.duration)
        h["imb"].set(result.imbalance)
