"""Whole-program execution: serial phases, loops, barriers.

:class:`ProgramRunner` plays a compiled program forward in virtual time:
serial phases advance the master thread while workers idle; each
parallel loop runs through :class:`~repro.runtime.executor.LoopExecutor`
under the lowering the compiler chose (inline static, the environment's
OMP_SCHEDULE, or an explicit clause); the implicit end-of-loop barrier
re-synchronizes the team.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.compiler.lowering import CompiledProgram, LoweringKind, compile_program
from repro.errors import ConfigError
from repro.obs import NULL_OBS, Observability
from repro.perfmodel.contention import ContentionModel
from repro.perfmodel.locality import LocalityModel
from repro.perfmodel.overhead import OverheadModel
from repro.perfmodel.speed import PerfModel
from repro.runtime.env import OmpEnv
from repro.runtime.executor import LoopExecutor, LoopResult
from repro.runtime.team import Team
from repro.sim.rng import RngStreams
from repro.tracing.trace import ThreadState, TraceRecorder
from repro.workloads.loopspec import LoopSpec
from repro.workloads.program import Program, SerialPhase


@dataclass
class ProgramResult:
    """Outcome of a whole-program run.

    Attributes:
        program_name: the executed program.
        schedule_name: OMP_SCHEDULE in force (plus affinity label).
        completion_time: wall time of the run in simulated seconds.
        loop_results: every loop execution, in order.
        serial_time: total time spent in serial phases.
        trace: the recorder, when tracing was requested.
    """

    program_name: str
    schedule_name: str
    completion_time: float
    loop_results: list[LoopResult] = field(default_factory=list)
    serial_time: float = 0.0
    trace: TraceRecorder | None = None

    @property
    def total_dispatches(self) -> int:
        return sum(r.dispatches for r in self.loop_results)

    def estimated_sf_series(self, loop_name: str) -> list[dict[int, float]]:
        """The SF a sampling scheduler estimated at each invocation of
        one loop (Fig. 9c plots this for blackscholes)."""
        return [
            r.estimated_sf
            for r in self.loop_results
            if r.loop_name == loop_name and r.estimated_sf is not None
        ]


class ProgramRunner:
    """Runs compiled programs on a platform under an OMP environment.

    Args:
        platform: the AMP.
        env: runtime environment (schedule, team size, affinity).
        overhead: runtime-call cost model.
        contention: LLC contention model.
        root_seed: seed for workload cost noise.
        trace: record a full execution trace.
        offline_sf_tables: optional per-loop offline SF tables, keyed by
            loop name, each mapping core-type index -> SF. Required by
            offline-SF schedule variants.
        schedule_override: use this spec for runtime-scheduled loops
            instead of parsing ``env.schedule`` — for specs that have no
            OMP_SCHEDULE string form (offline-SF variants, ablation
            configurations).
        info_page: OS<->runtime shared page for multi-application
            scenarios (paper Sec. 4.3). When given, the runtime reads its
            CPU allocation from the page at every loop start (instead of
            pinning env.num_threads cores itself), builds the team over
            those CPUs in the BS convention, and treats the co-located
            applications' CPUs as LLC contention background.
        obs: observability bundle; when given, every loop execution feeds
            the metrics registry and the AID schedulers append to the
            decision log. Defaults to the null sink (no overhead, results
            bit-identical to an uninstrumented run).
        backend: execution backend for runtime-scheduled loops — a
            registered name (``"reference"``, ``"vectorized"``,
            ``"real"``), a live
            :class:`~repro.backends.ExecutionBackend` instance, or
            ``None`` to resolve via the ``REPRO_BACKEND`` environment
            variable (default ``reference``). Forwarded to every
            :class:`~repro.runtime.executor.LoopExecutor` this runner
            builds, including the per-allocation executors of
            multi-application mode.
        faults: optional :class:`~repro.faults.model.FaultPlan` with
            event times in absolute program (virtual) seconds. Each
            runtime-scheduled loop applies the windows that overlap its
            execution; windows that ended before a loop starts are
            dropped. Core-offline state does not persist across loop
            boundaries (every loop starts with the full team). ``None``
            or an empty plan is a strict no-op.
    """

    def __init__(
        self,
        platform,
        env: OmpEnv | None = None,
        overhead: OverheadModel | None = None,
        contention: ContentionModel | None = None,
        root_seed: int = 0,
        trace: bool = False,
        offline_sf_tables: Mapping[str, Mapping[int, float]] | None = None,
        schedule_override=None,
        locality: LocalityModel | None = None,
        info_page=None,
        obs: Observability | None = None,
        faults=None,
        backend=None,
    ) -> None:
        self.platform = platform
        self.env = env if env is not None else OmpEnv()
        self.overhead = overhead if overhead is not None else OverheadModel()
        self.contention = (
            contention if contention is not None else ContentionModel()
        )
        self.streams = RngStreams(root_seed)
        self.recorder = TraceRecorder() if trace else None
        self.obs = obs if obs is not None else NULL_OBS
        self.offline_sf_tables = (
            {k: dict(v) for k, v in offline_sf_tables.items()}
            if offline_sf_tables
            else {}
        )
        self.schedule_override = schedule_override
        self.faults = faults
        self.locality = locality if locality is not None else LocalityModel()
        # Kept as the raw selector; every executor construction below
        # resolves it, so an invalid name (or a typo'd REPRO_BACKEND)
        # fails here in __init__ with a BackendError.
        self.backend = backend
        self._ownership = {}
        self.info_page = info_page
        self.perf = PerfModel(platform, self.contention)
        self._executor_cache: dict[tuple, LoopExecutor] = {}
        if info_page is None:
            self.team = Team(platform, self.env.mapping(platform))
            self.executor = LoopExecutor(
                self.team, self.perf, self.overhead, self.recorder,
                locality=self.locality, obs=self.obs, backend=self.backend,
            )
        else:
            # Multi-application mode: the OS page decides the CPUs; build
            # the initial team from its t=0 allocation.
            self.team, self.executor = self._team_for(0.0)
        if self.obs.enabled:
            self.team.publish_metrics(self.obs.registry)
        spec = self._runtime_spec()
        if spec.requires_bs_mapping and self.env.affinity != "BS":
            raise ConfigError(
                f"schedule {spec.name!r} requires GOMP_AMP_AFFINITY=BS"
            )

    def _team_for(self, now: float):
        """Team + executor for the OS allocation in force at ``now``
        (multi-application mode only)."""
        from repro.amp.topology import AffinityMapping

        snapshot = self.info_page.read(now)
        background = self.info_page.background_at(now)
        key = (snapshot.cpus, background)
        cached = self._executor_cache.get(key)
        if cached is None:
            # The page hands CPUs out fastest-first, so binding TIDs in
            # that order preserves the BS convention AID assumes.
            mapping = AffinityMapping(
                name=f"OS(gen{snapshot.generation})", cpu_of_tid=snapshot.cpus
            )
            team = Team(self.platform, mapping)
            cached = LoopExecutor(
                team,
                self.perf,
                self.overhead,
                self.recorder,
                locality=self.locality,
                background_cpus=background,
                obs=self.obs,
                backend=self.backend,
            )
            self._executor_cache[key] = cached
        return cached.team, cached

    def _runtime_spec(self):
        """The spec applied to schedule(runtime) loops."""
        if self.schedule_override is not None:
            return self.schedule_override
        return self.env.schedule_spec()

    # -- phases ------------------------------------------------------------------

    def _run_serial(self, phase: SerialPhase, now: float) -> float:
        """Master executes the phase; workers idle. Returns the end time."""
        if self.info_page is not None:
            self.team, self.executor = self._team_for(now)
        master_cpu = self.team.cpu_of(0)
        rate = self.perf.solo_rate(master_cpu, phase.kernel)
        end = now + phase.work / rate
        if self.obs.enabled:
            self.obs.registry.counter(
                "serial_seconds_total", phase=phase.name
            ).inc(end - now)
        srec = getattr(self.obs, "spans", None)
        if srec is not None:
            srec.record_serial(phase.name, now, end, self.team.n_threads)
        if self.recorder is not None:
            self.recorder.record(0, ThreadState.SERIAL, now, end, phase.name)
            for tid in range(1, self.team.n_threads):
                self.recorder.record(tid, ThreadState.IDLE, now, end, phase.name)
        return end

    def _run_loop(
        self,
        compiled: CompiledProgram,
        loop: LoopSpec,
        invocation: int,
        now: float,
        entry_times: list[float] | None = None,
    ) -> tuple[LoopResult, float, list[float] | None]:
        """Run one loop invocation (plus the implicit barrier unless the
        loop is ``nowait``).

        Args:
            entry_times: per-thread arrival times left over from a
                preceding ``nowait`` loop, or ``None`` when the team is
                synchronized at ``now``.

        Returns:
            ``(result, time_after, ready)`` where ``ready`` is the
            per-thread arrival times for the *next* construct (``None``
            when this loop ended with a barrier).
        """
        if self.info_page is not None:
            # Sec. 4.3: peek the shared page at every loop start; a
            # changed allocation (the "migration notification") simply
            # means this loop's team is built over the new CPUs.
            self.team, self.executor = self._team_for(now)
        costs = loop.costs(self.streams, compiled.program.name, invocation)
        ownership = self._ownership.get(loop.name)
        if ownership is None:
            ownership = self.locality.fresh_ownership(loop.n_iterations)
            self._ownership[loop.name] = ownership
        if entry_times is not None and len(entry_times) != self.team.n_threads:
            # Team size changed (multi-application reallocation): the old
            # per-thread arrival times are meaningless; synchronize.
            now = max(now, max(entry_times))
            entry_times = None
        lowering = compiled.lowering_of(loop)
        if lowering.kind is LoweringKind.INLINE_STATIC:
            # The inlined-static path has no runtime entry point to carry
            # per-thread arrivals through; threads join first.
            if entry_times is not None:
                now = max(now, max(entry_times))
                entry_times = None
            result = self.executor.run_inline_static(
                loop, costs, now, ownership=ownership
            )
        else:
            spec = (
                lowering.clause_spec
                if lowering.kind is LoweringKind.CLAUSE
                else self._runtime_spec()
            )
            assert spec is not None
            offline = None
            if spec.needs_offline_sf:
                offline = self.offline_sf_tables.get(loop.name)
                if offline is None:
                    raise ConfigError(
                        f"schedule {spec.name!r} needs an offline SF table "
                        f"for loop {loop.name!r} but none was provided"
                    )
            result = self.executor.run(
                loop,
                costs,
                spec,
                start_time=now,
                offline_sf=offline,
                ownership=ownership,
                rng=self.streams.get(
                    "wake", compiled.program.name, loop.name, invocation
                ),
                start_times=entry_times,
                faults=self.faults,
            )
        ownership.update(result.ranges)
        if loop.nowait:
            # GOMP_loop_end_nowait: no barrier; each thread proceeds to
            # the next construct as soon as its share is done.
            return result, result.end_time, list(result.finish_times)
        # Implicit barrier: the team leaves together.
        barrier_dt = self.overhead.barrier(
            self.team.core_type_of(0), self.team.n_threads
        )
        after = result.end_time + barrier_dt
        if self.obs.enabled:
            reg = self.obs.registry
            reg.counter("barriers_total", loop=loop.name).inc()
            idle_by_type: dict[str, float] = {}
            for tid in range(self.team.n_threads):
                # Wait = idle until the last thread arrives + release cost.
                wait = after - result.finish_times[tid]
                reg.counter(
                    "barrier_wait_seconds_total", loop=loop.name, tid=tid
                ).inc(wait)
                tname = self.team.core_type_of(tid).name
                idle_by_type[tname] = idle_by_type.get(tname, 0.0) + wait
            for tname, wait in sorted(idle_by_type.items()):
                reg.counter(
                    "sim_time_seconds_total", loop=loop.name,
                    core_type=tname, category="idle",
                ).inc(wait)
        srec = getattr(self.obs, "spans", None)
        if srec is not None:
            for tid in range(self.team.n_threads):
                srec.record_barrier(tid, result.finish_times[tid], after)
        if self.recorder is not None:
            for tid in range(self.team.n_threads):
                self.recorder.record(
                    tid,
                    ThreadState.BARRIER,
                    result.finish_times[tid],
                    after,
                    loop.name,
                )
        return result, after, None

    # -- whole program ----------------------------------------------------------------

    def run(self, program: Program | CompiledProgram) -> ProgramResult:
        """Execute a program (compiling it with the modified compiler if
        a plain :class:`~repro.workloads.program.Program` is given)."""
        if isinstance(program, CompiledProgram):
            compiled = program
        else:
            compiled = compile_program(program, modified=True)
        srec = getattr(self.obs, "spans", None)
        if srec is not None:
            srec.begin_program(compiled.program.name)
        now = 0.0
        serial_time = 0.0
        ready: list[float] | None = None  # per-thread arrivals after nowait
        loop_results: list[LoopResult] = []
        for phase, invocation in compiled.program.schedule():
            if isinstance(phase, SerialPhase):
                if ready is not None:
                    # Leaving the parallel region joins the team.
                    now = max(now, max(ready))
                    ready = None
                end = self._run_serial(phase, now)
                serial_time += end - now
                now = end
            else:
                result, now, ready = self._run_loop(
                    compiled, phase, invocation, now, entry_times=ready
                )
                loop_results.append(result)
        if ready is not None:
            now = max(now, max(ready))
        if srec is not None:
            srec.end_program(0.0, now)
        if self.obs.enabled:
            self.obs.registry.gauge(
                "program_last_completion_seconds",
                program=compiled.program.name,
                schedule=self._runtime_spec().name,
            ).set(now)
        return ProgramResult(
            program_name=compiled.program.name,
            schedule_name=f"{self.env.schedule}({self.env.affinity})",
            completion_time=now,
            loop_results=loop_results,
            serial_time=serial_time,
            trace=self.recorder,
        )
