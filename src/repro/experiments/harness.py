"""Shared experiment harness: schedule grids over programs and platforms.

The paper's evaluation protocol: run every program under every
loop-scheduling configuration with 8 threads (one per core), report
completion time normalized to static(SB). Runs in the simulator are
deterministic, so no warm-up/repetition protocol is needed — one run per
cell *is* the geometric mean of the paper's four timed runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.amp.platform import Platform
from repro.errors import ExperimentError
from repro.fleet import (
    FleetConfig,
    FleetProgress,
    JobSpec,
    ResultCache,
    require_ok,
    run_jobs,
)
from repro.metrics.stats import normalized_performance
from repro.perfmodel.contention import ContentionModel
from repro.perfmodel.overhead import OverheadModel
from repro.perfmodel.speed import PerfModel
from repro.runtime.env import OmpEnv
from repro.runtime.program_runner import ProgramResult, ProgramRunner
from repro.workloads.program import Program
from repro.workloads.registry import all_programs


@dataclass(frozen=True)
class ScheduleConfig:
    """One column of a Fig. 6/7-style grid.

    Attributes:
        label: display label, e.g. ``"static(SB)"`` or ``"AID-hybrid"``.
        env: runtime environment realizing it.
    """

    label: str
    env: OmpEnv


def default_configs() -> tuple[ScheduleConfig, ...]:
    """The seven configurations of the paper's Figs. 6 and 7.

    Default chunks throughout, as in the paper's Sec. 5A: dynamic uses
    chunk 1, AID methods sample with (minor) chunk 1, AID-hybrid uses
    80%, AID-dynamic uses Major chunk 5.
    """
    return (
        ScheduleConfig("static(SB)", OmpEnv(schedule="static", affinity="SB")),
        ScheduleConfig("static(BS)", OmpEnv(schedule="static", affinity="BS")),
        ScheduleConfig("dynamic(SB)", OmpEnv(schedule="dynamic,1", affinity="SB")),
        ScheduleConfig("dynamic(BS)", OmpEnv(schedule="dynamic,1", affinity="BS")),
        ScheduleConfig("AID-static", OmpEnv(schedule="aid_static", affinity="BS")),
        ScheduleConfig(
            "AID-hybrid", OmpEnv(schedule="aid_hybrid,80", affinity="BS")
        ),
        ScheduleConfig(
            "AID-dynamic", OmpEnv(schedule="aid_dynamic,1,5", affinity="BS")
        ),
    )


#: Baseline column used for normalization, as in the paper.
BASELINE_LABEL = "static(SB)"


def offline_sf_tables(
    platform: Platform, program: Program
) -> dict[str, dict[int, float]]:
    """Per-loop offline SF tables for a program on a platform.

    Reproduces the paper's offline measurement protocol (Sec. 2): run the
    loop single-threaded on each core type and take completion-time
    ratios against the slowest type — i.e. solo rates without co-runner
    contention. Used by the AID-static(offline-SF) variant of Fig. 9.
    """
    perf = PerfModel(platform)
    tables: dict[str, dict[int, float]] = {}
    for loop in program.loops():
        tables[loop.name] = {
            j: perf.speedup_factor(loop.kernel, platform.core_types[j])
            for j in range(platform.n_core_types)
        }
    return tables


def run_one(
    platform: Platform,
    program: Program,
    config: ScheduleConfig,
    root_seed: int = 0,
    overhead: OverheadModel | None = None,
    contention: ContentionModel | None = None,
    trace: bool = False,
    backend: str | None = None,
) -> ProgramResult:
    """Run one (program, configuration) cell."""
    needs_offline = config.env.schedule_spec().needs_offline_sf
    runner = ProgramRunner(
        platform,
        config.env,
        overhead=overhead,
        contention=contention,
        root_seed=root_seed,
        trace=trace,
        offline_sf_tables=(
            offline_sf_tables(platform, program) if needs_offline else None
        ),
        backend=backend,
    )
    return runner.run(program)


@dataclass
class GridResult:
    """Completion times for programs x configurations on one platform."""

    platform_name: str
    config_labels: tuple[str, ...]
    times: dict[str, dict[str, float]] = field(default_factory=dict)

    def time(self, program: str, label: str) -> float:
        try:
            return self.times[program][label]
        except KeyError:
            raise ExperimentError(
                f"no result for ({program!r}, {label!r}) on {self.platform_name}"
            ) from None

    def normalized(
        self, baseline: str = BASELINE_LABEL
    ) -> dict[str, dict[str, float]]:
        """Per-program normalized performance vs a baseline column
        (higher is better; baseline = 1.0) — the y-axis of Figs. 6/7."""
        out: dict[str, dict[str, float]] = {}
        for program, row in self.times.items():
            base = row[baseline]
            out[program] = {
                label: normalized_performance(base, t) for label, t in row.items()
            }
        return out

    def column(self, label: str) -> dict[str, float]:
        """One configuration's completion time per program."""
        return {program: row[label] for program, row in self.times.items()}

    @classmethod
    def from_payload(cls, payload: Mapping) -> "GridResult":
        """Rehydrate a grid from :func:`repro.obs.snapshot.grid_payload`.

        Exact inverse of the payload (including row and column order, via
        its ``program_order``/``schemes`` lists), so a cached fleet
        result renders the very same tables as the run that produced it.
        """
        try:
            labels = tuple(str(s) for s in payload["schemes"])
            programs = payload["programs"]
            order = payload.get("program_order")
            names = [str(n) for n in order] if order is not None else sorted(
                programs
            )
            grid = cls(
                platform_name=str(payload["platform"]), config_labels=labels
            )
            for name in names:
                by_label = {
                    row["scheme"]: float(row["completion_time"])
                    for row in programs[name]
                }
                grid.times[name] = {label: by_label[label] for label in labels}
        except (KeyError, TypeError, ValueError) as exc:
            raise ExperimentError(
                f"malformed grid payload: {exc!r}"
            ) from exc
        return grid

    def to_table(self, baseline: str = BASELINE_LABEL, digits: int = 3) -> str:
        """Human-readable normalized-performance table."""
        norm = self.normalized(baseline)
        width = max(len(p) for p in norm) + 2
        head = "program".ljust(width) + "".join(
            f"{label:>14s}" for label in self.config_labels
        )
        lines = [f"[{self.platform_name}] normalized performance vs {baseline}", head]
        for program in norm:
            row = norm[program]
            lines.append(
                program.ljust(width)
                + "".join(
                    f"{row[label]:>14.{digits}f}" for label in self.config_labels
                )
            )
        return "\n".join(lines)


def grid_specs(
    platform: Platform,
    programs: Sequence[Program],
    configs: Sequence[ScheduleConfig],
    root_seed: int = 0,
    overhead: OverheadModel | None = None,
    contention: ContentionModel | None = None,
    backend: str | None = None,
    trace_context: str | None = None,
) -> list[JobSpec]:
    """The grid's cells as fleet jobs, row-major (program, then config)."""
    return [
        JobSpec(
            program=program,
            platform=platform,
            env=config.env,
            root_seed=root_seed,
            overhead=overhead,
            contention=contention,
            backend=backend,
            trace_context=trace_context,
            label=config.label,
        )
        for program in programs
        for config in configs
    ]


def run_grid(
    platform: Platform,
    programs: Iterable[Program] | None = None,
    configs: Sequence[ScheduleConfig] | None = None,
    root_seed: int = 0,
    overhead: OverheadModel | None = None,
    contention: ContentionModel | None = None,
    *,
    jobs: int = 1,
    cache: ResultCache | str | Path | None = None,
    timeout: float | None = None,
    retries: int = 2,
    progress: FleetProgress | None = None,
    obs_snapshot_path: str | Path | None = None,
    backend: str | None = None,
    trace_context: str | None = None,
    checkpoint=None,
    dispatcher: str | None = None,
    supervisor=None,
) -> GridResult:
    """Run a full programs x configurations grid on one platform.

    With the defaults this runs every cell serially in-process, exactly
    as it always has. ``jobs > 1`` fans the cells out over the
    :mod:`repro.fleet` process pool, and ``cache`` (a
    :class:`~repro.fleet.cache.ResultCache` or a directory path) makes
    unchanged cells instant hits across reruns; either way the simulator
    is deterministic, so the resulting grid is cell-for-cell identical
    to a serial run. ``timeout``/``retries`` set the fleet's per-job
    failure policy and ``progress`` collects fleet counters, events and
    the merged per-job observability capture. ``obs_snapshot_path``
    writes that merged fleet-level snapshot after the run (forcing the
    fleet path, and a fresh :class:`FleetProgress` when none was given)
    — serial and parallel runs of the same grid write byte-identical
    snapshots modulo wall-clock fields. ``backend`` names the execution
    backend every cell runs under (``None`` = environment override, then
    ``reference``); it becomes part of each job's digest, so grids run
    under different backends occupy disjoint cache entries.
    ``trace_context`` turns on causal span tracing for every cell (see
    :class:`~repro.fleet.jobs.JobSpec`); the merged snapshot then folds
    one labeled span tree per cell, byte-identically across worker
    counts and cache states. ``checkpoint`` (a
    :class:`~repro.fleet.checkpoint.SweepCheckpoint`) journals the
    grid's digest plan and its failed or poisoned cells; with ``cache``,
    a killed sweep resumes from the entries it wrote. ``dispatcher``
    forces the tier the cells start on (``process`` or ``inline``;
    default: ``process`` when ``jobs > 1``).
    ``supervisor`` (a :class:`~repro.fleet.supervisor.Supervisor`)
    shares hang-detection, poison-quarantine and circuit-breaker state
    across grids — the CLI passes one per invocation so a breaker
    tripped in one grid keeps the next grid off the broken tier.
    """
    programs = tuple(programs) if programs is not None else all_programs()
    configs = tuple(configs) if configs is not None else default_configs()
    if not programs or not configs:
        raise ExperimentError("empty grid")
    if obs_snapshot_path is not None and progress is None:
        progress = FleetProgress()
    grid = GridResult(
        platform_name=platform.name,
        config_labels=tuple(c.label for c in configs),
    )
    if (
        jobs <= 1 and cache is None and progress is None
        and trace_context is None and checkpoint is None
        and dispatcher is None and supervisor is None
    ):
        # The historical serial path: no pool, no cache I/O, no events.
        for program in programs:
            row: dict[str, float] = {}
            for config in configs:
                result = run_one(
                    platform,
                    program,
                    config,
                    root_seed=root_seed,
                    overhead=overhead,
                    contention=contention,
                    backend=backend,
                )
                row[config.label] = result.completion_time
            grid.times[program.name] = row
        return grid
    if isinstance(cache, (str, Path)):
        cache = ResultCache(cache)
    specs = grid_specs(
        platform, programs, configs, root_seed, overhead, contention,
        backend=backend, trace_context=trace_context,
    )
    outcomes = require_ok(
        run_jobs(
            specs,
            FleetConfig(
                jobs=jobs, timeout=timeout, retries=retries,
                dispatcher=dispatcher,
            ),
            cache=cache,
            progress=progress,
            checkpoint=checkpoint,
            supervisor=supervisor,
        )
    )
    it = iter(outcomes)
    for program in programs:
        grid.times[program.name] = {
            config.label: next(it).result.completion_time
            for config in configs
        }
    if obs_snapshot_path is not None:
        from repro.obs.snapshot import to_json

        Path(obs_snapshot_path).write_text(
            to_json(progress.obs_snapshot(meta={"platform": platform.name})),
            encoding="utf-8",
        )
    return grid
