"""Deterministic infrastructure-chaos harness for the fleet.

:mod:`repro.faults` (PR 5) injects *simulated* asymmetry faults — the
DES's own cores throttle and die. This module injects faults into the
**orchestrator's environment**: workers are SIGKILLed or stall inside a
job, the result cache's directory starts failing (ENOSPC, EACCES, torn
writes), and the process pool is broken out from under in-flight
futures. The supervision layer (:mod:`repro.fleet.supervisor`) exists
to survive exactly this, and the harness makes that survivable-ness a
*property*:

    For any seeded :class:`ChaosPlan` without poison jobs, the sweep
    completes with result tables and infrastructure-stripped merged
    observability snapshots **byte-identical** to the fault-free run;
    with poison jobs, exactly those jobs are quarantined and every
    other job completes.

Plans are frozen, JSON-round-trippable and seeded
(:func:`random_plan`), like PR-5 ``FaultPlan``s. Event kinds:

* ``kill`` — the worker executing a matching job dies: a real
  ``SIGKILL`` in ``mode="real"`` process workers (breaking the pool),
  a raised :class:`ChaosWorkerCrash` everywhere else (attributed
  exactly, which is what makes the poison-quarantine property testable
  in ``mode="sim"``). ``times=None`` makes a job *poison*: it kills
  its worker on every attempt, forever.
* ``stall`` — the worker sleeps ``seconds`` inside the job before
  computing; long stalls trip the per-job deadline (timeout or the
  supervisor's EWMA hang detector).
* ``cache`` — the next ``times`` cache ``get``/``put`` calls for
  matching digests raise ``OSError(errno)``; ``torn=True`` puts
  additionally leave truncated garbage at the entry path (an
  externally-torn write the scrub/quarantine path must absorb).
* ``pool-break`` — a worker process is SIGKILLed right after a
  matching submission (a ``BrokenProcessPool`` storm); on thread/inline
  tiers it degrades to a pure circuit-breaker infrastructure failure
  that fails no job.

The plan's mode picks the dispatcher: sim plans run on ``local``
threads, real plans on a ``process`` pool.

Cross-process determinism: the coordinating process activates a plan
(or points ``$REPRO_FLEET_CHAOS`` at its JSON file, which worker
processes inherit); bounded events (``times=N``) burn marker files in a
state directory with ``O_EXCL`` so one firing is one firing, whichever
process observes it and however often the pool is rebuilt.
"""

from __future__ import annotations

import errno as errno_mod
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import FleetError
from repro.sim.rng import stable_seed

#: Chaos-plan document identifier.
CHAOS_SCHEMA = "repro.fleet.chaos-plan/v1"

#: Environment variable carrying the plan JSON path into worker
#: processes (the coordinator sets it; workers load lazily).
CHAOS_ENV = "REPRO_FLEET_CHAOS"

#: Errno names a cache fault may raise.
CACHE_ERRNOS = ("ENOSPC", "EACCES", "EIO")


class ChaosWorkerCrash(RuntimeError):
    """An injected worker death (the simulated form of a SIGKILL).

    Deliberately *not* a :class:`~repro.errors.ReproError`: it models an
    infrastructure failure, not a library error, and the pool treats it
    exactly like a pool-breaking worker crash (it charges the job's
    poison-break count and the tier's circuit breaker).
    """


# -- plan model ------------------------------------------------------------


@dataclass(frozen=True)
class WorkerKill:
    """Kill the worker executing a matching job ``times`` times
    (``times=None`` = every attempt — a poison job)."""

    job: str  #: full digest, digest prefix, or ``"*"``
    times: int | None = 1

    kind = "kill"

    def validate(self) -> None:
        _check_job(self.job, self.kind)
        _check_times(self.times, self.kind, none_ok=True)


@dataclass(frozen=True)
class WorkerStall:
    """Sleep ``seconds`` inside a matching job before computing."""

    job: str
    seconds: float
    times: int | None = 1

    kind = "stall"

    def validate(self) -> None:
        _check_job(self.job, self.kind)
        _check_times(self.times, self.kind, none_ok=False)
        if not (self.seconds > 0.0):
            raise FleetError(
                f"stall seconds must be > 0, got {self.seconds}"
            )


@dataclass(frozen=True)
class CacheFault:
    """Fail the next ``times`` cache ``op`` calls for matching digests
    with ``OSError(errno_name)``; a huge ``times`` models a persistent
    failure (the directory stays broken for the whole sweep)."""

    op: str  #: "get" | "put"
    job: str
    errno_name: str = "ENOSPC"
    times: int | None = 1
    torn: bool = False  #: (put only) leave truncated bytes behind too

    kind = "cache"

    def validate(self) -> None:
        _check_job(self.job, self.kind)
        _check_times(self.times, self.kind, none_ok=True)
        if self.op not in ("get", "put"):
            raise FleetError(f"cache fault op must be get/put, got {self.op!r}")
        if self.errno_name not in CACHE_ERRNOS:
            raise FleetError(
                f"cache fault errno must be one of {CACHE_ERRNOS}, "
                f"got {self.errno_name!r}"
            )
        if self.torn and self.op != "put":
            raise FleetError("torn cache faults only apply to put")

    @property
    def errno(self) -> int:
        return getattr(errno_mod, self.errno_name)


@dataclass(frozen=True)
class PoolBreak:
    """Break the worker pool right after a matching submission."""

    job: str = "*"
    times: int | None = 1

    kind = "pool-break"

    def validate(self) -> None:
        _check_job(self.job, self.kind)
        _check_times(self.times, self.kind, none_ok=False)


def _check_job(job: str, kind: str) -> None:
    if not isinstance(job, str) or not job:
        raise FleetError(f"{kind} event needs a non-empty job selector")


def _check_times(times: int | None, kind: str, *, none_ok: bool) -> None:
    if times is None:
        if not none_ok:
            raise FleetError(f"{kind} event needs a bounded times")
        return
    if not isinstance(times, int) or times < 1:
        raise FleetError(f"{kind} times must be >= 1 (or None), got {times!r}")


_EVENT_KINDS = {
    "kill": WorkerKill,
    "stall": WorkerStall,
    "cache": CacheFault,
    "pool-break": PoolBreak,
}

ChaosEvent = WorkerKill | WorkerStall | CacheFault | PoolBreak


@dataclass(frozen=True)
class ChaosPlan:
    """A frozen, JSON-round-trippable infrastructure-fault schedule."""

    events: tuple[ChaosEvent, ...] = ()
    seed: int | None = None
    mode: str = "sim"  #: "sim" (raise) or "real" (SIGKILL workers)

    def validate(self) -> None:
        if self.mode not in ("sim", "real"):
            raise FleetError(f"chaos mode must be sim or real, got {self.mode!r}")
        for event in self.events:
            event.validate()

    def matching(self, kind: str, digest: str) -> list[tuple[int, ChaosEvent]]:
        """(plan index, event) pairs of ``kind`` whose selector matches."""
        return [
            (i, e)
            for i, e in enumerate(self.events)
            if e.kind == kind and (e.job == "*" or digest.startswith(e.job))
        ]

    def poison_digests(self, digests: Iterable[str]) -> frozenset[str]:
        """Digests this plan makes unrecoverable (kill on every attempt)."""
        unlimited = [
            e for e in self.events
            if e.kind == "kill" and e.times is None
        ]
        return frozenset(
            d for d in digests
            if any(e.job == "*" or d.startswith(e.job) for e in unlimited)
        )

    # -- JSON round trip ---------------------------------------------------

    def to_payload(self) -> dict:
        events = []
        for e in self.events:
            rec: dict = {"kind": e.kind, "job": e.job, "times": e.times}
            if e.kind == "stall":
                rec["seconds"] = e.seconds
            elif e.kind == "cache":
                rec["op"] = e.op
                rec["errno"] = e.errno_name
                rec["torn"] = e.torn
            events.append(rec)
        return {
            "schema": CHAOS_SCHEMA,
            "seed": self.seed,
            "mode": self.mode,
            "events": events,
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "ChaosPlan":
        if payload.get("schema") != CHAOS_SCHEMA:
            raise FleetError(
                f"not a chaos plan document: schema={payload.get('schema')!r}"
            )
        events: list[ChaosEvent] = []
        for rec in payload.get("events", []):
            kind = rec.get("kind")
            if kind not in _EVENT_KINDS:
                raise FleetError(f"unknown chaos event kind {kind!r}")
            times = rec.get("times")
            times = None if times is None else int(times)
            job = str(rec.get("job", ""))
            if kind == "kill":
                events.append(WorkerKill(job=job, times=times))
            elif kind == "stall":
                events.append(
                    WorkerStall(
                        job=job, seconds=float(rec["seconds"]), times=times
                    )
                )
            elif kind == "cache":
                events.append(
                    CacheFault(
                        op=str(rec.get("op", "get")),
                        job=job,
                        errno_name=str(rec.get("errno", "ENOSPC")),
                        times=times,
                        torn=bool(rec.get("torn", False)),
                    )
                )
            else:
                events.append(PoolBreak(job=job, times=times))
        seed = payload.get("seed")
        plan = cls(
            events=tuple(events),
            seed=None if seed is None else int(seed),
            mode=str(payload.get("mode", "sim")),
        )
        plan.validate()
        return plan

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, indent=2)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ChaosPlan":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise FleetError(f"unreadable chaos plan at {path}: {exc}") from exc
        return cls.from_payload(doc)


def random_plan(
    seed: int,
    digests: Sequence[str],
    *,
    mode: str = "sim",
    poison: int = 0,
    kinds: Sequence[str] = ("kill", "stall", "cache", "pool-break"),
    max_events: int = 4,
    stall_choices: Sequence[float] = (0.06, 0.12, 0.5),
) -> ChaosPlan:
    """A seeded plan over the sweep's actual job digests.

    Recoverability by construction: each digest carries at most one
    pool-breaking event (kill or stall), which stays below the default
    poison threshold of 2, so a ``poison=0`` plan never quarantines
    anything — the byte-equality property's precondition. ``poison``
    additionally marks that many distinct digests as poison jobs
    (kill on every attempt).
    """
    if not digests:
        raise FleetError("random chaos plan needs at least one digest")
    if poison > len(digests):
        raise FleetError(
            f"cannot poison {poison} of {len(digests)} digests"
        )
    rng = np.random.default_rng(stable_seed("fleet-chaos-plan", seed))
    events: list[ChaosEvent] = []
    breakable: set[str] = set()  # digests already carrying a kill/stall
    n_events = 1 + int(rng.integers(0, max_events))
    for _ in range(n_events):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        digest = digests[int(rng.integers(0, len(digests)))]
        if kind in ("kill", "stall") and digest in breakable:
            continue  # cap break-causing events at one per digest
        if kind == "kill":
            breakable.add(digest)
            events.append(WorkerKill(job=digest, times=1))
        elif kind == "stall":
            breakable.add(digest)
            seconds = float(
                stall_choices[int(rng.integers(0, len(stall_choices)))]
            )
            events.append(WorkerStall(job=digest, seconds=seconds, times=1))
        elif kind == "cache":
            op = ("get", "put")[int(rng.integers(0, 2))]
            times: int | None = (1, 2, 1_000_000)[int(rng.integers(0, 3))]
            torn = op == "put" and rng.random() < 0.25
            events.append(
                CacheFault(
                    op=op,
                    job=("*", digest)[int(rng.integers(0, 2))],
                    errno_name=CACHE_ERRNOS[
                        int(rng.integers(0, len(CACHE_ERRNOS)))
                    ],
                    times=times,
                    torn=torn,
                )
            )
        else:
            events.append(PoolBreak(job="*", times=1 + int(rng.integers(0, 3))))
    if poison:
        candidates = [d for d in digests if d not in breakable]
        if len(candidates) < poison:
            candidates = list(digests)
        picks = rng.choice(len(candidates), size=poison, replace=False)
        for p in sorted(int(i) for i in picks):
            events.append(WorkerKill(job=candidates[p], times=None))
    plan = ChaosPlan(events=tuple(events), seed=seed, mode=mode)
    plan.validate()
    return plan


# -- runtime engine --------------------------------------------------------


class ChaosEngine:
    """Interprets a plan at the injection seams, with firing state.

    Bounded events (``times=N``) must fire exactly N times across every
    process that observes the plan, surviving pool rebuilds (each worker
    process re-loads the plan from the environment). With a
    ``state_dir`` the engine burns one ``O_EXCL`` marker file per
    firing; without one (in-process activation) it counts in memory
    under a lock.
    """

    def __init__(
        self, plan: ChaosPlan, state_dir: str | Path | None = None
    ) -> None:
        plan.validate()
        self.plan = plan
        self.state_dir = None if state_dir is None else Path(state_dir)
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
        self._fired: dict[int, int] = {}
        self._lock = threading.Lock()

    def _fire(self, event_index: int, times: int | None) -> bool:
        """Consume one firing of an event; False when exhausted."""
        if times is None:
            return True
        if self.state_dir is not None:
            for k in range(times):
                marker = self.state_dir / f"evt-{event_index}-{k}"
                try:
                    fd = os.open(
                        marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                    )
                except FileExistsError:
                    continue
                except OSError:
                    return False
                os.close(fd)
                return True
            return False
        with self._lock:
            n = self._fired.get(event_index, 0)
            if n >= times:
                return False
            self._fired[event_index] = n + 1
            return True

    def worker_action(self, digest: str) -> tuple[str, float] | None:
        """The injected action for one execution of ``digest``:
        ``("kill", 0.0)``, ``("stall", seconds)``, or None."""
        for idx, event in self.plan.matching("kill", digest):
            if self._fire(idx, event.times):
                return ("kill", 0.0)
        for idx, event in self.plan.matching("stall", digest):
            if self._fire(idx, event.times):
                return ("stall", event.seconds)
        return None

    def cache_fault(self, op: str, digest: str) -> CacheFault | None:
        """The cache fault (if any) to raise for this ``op`` call."""
        for idx, event in self.plan.matching("cache", digest):
            if event.op == op and self._fire(idx, event.times):
                return event
        return None

    def pool_break(self, digest: str) -> bool:
        """Should this submission break the pool?"""
        for idx, event in self.plan.matching("pool-break", digest):
            if self._fire(idx, event.times):
                return True
        return False


#: The active engine: ``(source, engine)`` where source is the env value
#: it was loaded from, or ``"<explicit>"`` for in-process activation.
_ACTIVE: tuple[str, ChaosEngine] | None = None


def activate(
    plan: ChaosPlan, state_dir: str | Path | None = None
) -> ChaosEngine:
    """Install a plan in this process (wins over the environment)."""
    global _ACTIVE
    engine = ChaosEngine(plan, state_dir=state_dir)
    _ACTIVE = ("<explicit>", engine)
    return engine


def deactivate() -> None:
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def active(plan: ChaosPlan, state_dir: str | Path | None = None):
    engine = activate(plan, state_dir=state_dir)
    try:
        yield engine
    finally:
        deactivate()


def current_engine() -> ChaosEngine | None:
    """The active engine: an explicit activation, else a plan loaded
    (and cached per env value) from ``$REPRO_FLEET_CHAOS``."""
    global _ACTIVE
    if _ACTIVE is not None and _ACTIVE[0] == "<explicit>":
        return _ACTIVE[1]
    source = os.environ.get(CHAOS_ENV)
    if not source:
        _ACTIVE = None
        return None
    if _ACTIVE is not None and _ACTIVE[0] == source:
        return _ACTIVE[1]
    plan = ChaosPlan.load(source)
    engine = ChaosEngine(plan, state_dir=Path(source).with_name(
        Path(source).name + ".state"
    ))
    _ACTIVE = (source, engine)
    return engine


def inject_worker_chaos(digest: str, *, in_worker: bool) -> None:
    """The worker-side injection seam, called before a job executes.

    ``in_worker`` is True only inside spawned worker processes — a
    ``mode="real"`` kill there is a genuine SIGKILL (breaking the
    pool); everywhere else (sim mode, or coordinator-side tiers after
    degradation) the kill is a raised :class:`ChaosWorkerCrash`, never
    a signal that would take the coordinator down with it.
    """
    engine = current_engine()
    if engine is None:
        return
    action = engine.worker_action(digest)
    if action is None:
        return
    kind, seconds = action
    if kind == "stall":
        time.sleep(seconds)
        return
    if in_worker and engine.plan.mode == "real":
        import signal

        os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))
    raise ChaosWorkerCrash(  # chaos: injected foreign failure
        f"worker killed by chaos plan (job {digest[:12]})"
    )


# -- fault-injecting cache wrapper -----------------------------------------


class ChaosCache:
    """A :class:`~repro.fleet.cache.ResultCache` proxy whose ``get`` /
    ``put`` raise the plan's injected I/O errors.

    A torn put additionally writes truncated garbage to the entry path
    before raising — the externally-torn write the read path's
    quarantine (and the scrub) must absorb. Everything else delegates
    to the wrapped cache unchanged.
    """

    def __init__(self, inner, engine: ChaosEngine) -> None:
        self._inner = inner
        self._engine = engine

    def get(self, digest: str):
        fault = self._engine.cache_fault("get", digest)
        if fault is not None:
            raise OSError(  # chaos: injected foreign failure
                fault.errno, f"injected cache get fault ({fault.errno_name})"
            )
        return self._inner.get(digest)

    def put(self, result):
        fault = self._engine.cache_fault("put", result.digest)
        if fault is not None:
            if fault.torn:
                path = self._inner.path_for(result.digest)
                try:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text(
                        '{"schema": "torn-by-chaos", "digest": "'
                        + result.digest[:16],
                        encoding="utf-8",
                    )
                except OSError:
                    pass
            raise OSError(  # chaos: injected foreign failure
                fault.errno, f"injected cache put fault ({fault.errno_name})"
            )
        return self._inner.put(result)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


# -- byte-equality-under-chaos check ---------------------------------------


def infrastructure_comparable(snapshot: Mapping) -> dict:
    """The comparable snapshot minus every fleet-infrastructure
    instrument (``fleet_*`` counters/gauges/histograms).

    What remains is the merged per-job simulated-time observability —
    the part a chaos run must reproduce byte-for-byte. Retry counts,
    cache temperature, hang/poison/breaker tallies are infrastructure
    weather, not simulation output, and are stripped.
    """
    from repro.obs.merge import comparable_snapshot

    doc = comparable_snapshot(snapshot)
    metrics = doc.get("metrics")
    if isinstance(metrics, dict):
        for kind, items in list(metrics.items()):
            if isinstance(items, list):
                metrics[kind] = [
                    m
                    for m in items
                    if not str(m.get("name", "")).startswith("fleet_")
                ]
    return doc


def outcome_table(outcomes) -> str:
    """A canonical text table of successful outcomes (the chaos check's
    byte-comparison surface; ``repr`` floats, so equality is exact)."""
    lines = []
    for o in outcomes:
        if o.result is None:
            continue
        r = o.result
        lines.append(
            f"{r.program}\t{o.spec.label or o.spec.env.schedule}\t"
            f"{r.completion_time!r}\t{r.serial_time!r}\t{r.total_dispatches}"
        )
    return "\n".join(lines)


def chaos_specs(root_seed: int = 0):
    """The small standard grid the chaos check sweeps (4 jobs)."""
    from repro.amp.presets import odroid_xu4
    from repro.experiments.harness import default_configs, grid_specs
    from repro.workloads.registry import get_program

    return grid_specs(
        odroid_xu4(),
        [get_program("EP"), get_program("IS")],
        default_configs()[:2],
        root_seed,
    )


def chaos_dispatcher(mode: str) -> str:
    """The dispatcher a plan mode works on. Sim-mode firing counts live
    in the coordinator's memory and need exact break attribution, so
    sim plans run on ``local`` threads; real-mode kills are genuine
    SIGKILLs, which only a ``process`` pool turns into dead workers."""
    return "process" if mode == "real" else "local"


def run_chaos_case(
    specs,
    plan: ChaosPlan,
    baseline: dict,
    workdir: str | Path,
    *,
    jobs: int = 2,
    timeout: float = 0.3,
    retries: int = 2,
    poison_threshold: int | None = None,
) -> dict:
    """Run one sweep under ``plan`` and compare it to ``baseline``.

    ``baseline`` comes from :func:`fault_free_baseline`. Returns a
    JSON-ready verdict payload (``ok``, mismatches, quarantine sets,
    fleet counters). The plan's mode picks the dispatcher
    (:func:`chaos_dispatcher`). Real-mode plans default to a disarmed
    poison threshold unless the plan carries poison jobs: pool-break
    attribution in a real pool is heuristic (lowest in-flight index),
    so innocent jobs may absorb break charges.
    """
    from repro.fleet.cache import ResultCache
    from repro.fleet.checkpoint import SweepCheckpoint
    from repro.fleet.pool import FleetConfig, run_jobs
    from repro.fleet.progress import FleetProgress
    from repro.fleet.supervisor import Supervisor, SupervisorConfig

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    keys = [s.key for s in specs]
    expected_poison = plan.poison_digests(keys)
    if poison_threshold is None:
        if plan.mode == "real" and not expected_poison:
            poison_threshold = 1_000_000
        else:
            poison_threshold = 2
    supervisor = Supervisor(
        SupervisorConfig(
            hang_floor=0.05,
            poison_threshold=poison_threshold,
            breaker_threshold=3,
            breaker_cooldown=8,
            seed=plan.seed or 0,
        )
    )
    progress = FleetProgress()
    saved_env = os.environ.get(CHAOS_ENV)
    try:
        if plan.mode == "real":
            plan_path = plan.save(workdir / "chaos-plan.json")
            os.environ[CHAOS_ENV] = str(plan_path)
            engine = activate(plan, state_dir=workdir / "chaos-state")
        else:
            engine = activate(plan)
        cache = ChaosCache(ResultCache(workdir / "cache"), engine)
        checkpoint = SweepCheckpoint(workdir / "checkpoint.jsonl")
        retries_eff = retries if plan.mode != "real" else max(retries, 6)
        outcomes = run_jobs(
            specs,
            FleetConfig(
                jobs=jobs,
                timeout=timeout,
                retries=retries_eff,
                backoff=0.001,
                dispatcher=chaos_dispatcher(plan.mode),
            ),
            cache=cache,
            progress=progress,
            checkpoint=checkpoint,
            supervisor=supervisor,
        )
    finally:
        deactivate()
        if saved_env is None:
            os.environ.pop(CHAOS_ENV, None)
        else:
            os.environ[CHAOS_ENV] = saved_env

    mismatches: list[str] = []
    actual_poison = {o.spec.key for o in outcomes if o.poisoned}
    if actual_poison != set(expected_poison):
        mismatches.append(
            f"quarantine set mismatch: expected "
            f"{sorted(d[:12] for d in expected_poison)}, got "
            f"{sorted(d[:12] for d in actual_poison)}"
        )
    for o, base in zip(outcomes, baseline["results"]):
        if o.spec.key in expected_poison:
            continue
        if not o.ok:
            mismatches.append(
                f"{o.spec.describe()}: failed under chaos: {o.error}"
            )
        elif o.result != base:
            mismatches.append(
                f"{o.spec.describe()}: result differs from fault-free run"
            )
    if not expected_poison:
        if outcome_table(outcomes) != baseline["table"]:
            mismatches.append("result table differs from fault-free run")
        snap = json.dumps(
            infrastructure_comparable(progress.obs_snapshot()),
            sort_keys=True,
        )
        if snap != baseline["snapshot"]:
            mismatches.append(
                "infrastructure-stripped obs snapshot differs from "
                "fault-free run"
            )
    return {
        "seed": plan.seed,
        "mode": plan.mode,
        "events": len(plan.events),
        "ok": not mismatches,
        "mismatches": mismatches,
        "expected_poison": sorted(expected_poison),
        "actual_poison": sorted(actual_poison),
        "plan": plan.to_payload(),
        "fleet": progress.summary(),
    }


def fault_free_baseline(specs) -> dict:
    """The fault-free reference run (inline, no cache, no chaos)."""
    from repro.fleet.pool import FleetConfig, require_ok, run_jobs
    from repro.fleet.progress import FleetProgress

    progress = FleetProgress()
    outcomes = require_ok(
        run_jobs(specs, FleetConfig(jobs=1), progress=progress)
    )
    return {
        "results": [o.result for o in outcomes],
        "table": outcome_table(outcomes),
        "snapshot": json.dumps(
            infrastructure_comparable(progress.obs_snapshot()),
            sort_keys=True,
        ),
    }


def run_chaos_check(
    *,
    plans: int = 1,
    seed: int = 0,
    poison: int = 0,
    mode: str = "sim",
    jobs: int = 2,
    workdir: str | Path | None = None,
    emit=print,
) -> tuple[int, dict]:
    """The ``python -m repro.fleet chaos`` entry point.

    Sweeps ``plans`` seeded chaos plans (seeds ``seed .. seed+plans-1``)
    over the standard small grid and checks the byte-equality /
    quarantine property against one fault-free baseline. Returns
    ``(exit_code, report_payload)``; the report carries every failing
    plan verbatim so a CI failure is replayable.
    """
    import tempfile

    specs = chaos_specs()
    baseline = fault_free_baseline(specs)
    keys = [s.key for s in specs]
    cases = []
    failed = 0
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        base_dir = Path(workdir) if workdir is not None else Path(tmp)
        for i in range(plans):
            plan = random_plan(seed + i, keys, mode=mode, poison=poison)
            verdict = run_chaos_case(
                specs,
                plan,
                baseline,
                base_dir / f"seed-{seed + i}",
                jobs=jobs,
            )
            cases.append(verdict)
            status = "ok" if verdict["ok"] else "MISMATCH"
            emit(
                f"chaos seed {seed + i}: {status} "
                f"({verdict['events']} events, "
                f"{verdict['fleet'].get('retries', 0)} retried, "
                f"{len(verdict['actual_poison'])} poisoned)"
            )
            if not verdict["ok"]:
                failed += 1
                for m in verdict["mismatches"]:
                    emit(f"  - {m}")
    report = {
        "schema": "repro.fleet.chaos-report/v1",
        "plans": plans,
        "seed": seed,
        "mode": mode,
        "dispatcher": chaos_dispatcher(mode),
        "poison": poison,
        "failed": failed,
        "cases": cases,
    }
    emit(
        f"chaos: {plans - failed}/{plans} plans byte-identical to the "
        f"fault-free run" + (f", {failed} FAILED" if failed else "")
    )
    return (1 if failed else 0), report
