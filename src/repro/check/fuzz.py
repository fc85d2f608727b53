"""Deterministic schedule fuzzing with greedy shrinking.

``fuzz(cases, seed)`` derives one :class:`~repro.check.generators.FuzzCase`
per index from the seed (pure function — the same ``--cases/--seed``
always replays the same executions), runs each through the simulator
with a conformance recorder attached, and hands the observation to the
oracle. A failing case is shrunk to a minimal reproducer by greedily
re-running simplified variants (fewer iterations, smaller platform,
uniform costs, zero overhead) until no simplification still fails.

Runtime self-check aborts (the executor's own iteration-count assertion,
work-share errors) are caught and folded into the report — the take log
recorded up to the abort usually carries the actual evidence, e.g. the
overlapping grants behind an iteration-count mismatch.

Every simulator case also runs with a live observability bundle, and
:func:`obs_violations` validates the resulting snapshot: canonical-JSON
round-trip (no NaN/inf leaks), busy-window occupancy bounds, and merge
self-consistency (one fold rebuilds the snapshot exactly, a second fold
exactly doubles it). A violation is folded into ``check.error`` like any
other runtime abort, so the fuzzer shrinks it.

The bundle carries a span recorder too, so every case also checks the
causal span tree (:func:`repro.obs.spans.span_violations` — single
root, no cycles, chunk spans nested inside their phase/loop spans) and
the critical path (:func:`repro.obs.critpath.critpath_violations` —
per-category attribution telescopes exactly to the makespan).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from repro.check.generators import (
    FuzzCase,
    case_costs,
    case_rng,
    generate_case,
    run_loop,
    simplified,
)
from repro.check.mutants import apply_mutant
from repro.check.oracle import ConformanceReport, verify_loop
from repro.check.recording import CheckContext
from repro.faults.model import plan_from_tuples
from repro.obs import Observability
from repro.sim.rng import stable_seed
from repro.tracing.trace import TraceRecorder


@dataclass
class CaseResult:
    """One fuzz-case execution with its oracle verdict."""

    case: FuzzCase
    report: ConformanceReport
    check: CheckContext
    trace: TraceRecorder

    @property
    def ok(self) -> bool:
        return self.report.ok

    def render(self) -> str:
        return (
            f"case: {self.case.describe()}\n"
            + self.report.render(self.trace)
        )


def obs_violations(metrics: dict) -> list[str]:
    """Invariant checks over one registry snapshot (empty list = clean).

    These are the properties the telemetry layer promises everywhere
    else (fleet shipping, snapshot diffing, trace export) and which a
    scheduling bug could silently corrupt:

    * the document serializes as strict canonical JSON (``allow_nan``
      off — a NaN rate or infinite span poisons every merge) and
      round-trips unchanged;
    * busy-mode windows never hold more busy time than ``window * norm``
      (a sampler overrun means overlapping execution spans);
    * folding the snapshot into a fresh registry rebuilds it exactly,
      both as kept documents and after converting them to live
      instruments, and folding it twice exactly doubles counters and
      digest counts (the fleet-merge determinism contract, jobs=1 vs
      jobs=N).
    """
    from repro.obs.merge import merge_metrics_into
    from repro.obs.registry import MetricsRegistry

    out: list[str] = []
    try:
        text = json.dumps(metrics, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        return [f"obs: snapshot is not strict JSON: {exc}"]
    if json.loads(text) != metrics:
        out.append("obs: snapshot does not round-trip through JSON")

    eps = 1e-9
    for doc in metrics.get("timeseries", []):
        if doc.get("mode") != "busy":
            continue
        window = float(doc["window"])
        cap = window * float(doc.get("norm", 1.0))
        for idx, point in (doc.get("points") or {}).items():
            if point[0] > cap * (1.0 + eps) + eps:
                out.append(
                    f"obs: busy window overrun in {doc['name']}"
                    f"{doc.get('labels')}: window {idx} holds "
                    f"{point[0]!r}s > {cap!r}s capacity"
                )

    once = MetricsRegistry()
    merge_metrics_into(once, metrics)
    if json.dumps(once.snapshot(), sort_keys=True) != text:
        out.append("obs: merging the snapshot once does not rebuild it")
    # A one-shot merge keeps every document as it came; converting them
    # runs the fold, which must write the same bytes.
    once.realize()
    if json.dumps(once.snapshot(), sort_keys=True) != text:
        out.append(
            "obs: converting the kept documents to live instruments "
            "does not rebuild the snapshot"
        )
    twice = MetricsRegistry()
    merge_metrics_into(twice, metrics)
    merge_metrics_into(twice, metrics)
    doubled = twice.snapshot()
    for a, b in zip(metrics.get("counters", []), doubled.get("counters", [])):
        if abs(b["value"] - 2.0 * a["value"]) > 1e-9 * max(1.0, abs(a["value"])):
            out.append(
                f"obs: counter {a['name']}{a['labels']} does not double "
                f"under self-merge ({a['value']} -> {b['value']})"
            )
            break
    for a, b in zip(metrics.get("digests", []), doubled.get("digests", [])):
        if b.get("count") != 2 * a.get("count"):
            out.append(
                f"obs: digest {a['name']}{a['labels']} count does not "
                f"double under self-merge"
            )
            break
    return out


def run_case(case: FuzzCase, mutant: str | None = None) -> CaseResult:
    """Execute one case under full observation and run the oracle.

    Real cases (``case.real``) run on the thread team with the watchdog
    armed and the case's stall plan injected. Simulator cases with a
    fault plan first run a fault-free probe (same costs and jitter) to
    learn the baseline makespan, then scale the plan's fractional times
    onto it — a fault tuple at ``t0=0.5`` always lands mid-loop no
    matter how long the case runs.
    """
    if case.real:
        return _run_real_case(case, mutant)
    from repro.obs import SpanRecorder

    check = CheckContext()
    trace = TraceRecorder()
    obs = Observability(spans=SpanRecorder(context="fuzz"))
    faults_plan = None
    if case.faults:
        probe = run_loop(
            case.build_platform(),
            case.build_spec(),
            n_iterations=case.n_iterations,
            costs=case_costs(case),
            overhead=case.overhead_model(),
            n_threads=case.n_threads,
            rng=case_rng(case),
        )
        faults_plan = plan_from_tuples(case.faults).scaled(
            max(probe.duration, 1e-9)
        )
    with apply_mutant(mutant):
        try:
            run_loop(
                case.build_platform(),
                case.build_spec(),
                n_iterations=case.n_iterations,
                costs=case_costs(case),
                overhead=case.overhead_model(),
                n_threads=case.n_threads,
                trace=trace,
                check=check,
                rng=case_rng(case),
                faults=faults_plan,
                obs=obs,
            )
        except Exception as exc:  # noqa: BLE001 — a crash IS a finding
            check.error = f"{type(exc).__name__}: {exc}"
    if check.error is None:
        bad = obs_violations(obs.registry.snapshot())
        if not bad:
            from repro.obs.critpath import critpath_violations
            from repro.obs.spans import span_violations

            span_doc = obs.spans.as_doc()
            bad = span_violations(span_doc) or critpath_violations(span_doc)
        if bad:
            check.error = "; ".join(bad)
    return CaseResult(case, verify_loop(check, trace), check, trace)


#: Per-iteration busy-sleep of the real-case loop body. Long enough that
#: a chunk is observable, short enough that a 24-iteration case is fast.
_REAL_BODY_SLEEP = 3e-4


def _run_real_case(case: FuzzCase, mutant: str | None) -> CaseResult:
    import time

    from repro.exec_real.team import ThreadTeam
    from repro.faults.model import FaultPlan

    check = CheckContext()
    trace = TraceRecorder()
    platform = case.build_platform()
    nt = case.n_threads if case.n_threads is not None else platform.n_cores
    stalls = plan_from_tuples(case.faults) if case.faults else FaultPlan()

    def body(tid: int, lo: int, hi: int) -> None:
        for _ in range(lo, hi):
            time.sleep(_REAL_BODY_SLEEP)

    with apply_mutant(mutant):
        try:
            team = ThreadTeam(nt, platform)
            team.parallel_for(
                case.n_iterations,
                body,
                case.build_spec(),
                check=check,
                watchdog_timeout=case.watchdog,
                stalls=stalls,
            )
        except Exception as exc:  # noqa: BLE001 — a crash IS a finding
            check.error = f"{type(exc).__name__}: {exc}"
    return CaseResult(case, verify_loop(check, trace), check, trace)


def shrink(
    case: FuzzCase,
    fails: Callable[[FuzzCase], bool] | None = None,
    mutant: str | None = None,
    max_attempts: int = 200,
) -> FuzzCase:
    """Greedily minimize a failing case.

    Repeatedly tries the simplification candidates from
    :func:`repro.check.generators.simplified`, keeping the first that
    still fails, until a fixpoint (no candidate fails) — rounds matter
    because one shrink can unlock another (a smaller platform lowers the
    iteration count a bug needs).
    """
    if fails is None:
        fails = lambda c: not run_case(c, mutant=mutant).ok  # noqa: E731
    current = case
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for cand in simplified(current):
            attempts += 1
            if attempts > max_attempts:
                break
            if fails(cand):
                current = cand
                improved = True
                break
    return current


@dataclass
class FuzzFailure:
    """A failing case and its shrunk reproducer."""

    case: FuzzCase
    shrunk: FuzzCase
    result: CaseResult  # oracle verdict for the shrunk reproducer

    def render(self) -> str:
        lines = [f"original: {self.case.describe()}"]
        if self.shrunk != self.case:
            lines.append(f"shrunk:   {self.shrunk.describe()}")
        lines.append(self.result.report.render(self.result.trace))
        return "\n".join(lines)


@dataclass
class FuzzResult:
    """Outcome of one fuzzing campaign."""

    n_cases: int
    seed: int
    failures: list[FuzzFailure] = field(default_factory=list)
    mutant: str | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        tag = f" mutant={self.mutant}" if self.mutant else ""
        if self.ok:
            return (
                f"fuzz: {self.n_cases} cases, seed {self.seed}{tag} — "
                f"zero violations"
            )
        lines = [
            f"fuzz: {self.n_cases} cases, seed {self.seed}{tag} — "
            f"{len(self.failures)} failing case(s)"
        ]
        for i, f in enumerate(self.failures):
            lines.append(f"--- failure {i} (replay with seed={f.case.seed}) ---")
            lines.append(f.render())
        return "\n".join(lines)


def fuzz(
    cases: int,
    seed: int,
    variants: tuple[str, ...] | None = None,
    platforms: tuple[str, ...] | None = None,
    mutant: str | None = None,
    shrink_failures: bool = True,
    max_failures: int = 5,
    progress: Callable[[int, FuzzCase], None] | None = None,
    faults: str | None = None,
) -> FuzzResult:
    """Run a fuzzing campaign; stops early after ``max_failures``.

    Each case's sub-seed is ``stable_seed("fuzz", seed, index)`` — a
    failure report's seed therefore replays that exact case standalone
    via :func:`repro.check.generators.generate_case`. ``faults`` selects
    the fault-injection mode (``None``, ``"sim"`` or ``"stall"``; see
    :func:`repro.check.generators.generate_case`).
    """
    out = FuzzResult(n_cases=cases, seed=seed, mutant=mutant)
    for i in range(cases):
        case = generate_case(
            stable_seed("fuzz", seed, i), variants, platforms, faults=faults
        )
        if progress is not None:
            progress(i, case)
        result = run_case(case, mutant=mutant)
        if result.ok:
            continue
        shrunk = shrink(case, mutant=mutant) if shrink_failures else case
        out.failures.append(FuzzFailure(case, shrunk, run_case(shrunk, mutant=mutant)))
        if len(out.failures) >= max_failures:
            break
    return out
