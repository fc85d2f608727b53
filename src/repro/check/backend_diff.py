"""Differential backend fuzzing: drain off vs drain on, byte for byte.

Both simulated backends run the one slot engine of
:mod:`repro.backends.vectorized`: ``reference`` steps every event,
``vectorized`` integrates pure fixed-chunk pool drains in closed form.
The contract between them is not "close enough" — it is *byte
identity*: the same :class:`~repro.runtime.executor.LoopResult`, the
same scheduler decision log and the same observability output, for
every schedule, platform, cost distribution and fault plan. This module
is the gate on that contract.

:func:`diff_case` runs one :class:`~repro.check.generators.FuzzCase`
through each backend with a fresh observability bundle, span recorder
and trace recorder, and compares the result tuple, the canonical
decision log, the canonical metrics snapshot, the span document and the
trace intervals. :func:`diff_fuzz` drives a seeded campaign over
:func:`campaign_cases` (the generator the conformance fuzzer uses, so
the pools are identical) and greedily shrinks any mismatch to a minimal
reproducer with the conformance shrinker — a differential failure's
counterexample is a tiny, replayable case, not a 500-iteration
haystack.

Cases with fault plans never take the drain, so under ``--faults sim``
both names step the same events and the campaign checks only run-to-run
determinism. CI therefore runs ``python -m repro.check backends --cases
200 --seed 1`` alone and uploads the shrunk counterexamples on failure;
:mod:`repro.check.golden`'s engine corpus ties both that campaign and
``--cases 200 --seed 2 --faults sim`` to the event-heap simulator the
slot engine replaced, and the fault-plan conformance fuzz
(``python -m repro.check fuzz --faults sim``) covers the fault path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.check.fuzz import shrink as conformance_shrink
from repro.check.generators import (
    FuzzCase,
    case_costs,
    case_rng,
    generate_case,
    run_loop,
)
from repro.faults.model import plan_from_tuples
from repro.obs import Observability, SpanRecorder
from repro.obs.snapshot import canonical_json
from repro.sim.rng import stable_seed
from repro.tracing.trace import TraceRecorder

#: The pair every campaign compares unless told otherwise. The first
#: entry is the ground truth; every other entry must match it exactly.
DEFAULT_BACKENDS = ("reference", "vectorized")


def result_key(result) -> tuple:
    """A :class:`LoopResult` as a comparable value tuple.

    Covers every simulated field — times, per-thread finishes and
    iteration counts, dispatch/scheduler-call counters, the estimated-SF
    table and the full per-chunk range list. Excludes only ``extra``
    (the live scheduler object).
    """
    return (
        result.loop_name,
        result.start_time,
        result.end_time,
        tuple(result.finish_times),
        tuple(result.iterations),
        result.dispatches,
        result.scheduler_calls,
        (
            None
            if result.estimated_sf is None
            else tuple(sorted(result.estimated_sf.items()))
        ),
        tuple((t, lo, hi) for t, lo, hi in result.ranges),
    )


def decision_bytes(obs: Observability) -> bytes:
    """The run's decision log as canonical JSONL bytes."""
    return "\n".join(
        json.dumps(r, sort_keys=True, separators=(",", ":"))
        for r in obs.decisions.records
    ).encode("utf-8")


def metrics_json(obs: Observability) -> str:
    """The run's metrics snapshot in canonical JSON."""
    return canonical_json(obs.registry.snapshot())


@dataclass
class BackendObservation:
    """One backend's run of a case: the comparable result, log and obs
    output."""

    backend: str
    key: tuple
    decisions: bytes
    n_decisions: int
    metrics: str
    spans: str
    intervals: list


@dataclass
class CaseMismatch:
    """The first observable divergence between two backends on a case."""

    case: FuzzCase
    baseline: str
    candidate: str
    field_name: str
    detail: str

    def render(self) -> str:
        return (
            f"case: {self.case.describe()}\n"
            f"  {self.candidate} diverges from {self.baseline} "
            f"on {self.field_name}: {self.detail}"
        )


#: LoopResult tuple positions, for mismatch reporting.
_KEY_FIELDS = (
    "loop_name", "start_time", "end_time", "finish_times", "iterations",
    "dispatches", "scheduler_calls", "estimated_sf", "ranges",
)


def _first_jsonl_divergence(a: bytes, b: bytes) -> str:
    """Human-readable pointer at the first differing decision record."""
    la, lb = a.split(b"\n"), b.split(b"\n")
    if len(la) != len(lb):
        return f"record count {len(la)} != {len(lb)}"
    for i, (ra, rb) in enumerate(zip(la, lb)):
        if ra != rb:
            return (
                f"record {i}: {ra.decode('utf-8', 'replace')} != "
                f"{rb.decode('utf-8', 'replace')}"
            )
    return "identical?"  # pragma: no cover - only reached on a race


def _first_divergence(a, b) -> str:
    """Where two strings or interval lists first differ."""
    i = next(
        (i for i, (x, y) in enumerate(zip(a, b)) if x != y),
        min(len(a), len(b)),
    )
    return (
        f"at {i} of {len(a)} / {len(b)}: "
        f"{a[i:i + 60]!r} != {b[i:i + 60]!r}"
    )


def observe_case(case: FuzzCase, backend: str) -> BackendObservation:
    """Run one simulator case under ``backend`` with fresh observability.

    Fault tuples carry *fractions of the fault-free makespan* (the fuzz
    convention); the baseline probe that scales them always runs on the
    reference backend, so every backend under test receives the
    identical absolute-time plan.
    """
    obs = Observability(spans=SpanRecorder(context="diff"))
    trace = TraceRecorder()
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
            backend="reference",
        )
        faults_plan = plan_from_tuples(case.faults).scaled(
            max(probe.duration, 1e-9)
        )
    result = run_loop(
        case.build_platform(),
        case.build_spec(),
        n_iterations=case.n_iterations,
        costs=case_costs(case),
        overhead=case.overhead_model(),
        n_threads=case.n_threads,
        rng=case_rng(case),
        faults=faults_plan,
        obs=obs,
        trace=trace,
        backend=backend,
    )
    return BackendObservation(
        backend=backend,
        key=result_key(result),
        decisions=decision_bytes(obs),
        n_decisions=len(obs.decisions.records),
        metrics=metrics_json(obs),
        spans=obs.spans.as_json(),
        intervals=trace.intervals,
    )


def diff_case(
    case: FuzzCase, backends: tuple[str, ...] = DEFAULT_BACKENDS
) -> CaseMismatch | None:
    """Run a case through every backend; ``None`` means byte-identical.

    The first backend is the baseline. A crash in any backend is a
    mismatch too (reported with the exception text) — a backend may
    never fail where the reference succeeds.
    """
    baseline = observe_case(case, backends[0])
    for name in backends[1:]:
        try:
            cand = observe_case(case, name)
        except Exception as exc:  # noqa: BLE001 — a crash IS a finding
            return CaseMismatch(
                case, backends[0], name, "crash",
                f"{type(exc).__name__}: {exc}",
            )
        for i, field_name in enumerate(_KEY_FIELDS):
            if baseline.key[i] != cand.key[i]:
                return CaseMismatch(
                    case, backends[0], name, field_name,
                    f"{baseline.key[i]!r} != {cand.key[i]!r}",
                )
        if baseline.decisions != cand.decisions:
            return CaseMismatch(
                case, backends[0], name, "decision_log",
                _first_jsonl_divergence(baseline.decisions, cand.decisions),
            )
        for field_name in ("metrics", "spans", "intervals"):
            a, b = getattr(baseline, field_name), getattr(cand, field_name)
            if a != b:
                return CaseMismatch(
                    case, backends[0], name, field_name,
                    _first_divergence(a, b),
                )
    return None


@dataclass
class DiffFailure:
    """A mismatching case and its shrunk reproducer."""

    case: FuzzCase
    shrunk: FuzzCase
    mismatch: CaseMismatch  # the divergence on the shrunk reproducer

    def render(self) -> str:
        lines = [f"original: {self.case.describe()}"]
        if self.shrunk != self.case:
            lines.append(f"shrunk:   {self.shrunk.describe()}")
        lines.append(self.mismatch.render())
        return "\n".join(lines)


@dataclass
class DiffResult:
    """Outcome of one differential campaign."""

    n_cases: int
    seed: int
    backends: tuple[str, ...] = DEFAULT_BACKENDS
    failures: list[DiffFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        pair = " vs ".join(self.backends)
        if self.ok:
            return (
                f"backend diff ({pair}): {self.n_cases} cases, "
                f"seed {self.seed} — byte-identical"
            )
        lines = [
            f"backend diff ({pair}): {self.n_cases} cases, "
            f"seed {self.seed} — {len(self.failures)} mismatching case(s)"
        ]
        for i, f in enumerate(self.failures):
            lines.append(
                f"--- mismatch {i} (replay with seed={f.case.seed}) ---"
            )
            lines.append(f.render())
        return "\n".join(lines)


def campaign_cases(
    cases: int,
    seed: int,
    variants: tuple[str, ...] | None = None,
    platforms: tuple[str, ...] | None = None,
    faults: str | None = None,
) -> Iterator[FuzzCase]:
    """The cases of one differential campaign, in campaign order.

    Case derivation matches :func:`repro.check.fuzz.fuzz` — sub-seed
    ``stable_seed("fuzz", seed, index)`` — but under its own schedule
    pool: the conformance variants *plus* the plain ``static``,
    ``dynamic`` and ``guided`` kinds the grids run, since the vectorized
    drain engine only engages on dynamic-family schedules and the diff
    must cover both engine paths. ``faults="sim"`` rides a random fault
    plan on every case (``"stall"`` cases are real-thread-only and not
    meaningful here; passing it raises via the generator); the static
    kinds drop out of the default pool then — fault recovery requeues
    preempted work into the shared pool, which statically-partitioned
    threads never re-poll, so the *reference* itself cannot complete
    such runs (same restriction as the conformance fault campaign).
    """
    if variants is None:
        variants = (
            "dynamic,1", "dynamic,4", "guided,1",
            "aid_static", "aid_hybrid,80", "aid_dynamic,1,5",
            "aid_auto,1,5", "aid_steal,8",
        )
        if faults is None:
            variants = ("static", "static,7") + variants
    for i in range(cases):
        yield generate_case(
            stable_seed("fuzz", seed, i), variants, platforms, faults=faults
        )


def diff_fuzz(
    cases: int,
    seed: int,
    backends: tuple[str, ...] = DEFAULT_BACKENDS,
    variants: tuple[str, ...] | None = None,
    platforms: tuple[str, ...] | None = None,
    faults: str | None = None,
    shrink_failures: bool = True,
    max_failures: int = 5,
    progress: Callable[[int, FuzzCase], None] | None = None,
) -> DiffResult:
    """Run a differential campaign over :func:`campaign_cases`; stops
    early after ``max_failures``."""
    out = DiffResult(n_cases=cases, seed=seed, backends=tuple(backends))
    fails = lambda c: diff_case(c, out.backends) is not None  # noqa: E731
    for i, case in enumerate(
        campaign_cases(cases, seed, variants, platforms, faults)
    ):
        if progress is not None:
            progress(i, case)
        mismatch = diff_case(case, out.backends)
        if mismatch is None:
            continue
        shrunk = (
            conformance_shrink(case, fails=fails)
            if shrink_failures
            else case
        )
        final = diff_case(shrunk, out.backends)
        if final is None:  # pragma: no cover - shrinker raced a fixpoint
            shrunk, final = case, mismatch
        out.failures.append(DiffFailure(case, shrunk, final))
        if len(out.failures) >= max_failures:
            break
    return out
