"""Machinery shared by the three AID scheduling variants.

All AID methods start with a *sampling phase*: each worker thread runs
one chunk of iterations while the runtime timestamps it, and the loop's
speedup factor (SF) per core type is approximated as

    SF_j = (mean sampling time on the slowest type) /
           (mean sampling time on type j)

maintained scalably with one atomic time-sum counter per core type plus
an atomic completed-threads counter (paper Sec. 4.2, footnote 2). From
the SF the target distribution follows: with N_j threads on type j and
NI iterations to distribute,

    k = NI / sum_j (N_j * SF_j)

and a thread on type j should execute ``SF_j * k`` iterations in total
(``k`` on the slowest type, since SF_0 = 1). This is the paper's NC-type
generalization; for two types it reduces to ``k = NI / (N_B*SF + N_S)``.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SchedulerError
from repro.obs.decisions import DecisionEmitter, sf_as_json
from repro.runtime.atomics import AtomicCounter, AtomicFloat
from repro.runtime.context import LoopContext
from repro.sched.base import LoopScheduler

#: Per-thread scheduler states (paper Figs. 3 and 5).
START = "START"
SAMPLING = "SAMPLING"
SAMPLING_WAIT = "SAMPLING_WAIT"
AID = "AID"
AID_WAIT = "AID_WAIT"
DRAIN = "DRAIN"
DONE = "DONE"


class SamplingState:
    """Sampling bookkeeping shared by a team.

    One time-sum accumulator per core type plus a completion counter;
    exactly the lock-free counters footnote 2 of the paper describes.
    """

    def __init__(self, n_types: int) -> None:
        self.time_sums = [AtomicFloat(0.0) for _ in range(n_types)]
        self.sample_counts = [AtomicCounter(0) for _ in range(n_types)]
        self.completed = AtomicCounter(0)

    def record(self, type_index: int, duration: float) -> int:
        """Log one thread's sampling-phase duration.

        Returns the number of threads that have completed sampling after
        this record (the caller compares it against the team size to
        detect "I am the last sampler").
        """
        if duration < 0.0:
            raise SchedulerError(f"negative sampling duration {duration!r}")
        self.time_sums[type_index].add(duration)
        self.sample_counts[type_index].add_fetch(1)
        return self.completed.add_fetch(1)

    def mean_times(self) -> list[float]:
        """Mean sampling duration per core type (0.0 where unsampled)."""
        out = []
        for s, c in zip(self.time_sums, self.sample_counts):
            n = c.value
            out.append(s.value / n if n else 0.0)
        return out

    def sf_per_type(self) -> dict[int, float]:
        """Estimated SF per core type, relative to the slowest type.

        Types with no samples, or degenerate zero timings, fall back to
        SF = 1 (no asymmetry information — distribute evenly).
        """
        means = self.mean_times()
        base = means[0]
        sf: dict[int, float] = {}
        for j, m in enumerate(means):
            if base > 0.0 and m > 0.0:
                sf[j] = base / m
            else:
                sf[j] = 1.0
        sf[0] = 1.0
        return sf


def decision_emitter(ctx: LoopContext, scheduler_name: str) -> DecisionEmitter:
    """Build the decision-log emitter every AID variant installs.

    The emitter binds the loop and scheduler names once; the per-decision
    hot path is a single ``emitter.on`` check when observability is off.
    When the context carries a conformance recorder (``ctx.check``), the
    emitter is a tee that always writes the check log and additionally
    forwards to observability when that is enabled — the oracle's view of
    the decision stream never depends on obs configuration.
    """
    check = getattr(ctx, "check", None)
    if check is not None:
        return check.emitter(ctx.loop_name, scheduler_name, ctx.obs)
    return DecisionEmitter(ctx.obs, ctx.loop_name, scheduler_name)


def state_setter(
    state: list[str], check, label: str
) -> Callable[[int, str], None]:
    """The per-thread state setter of one scheduler, bound once per loop.

    Without a conformance recorder it is ``state.__setitem__``; with one
    (``check``), every transition is mirrored into it, so the oracle
    checks the *actual* state-machine path (paper Figs. 3/5) rather than
    one inferred from dispatch patterns.
    """
    if check is None:
        return state.__setitem__

    def set_state(tid: int, new: str) -> None:
        state[tid] = new
        check.on_state(tid, new, label)

    return set_state


class AidScheduler(LoopScheduler):
    """What every AID variant keeps per thread, read once per loop.

    Attributes:
        ws: the loop's work-share pool.
        type_of_tid: core-type index under each thread.
        state: per-thread scheduler state; the list is never rebound,
            because ``set_state`` writes into it.
        set_state: ``set_state(tid, state)``, the transition the
            conformance recorder sees (:func:`state_setter`).
        assign_time: per thread, when the chunk being timed started
            executing (see :meth:`time_chunk`).
        dec: the decision emitter (:func:`decision_emitter`).
    """

    #: Name stamped on decision-log and state records (subclasses override).
    scheduler_label = "aid"

    def __init__(self, ctx: LoopContext) -> None:
        super().__init__(ctx)
        nt = ctx.n_threads
        self.ws = ctx.workshare
        self.type_of_tid = tuple(ctx.type_of(t) for t in range(nt))
        self.state = [START] * nt
        self.set_state = state_setter(self.state, ctx.check, self.scheduler_label)
        self.assign_time = [0.0] * nt
        #: Sampling chunks re-taken after a fault loss, per thread.
        self._retakes = [0] * nt
        self.dec = decision_emitter(ctx, self.scheduler_label)

    def time_chunk(self, tid: int, now: float) -> None:
        """Time the chunk this call hands to ``tid``: stamp ``now``,
        charge the opening timestamp and mark the dispatch, so the
        simulator moves the stamp to where execution starts."""
        self.assign_time[tid] = now
        self.mark_timed(tid)
        self.ctx.charge_timestamp(tid)

    def note_execution_start(self, tid: int, t: float) -> None:
        self.assign_time[tid] = t

    def _retake_fields(self, tid: int) -> dict:
        r = self._retakes[tid]
        return {"retake": r} if r else {}


def emit_sf_publication(
    dec: DecisionEmitter,
    tid: int,
    now: float,
    event: str,
    sf: dict[int, float],
    sampling: SamplingState | None = None,
    **fields: object,
) -> None:
    """Log the moment a scheduler publishes an SF-derived distribution.

    This is the record that makes Fig. 2 (per-loop SF profiles) and the
    Fig. 9c convergence series reproducible from one run artifact: the
    sampled per-type mean times, the SF estimate derived from them, and
    whatever distribution parameters the variant attaches (``targets``,
    ``ratio``, ``mode``...).
    """
    if dec.on:
        dec.emit(
            tid,
            now,
            event,
            sf=sf_as_json(sf),
            mean_times=None if sampling is None else sampling.mean_times(),
            **fields,
        )


def offline_sf_table(ctx: LoopContext) -> dict[int, float]:
    """The offline SF table for this loop, normalized so type 0 is 1."""
    sf = {j: ctx.offline_sf_for_type(j) for j in range(ctx.n_types)}
    base = sf[0]
    if base <= 0.0:
        raise SchedulerError("offline SF for the slowest type must be > 0")
    return {j: v / base for j, v in sf.items()}


def aid_targets(
    n_iterations: int,
    sf_per_type: dict[int, float],
    type_counts: tuple[int, ...],
) -> list[int]:
    """Per-core-type target iteration totals under AID distribution.

    Computes ``k = NI / sum_j N_j*SF_j`` and rounds each ``SF_j * k`` to
    the nearest integer. Rounding residue (at most a handful of
    iterations) is left in the pool; the drain phase mops it up.

    Returns:
        ``targets[j]`` — iterations *each* thread on type j should
        execute in total.
    """
    denom = sum(
        type_counts[j] * sf_per_type.get(j, 1.0) for j in range(len(type_counts))
    )
    if denom <= 0.0:
        raise SchedulerError("AID target computation with no threads")
    k = n_iterations / denom
    return [
        int(round(sf_per_type.get(j, 1.0) * k)) for j in range(len(type_counts))
    ]
