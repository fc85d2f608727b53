"""Machinery shared by the AID scheduling variants.

All AID methods start with a *sampling phase* (:class:`AidScheduler`):
each worker thread runs one chunk of iterations while the runtime
timestamps it, and the loop's speedup factor (SF) per core type is
approximated as

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
        this record (the caller compares it against the samplers it
        expects to detect "I am the last sampler").
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
    (``check``), every state *change* is mirrored into it, so the oracle
    checks the actual state-machine path (paper Figs. 3/5) rather than
    one inferred from dispatch patterns. A thread set to the state it is
    already in (a drain, serve or wait branch called again) makes no
    transition, so nothing is recorded.
    """
    if check is None:
        return state.__setitem__

    def set_state(tid: int, new: str) -> None:
        if state[tid] != new:
            state[tid] = new
            check.on_state(tid, new, label)

    return set_state


class AidScheduler(LoopScheduler):
    """The sampling phase every AID variant opens with (paper Sec. 4.2,
    Fig. 3), and what each keeps per thread.

    A thread's first call takes one ``sampling_chunk`` (START ->
    SAMPLING) and times its execution. The call after it charges the
    closing timestamp and adds the duration to the team's
    :class:`SamplingState`; the last of :attr:`expected` samplers
    derives the SF from the time sums and publishes the variant's
    distribution. Until then, threads done sampling steal
    ``sampling_chunk``-sized pieces (SAMPLING_WAIT).

    A variant sets ``sampling_chunk`` (and ``use_offline_sf``, when it
    can distribute from offline SF tables instead) in its constructor
    and implements :meth:`publish`. A one-shot variant also implements
    :meth:`_distribute` and hands START, SAMPLING, SAMPLING_WAIT and
    DONE calls to :meth:`_sampling_next`; AID-dynamic, whose waiting
    threads may enter its endgame first, calls the pieces itself.

    Attributes:
        ws: the loop's work-share pool.
        type_of_tid: core-type index under each thread.
        state: per-thread scheduler state; the list is never rebound,
            because ``set_state`` writes into it.
        set_state: ``set_state(tid, state)``, the transition the
            conformance recorder sees (:func:`state_setter`).
        assign_time: per thread, when the chunk being timed started
            executing (see :meth:`time_chunk`).
        sampling: the team's sampling time sums.
        expected: samplers the publication waits for (AID-auto stops
            waiting for one whose core went offline).
        delta: per thread, iterations taken before its distributed share.
        sf: the SF the distribution was published from; ``None`` until
            it is published.
        epoch: sampling epoch, stamped on sampling records when non-zero
            (AID-auto counts its fault-triggered resamples in it).
        dec: the decision emitter (:func:`decision_emitter`).
    """

    #: Name stamped on decision-log and state records (subclasses override).
    scheduler_label = "aid"
    #: Distribute from ``ctx.offline_sf`` at setup instead of sampling.
    use_offline_sf = False

    def __init__(self, ctx: LoopContext) -> None:
        super().__init__(ctx)
        nt = ctx.n_threads
        self.ws = ctx.workshare
        self.type_of_tid = tuple(ctx.type_of(t) for t in range(nt))
        self.state = [START] * nt
        self.set_state = state_setter(self.state, ctx.check, self.scheduler_label)
        self.assign_time = [0.0] * nt
        self.sampling = SamplingState(ctx.n_types)
        self.expected = nt
        self.delta = [0] * nt
        self.sf: dict[int, float] | None = None
        self.epoch = 0
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

    def estimated_sf(self) -> dict[int, float] | None:
        # Only report SFs actually *estimated* online; the offline-SF
        # variants distribute from supplied tables without sampling.
        return None if self.use_offline_sf else self.sf

    # -- what a variant supplies ---------------------------------------------

    def publish(self, sf: dict[int, float]) -> tuple[str, dict]:
        """Derive the distribution from ``sf`` and store it (``sf``
        included); return the event name and fields of the record that
        logs the publication."""
        raise NotImplementedError

    def _distribute(self, tid: int, now: float) -> tuple[int, int] | None:
        """The next range of a thread once the distribution exists."""
        raise NotImplementedError

    # -- the sampling phase ------------------------------------------------------

    def _publish(self, sf: dict[int, float], tid: int, now: float) -> None:
        """Publish the distribution derived from ``sf`` (one thread) and
        log it with the sampled per-type mean times and the SF: the
        record that makes Fig. 2's per-loop SF profiles and the Fig. 9c
        convergence series reproducible from one run artifact."""
        event, fields = self.publish(sf)
        if self.dec.on:
            self.dec.emit(
                tid,
                now,
                event,
                sf=sf_as_json(sf),
                mean_times=(
                    None if self.use_offline_sf else self.sampling.mean_times()
                ),
                **fields,
            )

    def _sampling_next(self, tid: int, now: float) -> tuple[int, int] | None:
        """``next_range`` for a thread in START, SAMPLING, SAMPLING_WAIT
        or DONE."""
        state = self.state[tid]
        if state == START:
            if self.use_offline_sf:
                # Published at setup: no sampling phase at all.
                return self._distribute(tid, now)
            return self._sample_start(tid, now)
        if state == SAMPLING:
            self._sample_complete(tid, now)
        elif state != SAMPLING_WAIT:
            return None  # DONE
        if self.sf is None:
            return self._wait_steal(tid, now)
        return self._distribute(tid, now)

    def _sample_start(self, tid: int, now: float) -> tuple[int, int] | None:
        """START: take the sampling chunk and time it."""
        got = self.ws.take(self.sampling_chunk)
        if got is None:
            return self._retire(tid)
        self.set_state(tid, SAMPLING)
        self.time_chunk(tid, now)
        self.delta[tid] += got[1] - got[0]
        if self.dec.on:
            self.dec.emit(
                tid, now, "sample_start",
                chunk_target=self.sampling_chunk, range=list(got),
                **self._sample_fields(tid),
            )
        return got

    def _sample_complete(self, tid: int, now: float) -> None:
        """The sampling chunk just completed: log its duration; the last
        sampler publishes."""
        self.ctx.charge_timestamp(tid)
        duration = now - self.assign_time[tid]
        sampling = self.sampling
        done = sampling.record(self.type_of_tid[tid], duration)
        if self.dec.on:
            self.dec.emit(
                tid, now, "sample_complete",
                duration=duration, completed=done,
                mean_times=sampling.mean_times(),
                **self._sample_fields(tid),
            )
        if done >= self.expected and self.sf is None:
            self._publish(sampling.sf_per_type(), tid, now)

    def _wait_steal(self, tid: int, now: float) -> tuple[int, int] | None:
        """SAMPLING_WAIT: steal a sampling-sized chunk until the
        distribution exists."""
        got = self.ws.take(self.sampling_chunk)
        if got is None:
            return self._retire(tid)
        self.set_state(tid, SAMPLING_WAIT)
        self.delta[tid] += got[1] - got[0]
        if self.dec.on:
            self.dec.emit(
                tid, now, "wait_steal",
                chunk_target=self.sampling_chunk, range=list(got),
            )
        return got

    def _retire(self, tid: int) -> None:
        """The pool is drained for this thread: leave the loop."""
        self.set_state(tid, DONE)
        return None

    def _sample_fields(self, tid: int) -> dict:
        """A sampling record's epoch and retake markers, each only when
        non-zero, so fault-free logs carry neither."""
        fields = {"epoch": self.epoch} if self.epoch else {}
        if self._retakes[tid]:
            fields["retake"] = self._retakes[tid]
        return fields

    def on_worker_lost(self, tid: int, now: float) -> None:
        # A sampler preempted by a core-offline fault never finished its
        # chunk; its assign_time may even lie in the future (overhead-end
        # refinement). Rewind to START so a revival re-samples instead of
        # recording the parked interval as a sampling duration.
        if self.state[tid] == SAMPLING:
            self.state[tid] = START
            self.timed[tid] = False
            self._retakes[tid] += 1


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
