"""AID-auto: per-loop selection between the AID variants (extension).

The paper's conclusions sketch this as future work: "further benefits
can be obtained on AMPs by applying AID-static or AID-hybrid to loops
where iterations have the same amount of work, and AID-dynamic to the
remaining loops", ideally decided automatically. AID-auto implements the
decision *inside the sampling phase the AID methods already run*:

* every thread samples one minor chunk, timed as usual;
* besides the across-type means (the SF), the *within-type* coefficient
  of variation of the sampled durations is computed — threads on
  identical cores timing identical-cost iterations differ only by cost
  irregularity, so the within-type CV is a core-speed-independent
  regularity signal;
* regular loops (CV below a threshold) get the AID-hybrid treatment: a
  one-shot asymmetric distribution of most iterations plus a small
  dynamic tail;
* irregular loops are handed to a full AID-dynamic phase engine, seeded
  with the already-sampled SF (no second sampling phase).

The result is one schedule string ("aid_auto") that tracks the better of
AID-hybrid/AID-dynamic per loop without user annotations — exactly the
deployment story the paper's future work asks for.

Known limitation: the probe measures *local* regularity at the loop's
start. A loop whose cost drifts globally but is smooth locally (the
particlefilter ramp) classifies as regular and inherits the one-shot
path's weakness there — the reason the paper points to compile-time
loop analysis [44] as the complementary signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.runtime.context import LoopContext
from repro.sched import aid_common as ac
from repro.sched.aid_dynamic import AidDynamicScheduler
from repro.sched.base import ScheduleSpec

#: Per-thread states before the mode decision.
MODE_PENDING = "MODE_PENDING"


class AidAutoScheduler(ac.AidScheduler):
    """Sampling-driven selection between one-shot and phased AID.

    Args:
        ctx: loop context.
        minor_chunk: sampling/wait/tail chunk (the paper's ``m``).
        major_chunk: Major chunk for the dynamic path (the paper's ``M``).
        cv_threshold: within-type coefficient-of-variation boundary
            between "regular" (one-shot path) and "irregular" (phased
            path) loops.
        static_percentage: share of NI distributed one-shot on the
            regular path (the AID-hybrid percentage).
        adapt_on_faults: react to ``on_rates_changed`` notifications
            from the fault-injection engine by invalidating the sampled
            SF and re-entering the sampling phase (a *resample epoch*)
            when effective core speeds moved past
            ``resample_threshold``. Without faults this is dead code —
            the hook is never called.
        resample_threshold: minimum relative change in any core's speed
            multiplier (vs. the multipliers in force when the SF was
            sampled) that triggers a resample.
    """

    #: Name stamped on decision-log records.
    scheduler_label = "aid_auto"

    def __init__(
        self,
        ctx: LoopContext,
        minor_chunk: int = 1,
        major_chunk: int = 5,
        cv_threshold: float = 0.22,
        static_percentage: float = 85.0,
        adapt_on_faults: bool = True,
        resample_threshold: float = 0.25,
    ) -> None:
        if minor_chunk <= 0:
            raise ConfigError("minor chunk must be positive")
        if major_chunk < minor_chunk:
            raise ConfigError("Major chunk must be >= minor chunk")
        if cv_threshold < 0:
            raise ConfigError("cv threshold must be >= 0")
        if not 0.0 < static_percentage <= 100.0:
            raise ConfigError("static percentage must be in (0, 100]")
        super().__init__(ctx)
        self.m = minor_chunk
        self.M = major_chunk
        self.cv_threshold = cv_threshold
        self.static_fraction = static_percentage / 100.0
        nt = ctx.n_threads
        self.delta = [0] * nt
        self.samples: list[list[float]] = [[] for _ in range(ctx.n_types)]
        self.completed = 0
        self.sf: dict[int, float] | None = None
        self.measured_cv: float | None = None
        #: Chosen mode: None until sampling completes, then "static"
        #: (one-shot + tail) or "dynamic" (delegated phase engine).
        self.mode: str | None = None
        self.targets: list[int] | None = None
        self._inner: AidDynamicScheduler | None = None
        # -- fault adaptation (inert without an injection engine) ---------
        self.adapt_on_faults = adapt_on_faults
        self.resample_threshold = resample_threshold
        #: Resample epoch: 0 for the initial sampling phase, +1 per
        #: fault-triggered re-entry. Decision records carry the epoch
        #: only when non-zero, so fault-free logs are unchanged.
        self.epoch = 0
        self._epoch_expected = nt
        self._lost: set[int] = set()
        self._mult_now: dict[int, float] = {}
        self._mult_at_decide: dict[int, float] | None = None

    # -- introspection -------------------------------------------------------

    def estimated_sf(self) -> dict[int, float] | None:
        return self.sf

    # -- the GOMP_loop_next analogue --------------------------------------------

    def next_range(self, tid: int, now: float) -> tuple[int, int] | None:
        if self.mode == "dynamic":
            assert self._inner is not None
            return self._inner.next_range(tid, now)

        state = self.state[tid]

        # Most one-shot-path calls are drain steals: tested first.
        if state == ac.DRAIN or state == ac.AID:
            self.set_state(tid, ac.DRAIN)
            got = self.ws.take(self.m)
            if got is None:
                self.set_state(tid, ac.DONE)
                return None
            if self.dec.on:
                self.dec.emit(
                    tid, now, "drain_steal",
                    chunk_target=self.m, range=list(got),
                )
            return got

        if state == ac.START:
            got = self.ws.take(self.m)
            if got is None:
                self.set_state(tid, ac.DONE)
                return None
            self.set_state(tid, ac.SAMPLING)
            self.time_chunk(tid, now)
            self.delta[tid] += got[1] - got[0]
            if self.dec.on:
                self.dec.emit(
                    tid, now, "sample_start",
                    chunk_target=self.m, range=list(got),
                    **self._epoch_fields(),
                    **self._retake_fields(tid),
                )
            return got

        if state == ac.SAMPLING:
            self.ctx.charge_timestamp(tid)
            duration = now - self.assign_time[tid]
            self.samples[self.type_of_tid[tid]].append(duration)
            self.completed += 1
            if self.dec.on:
                self.dec.emit(
                    tid, now, "sample_complete",
                    duration=duration, completed=self.completed,
                    mean_times=[
                        sum(s) / len(s) if s else 0.0 for s in self.samples
                    ],
                    **self._epoch_fields(),
                    **self._retake_fields(tid),
                )
            if self.completed >= self._epoch_expected and self.mode is None:
                self._decide(tid, now)
                if self.mode == "dynamic":
                    assert self._inner is not None
                    return self._inner.next_range(tid, now)
            if self.mode == "static":
                return self._enter_one_shot(tid, now)
            return self._wait_steal(tid, now)

        if state == ac.SAMPLING_WAIT:
            if self.mode == "static":
                return self._enter_one_shot(tid, now)
            return self._wait_steal(tid, now)

        return None  # DONE

    # -- the decision ------------------------------------------------------------

    def _decide(self, tid: int, now: float) -> None:
        """Classify the loop and commit to a mode (runs in exactly one
        thread: the last sampler)."""
        means = [
            sum(s) / len(s) if s else 0.0 for s in self.samples
        ]
        base = means[0]
        self.sf = {
            j: (base / m if base > 0 and m > 0 else 1.0)
            for j, m in enumerate(means)
        }
        self.sf[0] = 1.0
        self._mult_at_decide = dict(self._mult_now)
        self.measured_cv = max(
            (self._cv(s) for s in self.samples if len(s) >= 2), default=0.0
        )
        if self.measured_cv <= self.cv_threshold:
            self.mode = "static"
            if self.epoch:
                # Resample epochs distribute what is actually left in
                # the pool (including fault-requeued ranges), not the
                # original trip count most of which has already run.
                ni_aid = int(self.static_fraction * self.ctx.workshare.remaining)
            else:
                ni_aid = int(self.static_fraction * self.ctx.n_iterations)
            self.targets = ac.aid_targets(
                ni_aid, self.sf, self.ctx.type_counts()
            )
            if self.dec.on:
                self.dec.emit(
                    tid, now, "decide",
                    mode=self.mode, cv=self.measured_cv,
                    cv_threshold=self.cv_threshold,
                    sf=ac.sf_as_json(self.sf),
                    mean_times=means, targets=list(self.targets),
                    **self._epoch_fields(),
                )
        else:
            self.mode = "dynamic"
            inner = AidDynamicScheduler(
                self.ctx, minor_chunk=self.m, major_chunk=self.M
            )
            # One timing record for both: the simulator reads this
            # scheduler's flags and its hook writes the stamps the phase
            # engine reads.
            inner.timed = self.timed
            inner.assign_time = self.assign_time
            # Seed the phase engine with the sampling we already did:
            # every thread skips straight to the first AID phase.
            inner.sf = dict(self.sf)
            inner.R = [
                inner._clamp(self.sf[j]) for j in range(self.ctx.n_types)
            ]
            inner.phase = 1
            for t in range(self.ctx.n_threads):
                inner.set_state(
                    t, ac.DONE if self.state[t] == ac.DONE else ac.SAMPLING_WAIT
                )
            inner.active = sum(
                1 for t in range(self.ctx.n_threads) if inner.state[t] != ac.DONE
            )
            self._inner = inner
            if self.dec.on:
                self.dec.emit(
                    tid, now, "decide",
                    mode=self.mode, cv=self.measured_cv,
                    cv_threshold=self.cv_threshold,
                    sf=ac.sf_as_json(self.sf),
                    mean_times=means, ratio=list(inner.R),
                    **self._epoch_fields(),
                )

    # -- fault adaptation ---------------------------------------------------------

    def _epoch_fields(self) -> dict:
        """Epoch annotation for decision records — empty on epoch 0 so
        fault-free logs (and the goldens pinned on them) are unchanged."""
        return {"epoch": self.epoch} if self.epoch else {}

    def on_rates_changed(self, now: float, multipliers: dict[int, float]) -> None:
        self._mult_now = dict(multipliers)
        if self._inner is not None:
            self._inner.on_rates_changed(now, multipliers)
            return
        if not self.adapt_on_faults or self.mode != "static":
            return
        base = self._mult_at_decide or {}
        rel = 0.0
        for cpu in set(base) | set(multipliers):
            old = base.get(cpu, 1.0)
            new = multipliers.get(cpu, 1.0)
            if old > 0.0:
                rel = max(rel, abs(new - old) / old)
        if rel < self.resample_threshold:
            return
        if self.ctx.workshare.remaining <= 0:
            return
        self._resample(now, multipliers)

    def _resample(self, now: float, multipliers: dict[int, float]) -> None:
        """Invalidate the sampled SF and re-enter the sampling phase.

        Every thread that is still working is sent back to START (an
        internal reset: the conformance oracle's under-fault relaxation
        admits the re-entry edges); per-thread allotment credits are
        cleared so the new targets are honored from scratch.
        """
        nt = self.ctx.n_threads
        expected = sum(
            1
            for t in range(nt)
            if self.state[t] != ac.DONE and t not in self._lost
        )
        if expected == 0:
            return
        self.epoch += 1
        self._epoch_expected = expected
        for t in range(nt):
            if self.state[t] != ac.DONE:
                self.state[t] = ac.START
        self.samples = [[] for _ in range(self.ctx.n_types)]
        self.completed = 0
        self.sf = None
        self.mode = None
        self.targets = None
        self.measured_cv = None
        self.delta = [0] * nt
        self._mult_at_decide = dict(multipliers)
        if self.dec.on:
            self.dec.emit(
                -1, now, "resample",
                epoch=self.epoch, expected=expected,
                multipliers={str(c): m for c, m in sorted(multipliers.items())},
            )

    def on_worker_lost(self, tid: int, now: float) -> None:
        self._lost.add(tid)
        if self._inner is not None:
            self._inner.on_worker_lost(tid, now)
            return
        # A sampler that will never report back must not wedge the
        # decision: shrink the expected count and decide if it was the
        # last one outstanding.
        if self.mode is None and self.state[tid] in (ac.START, ac.SAMPLING):
            self._epoch_expected = max(0, self._epoch_expected - 1)
            if self.completed >= self._epoch_expected and self.completed > 0:
                self._decide(tid, now)
        # A sampler preempted mid-chunk must re-sample on revival rather
        # than record the parked interval as a sampling duration.
        if self.state[tid] == ac.SAMPLING:
            self.state[tid] = ac.START
            self.timed[tid] = False
            self._retakes[tid] += 1

    def on_worker_back(self, tid: int, now: float) -> None:
        self._lost.discard(tid)
        if self._inner is not None:
            self._inner.on_worker_back(tid, now)

    @staticmethod
    def _cv(samples: list[float]) -> float:
        mean = sum(samples) / len(samples)
        if mean <= 0.0:
            return 0.0
        var = sum((s - mean) ** 2 for s in samples) / (len(samples) - 1)
        return math.sqrt(var) / mean

    # -- one-shot path -------------------------------------------------------------

    def _wait_steal(self, tid: int, now: float) -> tuple[int, int] | None:
        got = self.ws.take(self.m)
        if got is None:
            self.set_state(tid, ac.DONE)
            return None
        self.set_state(tid, ac.SAMPLING_WAIT)
        self.delta[tid] += got[1] - got[0]
        if self.dec.on:
            self.dec.emit(
                tid, now, "wait_steal",
                chunk_target=self.m, range=list(got),
            )
        return got

    def _enter_one_shot(self, tid: int, now: float) -> tuple[int, int] | None:
        assert self.targets is not None
        target = self.targets[self.type_of_tid[tid]]
        need = target - self.delta[tid]
        self.set_state(tid, ac.AID)
        if need <= 0:
            return self.next_range(tid, now)
        got = self.ws.take(need)
        if got is None:
            self.set_state(tid, ac.DONE)
            return None
        self.delta[tid] += got[1] - got[0]
        if self.dec.on:
            self.dec.emit(
                tid, now, "aid_allotment",
                target=target, chunk_target=need, range=list(got),
                sf=ac.sf_as_json(self.sf),
            )
        return got


@dataclass(frozen=True)
class AidAutoSpec(ScheduleSpec):
    """AID-auto configuration (extension scheduler, Sec. 6 future work).

    Attributes:
        minor_chunk: sampling/wait/tail chunk.
        major_chunk: Major chunk for the dynamic path.
        cv_threshold: regularity boundary (within-type CV of sampled
            durations).
        static_percentage: one-shot share on the regular path.
        adapt_on_faults: resample the SF when a fault-injection engine
            reports effective core speeds moved past
            ``resample_threshold`` (inert without fault injection).
        resample_threshold: relative speed-multiplier change that
            triggers a resample.
    """

    minor_chunk: int = 1
    major_chunk: int = 5
    cv_threshold: float = 0.22
    static_percentage: float = 85.0
    adapt_on_faults: bool = True
    resample_threshold: float = 0.25

    def __post_init__(self) -> None:
        if self.minor_chunk <= 0:
            raise ConfigError("minor chunk must be positive")
        if self.major_chunk < self.minor_chunk:
            raise ConfigError("Major chunk must be >= minor chunk")
        if self.cv_threshold < 0:
            raise ConfigError("cv threshold must be >= 0")
        if not 0.0 < self.static_percentage <= 100.0:
            raise ConfigError("static percentage must be in (0, 100]")

    @property
    def name(self) -> str:
        return f"aid_auto,{self.minor_chunk},{self.major_chunk}"

    @property
    def requires_bs_mapping(self) -> bool:
        return True

    def create(self, ctx: LoopContext) -> AidAutoScheduler:
        return AidAutoScheduler(
            ctx,
            minor_chunk=self.minor_chunk,
            major_chunk=self.major_chunk,
            cv_threshold=self.cv_threshold,
            static_percentage=self.static_percentage,
            adapt_on_faults=self.adapt_on_faults,
            resample_threshold=self.resample_threshold,
        )
