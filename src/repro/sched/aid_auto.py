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
* regular loops (CV below a threshold) get the AID-hybrid treatment,
  run by AID-hybrid's own code: a one-shot asymmetric distribution of
  most iterations plus a small dynamic tail;
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
from repro.sched.aid_hybrid import AidHybridScheduler
from repro.sched.base import ScheduleSpec


class _SampleLog(ac.SamplingState):
    """The team's sampling time sums, plus every duration per core type:
    the within-type CV needs the samples themselves."""

    def __init__(self, n_types: int) -> None:
        super().__init__(n_types)
        self.samples: list[list[float]] = [[] for _ in range(n_types)]

    def record(self, type_index: int, duration: float) -> int:
        self.samples[type_index].append(duration)
        return super().record(type_index, duration)


class AidAutoScheduler(AidHybridScheduler):
    """Sampling-driven selection between one-shot and phased AID.

    A regular loop runs AID-hybrid's code as it is (with ``m`` for both
    the sampling chunk and the dynamic tail); an irregular one goes to
    an :class:`AidDynamicScheduler` that takes over the team.

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
        super().__init__(
            ctx,
            percentage=static_percentage,
            sampling_chunk=minor_chunk,
            dynamic_chunk=minor_chunk,
        )
        self.M = major_chunk
        self.cv_threshold = cv_threshold
        self.sampling = _SampleLog(ctx.n_types)
        self.measured_cv: float | None = None
        #: Chosen mode: None until sampling completes, then "static"
        #: (one-shot + tail) or "dynamic" (delegated phase engine).
        self.mode: str | None = None
        self._inner: AidDynamicScheduler | None = None
        # -- fault adaptation (inert without an injection engine) ---------
        self.adapt_on_faults = adapt_on_faults
        self.resample_threshold = resample_threshold
        self._lost: set[int] = set()
        self._mult_now: dict[int, float] = {}
        self._mult_at_decide: dict[int, float] | None = None

    # -- the GOMP_loop_next analogue --------------------------------------------
    #
    # AID-hybrid's next_range serves a regular loop as it is. Its drain
    # branch, tested first, never runs after an irregular verdict: the
    # verdict comes while no thread holds an allotment (at loop start,
    # or after a resample rewound every thread), and no state here moves
    # afterwards. Every other call reaches one of these two hooks, which
    # hand it to the phase engine once there is one.

    def _sampling_next(self, tid: int, now: float) -> tuple[int, int] | None:
        if self._inner is not None:
            return self._inner.next_range(tid, now)
        return super()._sampling_next(tid, now)

    def _distribute(self, tid: int, now: float) -> tuple[int, int] | None:
        if self._inner is not None:
            # This thread's sample made the loop irregular.
            return self._inner.next_range(tid, now)
        return super()._distribute(tid, now)

    # -- the decision ------------------------------------------------------------

    def publish(self, sf: dict[int, float]) -> tuple[str, dict]:
        """Classify the loop and commit to a mode (one thread: the last
        sampler, or the one whose loss left no sampler outstanding)."""
        self.sf = sf
        self._mult_at_decide = dict(self._mult_now)
        self.measured_cv = max(
            (self._cv(s) for s in self.sampling.samples if len(s) >= 2),
            default=0.0,
        )
        fields: dict = {"cv": self.measured_cv, "cv_threshold": self.cv_threshold}
        if self.epoch:
            fields["epoch"] = self.epoch
        if self.measured_cv <= self.cv_threshold:
            self.mode = "static"
            # Resample epochs distribute what is actually left in the
            # pool (including fault-requeued ranges), not the original
            # trip count most of which has already run.
            ni = self.ws.remaining if self.epoch else self.ctx.n_iterations
            self.targets = ac.aid_targets(
                int(self.aid_fraction * ni), sf, self.ctx.type_counts()
            )
            fields["targets"] = list(self.targets)
        else:
            self.mode = "dynamic"
            self._inner = AidDynamicScheduler(
                self.ctx, minor_chunk=self.sampling_chunk, major_chunk=self.M
            )
            self._inner.take_over(self)
            fields["ratio"] = list(self._inner.R)
        return "decide", {"mode": self.mode, **fields}

    # -- fault adaptation ---------------------------------------------------------

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
        self.expected = expected
        for t in range(nt):
            if self.state[t] != ac.DONE:
                self.state[t] = ac.START
        self.sampling = _SampleLog(self.ctx.n_types)
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
        # decision: stop waiting for it, and decide if it was the last
        # one outstanding.
        if self.mode is None and self.state[tid] in (ac.START, ac.SAMPLING):
            self.expected = max(0, self.expected - 1)
            done = self.sampling.completed.value
            if done >= self.expected and done > 0:
                self._publish(self.sampling.sf_per_type(), tid, now)
        super().on_worker_lost(tid, now)

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
