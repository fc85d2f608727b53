"""AID-dynamic: repeated asymmetric phases with a self-correcting ratio.

The paper's replacement for dynamic scheduling on AMPs (Fig. 5). Two
user chunks exist: minor ``m`` (sampling/wait steals, and the endgame)
and Major ``M >= m``. After the sampling phase every AID variant shares
(:class:`~repro.sched.aid_common.AidScheduler`), the loop proceeds in
*AID phases*: per phase, each small-core thread removes ``M`` iterations
from the pool and each thread on core type j removes ``R_j * M``, where
``R_j`` starts at the sampled ``SF_j`` and is resmoothed after every
phase:

    R_j <- R_j * SM_j,   SM_j = mean small-thread phase time /
                                mean type-j thread phase time

so a ratio that over- or under-fed big cores corrects itself. Threads
that finish their phase allotment while others are still working steal
``m``-sized pieces (the AID_WAIT state), and — the optimization noted
under Fig. 5 — as soon as the pool drops to ``M * NT`` iterations the
whole team switches to plain dynamic(m), which removes the end-of-loop
imbalance that makes conventional dynamic so chunk-sensitive (Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.runtime.context import LoopContext
from repro.sched import aid_common as ac
from repro.sched.base import ScheduleSpec

#: Additional per-thread state: the team switched to the dynamic endgame.
ENDGAME = "ENDGAME"

#: Bounds keeping the resmoothed ratio physically plausible.
R_MIN = 0.25
R_MAX = 128.0


class AidDynamicScheduler(ac.AidScheduler):
    """Per-loop state machine for AID-dynamic.

    Args:
        ctx: loop context.
        minor_chunk: the paper's ``m`` — sampling, wait and endgame chunk.
        major_chunk: the paper's ``M`` — small-core allotment per AID
            phase (big cores get ``R * M``).
        endgame: enable the switch to dynamic(m) when the pool drops to
            ``M * n_threads`` (on by default; off for the ablation bench).
        smoothing: enable per-phase resmoothing of R (on by default; off
            keeps R fixed at the sampled SF, for the ablation bench).
    """

    #: Name stamped on decision-log records.
    scheduler_label = "aid_dynamic"

    def __init__(
        self,
        ctx: LoopContext,
        minor_chunk: int = 1,
        major_chunk: int = 5,
        endgame: bool = True,
        smoothing: bool = True,
    ) -> None:
        if minor_chunk <= 0:
            raise ConfigError("minor chunk must be positive")
        if major_chunk < minor_chunk:
            raise ConfigError(
                f"Major chunk ({major_chunk}) must be >= minor chunk ({minor_chunk})"
            )
        super().__init__(ctx)
        # The paper's m is this variant's sampling chunk too.
        self.m = self.sampling_chunk = minor_chunk
        self.M = major_chunk
        self.smoothing_enabled = smoothing
        nt = ctx.n_threads
        #: Pool size at or below which the team switches to the endgame
        #: (-1, which no pool reaches, with the endgame off).
        self.endgame_threshold = major_chunk * nt if endgame else -1
        self.thread_phase = [0] * nt
        self.R: list[float] | None = None  # per-type ratio; None until sampled
        self.phase = 0
        self.phase_joined = 0
        self.phase_pending = 0
        self.phase_sums = [0.0] * ctx.n_types
        self.phase_counts = [0] * ctx.n_types
        self.active = nt
        self.in_endgame = False
        self.phases_run = 0
        self._lost: set[int] = set()

    # -- introspection ---------------------------------------------------------

    def current_ratio(self) -> list[float] | None:
        """The per-type ratio R currently in force (None before sampling)."""
        return None if self.R is None else list(self.R)

    # -- publication -------------------------------------------------------------

    def publish(self, sf: dict[int, float]) -> tuple[str, dict]:
        """The sampled SF is the first phase's ratio (one thread)."""
        self.sf = sf
        self.R = [self._clamp(sf[j]) for j in range(self.ctx.n_types)]
        self.phase = 1
        return "publish_ratio", {"ratio": list(self.R)}

    def take_over(self, sampled: ac.AidScheduler) -> None:
        """Run the AID phases for a team that sampled under ``sampled``
        (AID-auto's irregular path) instead of sampling again.

        Both keep one timing record: the simulator reads ``sampled``'s
        flags and its hook writes the stamps the phases read. Its DONE
        threads stay DONE, every other thread waits to join the first
        phase, and its SF is published as that phase's ratio, as this
        policy's own last sampler publishes it.
        """
        self.timed = sampled.timed
        self.assign_time = sampled.assign_time
        for t, state in enumerate(sampled.state):
            self.set_state(t, ac.DONE if state == ac.DONE else ac.SAMPLING_WAIT)
        self.active = len(self.state) - self.state.count(ac.DONE)
        self.publish(sampled.sf)

    # -- the GOMP_loop_next analogue --------------------------------------------

    def next_range(self, tid: int, now: float) -> tuple[int, int] | None:
        state = self.state[tid]

        # Waiting threads and phase completions make most calls, so
        # their branches are tested first.
        if state == ac.AID_WAIT or state == ac.SAMPLING_WAIT:
            return self._dispatch(tid, now)

        if state == ac.AID:
            # Phase allotment completed: log its duration for resmoothing.
            self.ctx.charge_timestamp(tid)
            duration = now - self.assign_time[tid]
            jtype = self.type_of_tid[tid]
            self.phase_sums[jtype] += duration
            self.phase_counts[jtype] += 1
            self.phase_pending -= 1
            self._maybe_finalize_phase(tid, now)
            return self._dispatch(tid, now)

        if state == ENDGAME:
            got = self.ws.take(self.m)
            if got is None:
                return self._retire(tid)
            if self.dec.on:
                self.dec.emit(
                    tid, now, "endgame_steal",
                    chunk_target=self.m, range=list(got),
                )
            return got

        if state == ac.START:
            return self._sample_start(tid, now)

        if state == ac.SAMPLING:
            self._sample_complete(tid, now)
            return self._dispatch(tid, now)

        return None  # DONE

    # -- dispatch decisions -------------------------------------------------------

    def _dispatch(self, tid: int, now: float) -> tuple[int, int] | None:
        """Pick the next assignment for a thread that just became idle."""
        ws = self.ws
        if not self.in_endgame and ws.remaining <= self.endgame_threshold:
            self.in_endgame = True
            if self.dec.on:
                self.dec.emit(
                    tid, now, "endgame",
                    remaining=ws.remaining, threshold=self.endgame_threshold,
                )
        if self.in_endgame:
            self.set_state(tid, ENDGAME)
            got = ws.take(self.m)
            if got is None:
                return self._retire(tid)
            if self.dec.on:
                self.dec.emit(
                    tid, now, "endgame_steal",
                    chunk_target=self.m, range=list(got),
                )
            return got
        if self.R is None:
            # Sampling not finished team-wide: wait-steal minor chunks.
            return self._wait_steal(tid, now)
        if self.thread_phase[tid] < self.phase:
            return self._join_phase(tid, now)
        # Phase already joined and completed; wait for stragglers.
        got = ws.take(self.m)
        if got is None:
            return self._retire(tid)
        self.set_state(tid, ac.AID_WAIT)
        if self.dec.on:
            self.dec.emit(
                tid, now, "wait_steal",
                chunk_target=self.m, range=list(got),
            )
        return got

    def _join_phase(self, tid: int, now: float) -> tuple[int, int] | None:
        assert self.R is not None
        jtype = self.type_of_tid[tid]
        allotment = max(1, int(round(self.R[jtype] * self.M)))
        got = self.ws.take(allotment)
        if got is None:
            return self._retire(tid)
        self.thread_phase[tid] = self.phase
        self.phase_joined += 1
        self.phase_pending += 1
        self.set_state(tid, ac.AID)
        self.time_chunk(tid, now)
        if self.dec.on:
            self.dec.emit(
                tid, now, "phase_join",
                phase=self.phase, chunk_target=allotment, range=list(got),
                ratio=self.R[jtype], sf=ac.sf_as_json(self.sf),
            )
        return got

    # -- phase lifecycle -----------------------------------------------------------

    def _maybe_finalize_phase(self, tid: int = -1, now: float = 0.0) -> None:
        """Advance to the next AID phase once every active thread has
        joined and completed the current one."""
        if self.phase_joined < self.active or self.phase_pending > 0:
            return
        if self.smoothing_enabled and self.R is not None:
            base_n = self.phase_counts[0]
            base_mean = self.phase_sums[0] / base_n if base_n else 0.0
            for j in range(1, self.ctx.n_types):
                n = self.phase_counts[j]
                mean = self.phase_sums[j] / n if n else 0.0
                if base_mean > 0.0 and mean > 0.0:
                    sm = base_mean / mean
                    self.R[j] = self._clamp(self.R[j] * sm)
        if self.dec.on and self.R is not None:
            self.dec.emit(
                tid, now, "phase_complete",
                phase=self.phase, ratio=list(self.R),
                smoothing=self.smoothing_enabled,
            )
        self.phases_run += 1
        self.phase += 1
        self.phase_joined = 0
        self.phase_pending = 0
        self.phase_sums = [0.0] * self.ctx.n_types
        self.phase_counts = [0] * self.ctx.n_types

    def _retire(self, tid: int) -> None:
        """Pool drained for this thread: leave the loop and the phase
        accounting."""
        if self.state[tid] != ac.DONE:
            self.set_state(tid, ac.DONE)
            self.active -= 1
            self._maybe_finalize_phase()
        return None

    # -- fault-recovery hooks -----------------------------------------------------
    #
    # The phase barrier counts *active* threads; a worker whose core went
    # offline must leave the accounting (otherwise the remaining team
    # waits forever for its phase report) and re-enter it on revival.
    # Reclaimed allotment tails go back through the shared pool (the
    # base-class reclaim), where wait-steals and the endgame absorb them.

    def on_worker_lost(self, tid: int, now: float) -> None:
        if tid in self._lost or self.state[tid] == ac.DONE:
            self._lost.add(tid)
            return
        self._lost.add(tid)
        if self.state[tid] == ac.AID:
            # Its phase allotment was preempted; the completion report
            # will never arrive.
            self.phase_pending -= 1
            self.set_state(tid, ac.AID_WAIT)
        elif self.state[tid] == ac.SAMPLING:
            # Its sampling chunk was cut; never record the duration.
            self.set_state(tid, ac.SAMPLING_WAIT)
        self.active -= 1
        self._maybe_finalize_phase(tid, now)

    def on_worker_back(self, tid: int, now: float) -> None:
        if tid not in self._lost:
            return
        self._lost.discard(tid)
        if self.state[tid] != ac.DONE:
            self.active += 1

    @staticmethod
    def _clamp(r: float) -> float:
        return min(R_MAX, max(R_MIN, r))


@dataclass(frozen=True)
class AidDynamicSpec(ScheduleSpec):
    """AID-dynamic configuration.

    Attributes:
        minor_chunk: the paper's ``m`` (default 1, as in the evaluation).
        major_chunk: the paper's ``M`` (default 5, as in Figs. 6/7).
        endgame: keep the switch-to-dynamic(m) optimization enabled.
        smoothing: keep per-phase R resmoothing enabled.
    """

    minor_chunk: int = 1
    major_chunk: int = 5
    endgame: bool = True
    smoothing: bool = True

    def __post_init__(self) -> None:
        if self.minor_chunk <= 0:
            raise ConfigError("minor chunk must be positive")
        if self.major_chunk < self.minor_chunk:
            raise ConfigError("Major chunk must be >= minor chunk")

    @property
    def name(self) -> str:
        base = f"aid_dynamic,{self.minor_chunk},{self.major_chunk}"
        tags = []
        if not self.endgame:
            tags.append("no-endgame")
        if not self.smoothing:
            tags.append("no-smoothing")
        return base + (f"({'+'.join(tags)})" if tags else "")

    @property
    def requires_bs_mapping(self) -> bool:
        return True

    def create(self, ctx: LoopContext) -> AidDynamicScheduler:
        return AidDynamicScheduler(
            ctx,
            minor_chunk=self.minor_chunk,
            major_chunk=self.major_chunk,
            endgame=self.endgame,
            smoothing=self.smoothing,
        )
