"""AID-static: asymmetric one-shot distribution driven by online sampling.

The paper's Fig. 3 state machine, ported structurally:

* ``START -> SAMPLING``: the thread's first pool access removes the
  sampling chunk; two timestamps bracket its execution.
* ``SAMPLING -> AID`` (last thread to finish sampling): computes SF and
  ``k`` from the shared time sums and publishes them.
* ``SAMPLING -> SAMPLING_WAIT`` (everyone else): keep stealing
  chunk-sized pieces until SF/k are published.
* ``* -> AID``: one final allotment of ``target(type) - delta_i``
  iterations, where ``delta_i`` is what thread *i* already executed.

After its AID allotment a thread drains any rounding residue left in the
pool in chunk-sized steals and then leaves the loop. The pool and the
sampling counters are the paper's atomics (fetch-and-add, atomic time
sums), and SF/k are computed by exactly one thread. The simulator charges
the atomics' cost through the overhead model; the code itself runs one
scheduler call at a time on both backends.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.runtime.context import LoopContext
from repro.sched import aid_common as ac
from repro.sched.base import ScheduleSpec


class AidStaticScheduler(ac.AidScheduler):
    """Per-loop state machine for AID-static.

    Args:
        ctx: loop context.
        sampling_chunk: iterations per sampling/wait steal (paper uses 1).
        use_offline_sf: skip sampling and distribute straight from
            ``ctx.offline_sf`` — the AID-static(offline-SF) variant used
            in the Fig. 9 accuracy study.
        aid_fraction: fraction of NI distributed asymmetrically (1.0 for
            AID-static; AID-hybrid subclasses with < 1.0).
        tail_chunk: chunk for post-AID stealing (rounding residue for
            AID-static, the dynamic tail for AID-hybrid).
    """

    #: Name stamped on decision-log records (subclasses override).
    scheduler_label = "aid_static"

    def __init__(
        self,
        ctx: LoopContext,
        sampling_chunk: int = 1,
        use_offline_sf: bool = False,
        aid_fraction: float = 1.0,
        tail_chunk: int | None = None,
    ) -> None:
        if sampling_chunk <= 0:
            raise ConfigError("sampling chunk must be positive")
        if not 0.0 < aid_fraction <= 1.0:
            raise ConfigError("aid_fraction must be in (0, 1]")
        super().__init__(ctx)
        self.sampling_chunk = sampling_chunk
        self.use_offline_sf = use_offline_sf
        self.aid_fraction = aid_fraction
        self.tail_chunk = tail_chunk if tail_chunk is not None else sampling_chunk
        self.delta = [0] * ctx.n_threads  # executed before the AID allotment
        self.sampling = ac.SamplingState(ctx.n_types)
        self.sf: dict[int, float] | None = None
        self.targets: list[int] | None = None
        if use_offline_sf:
            # Published at loop setup, before any thread runs: tid -1, t 0.
            self._publish_targets(ac.offline_sf_table(ctx), tid=-1, now=0.0)

    # -- shared-state helpers ------------------------------------------------

    def _publish_targets(
        self, sf: dict[int, float], tid: int, now: float
    ) -> None:
        """Compute and publish per-type targets (done by one thread)."""
        ni_aid = int(self.aid_fraction * self.ctx.n_iterations)
        self.targets = ac.aid_targets(ni_aid, sf, self.ctx.type_counts())
        self.sf = sf
        ac.emit_sf_publication(
            self.dec,
            tid,
            now,
            "publish_targets",
            sf,
            sampling=None if self.use_offline_sf else self.sampling,
            targets=list(self.targets),
            aid_fraction=self.aid_fraction,
        )

    def estimated_sf(self) -> dict[int, float] | None:
        # Only report SFs actually *estimated* online; the offline-SF
        # variant distributes from supplied tables without sampling.
        return None if self.use_offline_sf else self.sf

    # -- fault-recovery hooks --------------------------------------------------

    def on_worker_lost(self, tid: int, now: float) -> None:
        # A sampler preempted by a core-offline fault never finished its
        # chunk; its assign_time may even lie in the future (overhead-end
        # refinement). Rewind to START so a revival re-samples instead of
        # recording the parked interval as a sampling duration.
        if self.state[tid] == ac.SAMPLING:
            self.state[tid] = ac.START
            self.timed[tid] = False
            self._retakes[tid] += 1

    # -- the GOMP_loop_next analogue ------------------------------------------

    def next_range(self, tid: int, now: float) -> tuple[int, int] | None:
        state = self.state[tid]

        # Most calls are drain steals (AID-hybrid's whole dynamic tail),
        # so that branch is tested first.
        if state == ac.DRAIN or state == ac.AID:
            # AID allotment (or a drain steal) completed; mop up residue.
            self.set_state(tid, ac.DRAIN)
            got = self.ws.take(self.tail_chunk)
            if got is None:
                self.set_state(tid, ac.DONE)
                return None
            if self.dec.on:
                self.dec.emit(
                    tid, now, "drain_steal",
                    chunk_target=self.tail_chunk, range=list(got),
                )
            return got

        if state == ac.START:
            if self.targets is not None:
                # Offline-SF variant: no sampling phase at all.
                return self._enter_aid(tid, now)
            got = self.ws.take(self.sampling_chunk)
            if got is None:
                self.set_state(tid, ac.DONE)
                return None
            self.set_state(tid, ac.SAMPLING)
            self.time_chunk(tid, now)
            self.delta[tid] += got[1] - got[0]
            if self.dec.on:
                self.dec.emit(
                    tid, now, "sample_start",
                    chunk_target=self.sampling_chunk, range=list(got),
                    **self._retake_fields(tid),
                )
            return got

        if state == ac.SAMPLING:
            # The sampling chunk just completed: log its duration.
            self.ctx.charge_timestamp(tid)
            duration = now - self.assign_time[tid]
            done = self.sampling.record(self.type_of_tid[tid], duration)
            if self.dec.on:
                self.dec.emit(
                    tid, now, "sample_complete",
                    duration=duration, completed=done,
                    mean_times=self.sampling.mean_times(),
                    **self._retake_fields(tid),
                )
            if done == self.ctx.n_threads and self.targets is None:
                # Last sampler computes SF and k (exactly one thread).
                self._publish_targets(self.sampling.sf_per_type(), tid, now)
            if self.targets is not None:
                return self._enter_aid(tid, now)
            return self._wait_steal(tid, now)

        if state == ac.SAMPLING_WAIT:
            if self.targets is not None:
                return self._enter_aid(tid, now)
            return self._wait_steal(tid, now)

        return None  # DONE

    def _wait_steal(self, tid: int, now: float) -> tuple[int, int] | None:
        got = self.ws.take(self.sampling_chunk)
        if got is None:
            self.set_state(tid, ac.DONE)
            return None
        self.set_state(tid, ac.SAMPLING_WAIT)
        self.delta[tid] += got[1] - got[0]
        if self.dec.on:
            self.dec.emit(
                tid, now, "wait_steal",
                chunk_target=self.sampling_chunk, range=list(got),
            )
        return got

    def _enter_aid(self, tid: int, now: float) -> tuple[int, int] | None:
        assert self.targets is not None
        target = self.targets[self.type_of_tid[tid]]
        need = target - self.delta[tid]
        self.set_state(tid, ac.AID)
        if need <= 0:
            # Already over target (e.g. many wait steals): go drain.
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
class AidStaticSpec(ScheduleSpec):
    """AID-static configuration.

    Attributes:
        sampling_chunk: sampling/wait-phase chunk (paper default: 1).
        use_offline_sf: build the AID-static(offline-SF) variant; loops
            must then carry offline SF tables (see
            :attr:`~repro.sched.base.ScheduleSpec.needs_offline_sf`).
    """

    sampling_chunk: int = 1
    use_offline_sf: bool = False

    def __post_init__(self) -> None:
        if self.sampling_chunk <= 0:
            raise ConfigError("sampling chunk must be positive")

    @property
    def name(self) -> str:
        base = "aid_static"
        if self.sampling_chunk != 1:
            base += f",{self.sampling_chunk}"
        return base + ("(offline-SF)" if self.use_offline_sf else "")

    @property
    def needs_offline_sf(self) -> bool:
        return self.use_offline_sf

    @property
    def requires_bs_mapping(self) -> bool:
        return True

    def create(self, ctx: LoopContext) -> AidStaticScheduler:
        return AidStaticScheduler(
            ctx,
            sampling_chunk=self.sampling_chunk,
            use_offline_sf=self.use_offline_sf,
        )
