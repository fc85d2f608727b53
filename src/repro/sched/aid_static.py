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

The first three are the sampling phase every AID variant shares
(:class:`~repro.sched.aid_common.AidScheduler`); this module adds the
targets publication and the allotment. After its AID allotment a thread
drains any rounding residue left in the pool in chunk-sized steals and
then leaves the loop. The pool and the sampling counters are the paper's
atomics (fetch-and-add, atomic time sums), and SF/k are computed by
exactly one thread. The simulator charges the atomics' cost through the
overhead model; the code itself runs one scheduler call at a time on
both backends.
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
        self.targets: list[int] | None = None
        if use_offline_sf:
            # Published at loop setup, before any thread runs: tid -1, t 0.
            self._publish(ac.offline_sf_table(ctx), tid=-1, now=0.0)

    def publish(self, sf: dict[int, float]) -> tuple[str, dict]:
        """Per-type targets over ``aid_fraction`` of NI (one thread)."""
        self.sf = sf
        ni_aid = int(self.aid_fraction * self.ctx.n_iterations)
        self.targets = ac.aid_targets(ni_aid, sf, self.ctx.type_counts())
        return "publish_targets", {
            "targets": list(self.targets), "aid_fraction": self.aid_fraction,
        }

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
                return self._retire(tid)
            if self.dec.on:
                self.dec.emit(
                    tid, now, "drain_steal",
                    chunk_target=self.tail_chunk, range=list(got),
                )
            return got

        return self._sampling_next(tid, now)

    def _distribute(self, tid: int, now: float) -> tuple[int, int] | None:
        """The AID allotment: what is left of the thread's target."""
        assert self.targets is not None
        target = self.targets[self.type_of_tid[tid]]
        need = target - self.delta[tid]
        self.set_state(tid, ac.AID)
        if need <= 0:
            # Already over target (e.g. many wait steals): go drain.
            return self.next_range(tid, now)
        got = self.ws.take(need)
        if got is None:
            return self._retire(tid)
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
