"""AID-steal: asymmetric distribution + work stealing (extension).

The paper's Sec. 4.3 sketches this as the natural next step: "possibly
by combining our work-sharing version of AID, with work-stealing
techniques [4, 27]". AID-steal does exactly that:

* the sampling phase is the one every AID variant shares, and the
  split is SF-proportional as in AID-static — after sampling, the
  remaining iterations are partitioned into one contiguous *local
  range* per thread, sized ``SF_j * k``;
* each thread then serves itself from the front of its own range in
  ``serve_chunk``-sized pieces — local work needs no shared-pool atomics
  at all;
* a thread whose range runs dry *steals the back half* of the richest
  thread's remaining range (classic steal-half victim policy), so
  SF-estimation error or cost drift is repaired continuously instead of
  at a dynamic tail.

Compared to AID-hybrid, the repair mechanism is proportional (half of
whatever is left) rather than a fixed percentage chosen up front, and
contention concentrates on the (rare) steals instead of a per-chunk
shared pool.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.runtime.context import LoopContext
from repro.sched import aid_common as ac
from repro.sched.base import ScheduleSpec

#: Thread state once local ranges exist.
SERVING = "SERVING"


class AidStealScheduler(ac.AidScheduler):
    """AID-static's split feeding per-thread ranges with steal-half.

    Args:
        ctx: loop context.
        sampling_chunk: sampling/wait chunk (the AID-static default, 1).
        serve_chunk: iterations a thread takes from its own range per
            dispatch. Larger values mean fewer dispatches but coarser
            stealable leftovers.
        min_steal: do not bother stealing ranges smaller than this.
        use_offline_sf: skip sampling, split by the offline SF table.
    """

    #: Name stamped on decision-log records.
    scheduler_label = "aid_steal"

    def __init__(
        self,
        ctx: LoopContext,
        sampling_chunk: int = 1,
        serve_chunk: int = 8,
        min_steal: int = 2,
        use_offline_sf: bool = False,
    ) -> None:
        if sampling_chunk <= 0:
            raise ConfigError("sampling chunk must be positive")
        if serve_chunk <= 0:
            raise ConfigError("serve chunk must be positive")
        if min_steal <= 0:
            raise ConfigError("min_steal must be positive")
        super().__init__(ctx)
        self.sampling_chunk = sampling_chunk
        self.serve_chunk = serve_chunk
        self.min_steal = min_steal
        self.use_offline_sf = use_offline_sf
        #: Per-thread local range [lo, hi); (0, 0) when empty.
        self.local: list[tuple[int, int]] | None = None
        self.steals = 0
        #: Set once any fault-recovery hook fires; enables the recovery
        #: serving paths (whole-range steals below min_steal, pool
        #: drain before retiring) that fault-free runs never take.
        self._faulted = False
        if use_offline_sf:
            # Partitioned at loop setup, before any thread runs.
            self._publish(ac.offline_sf_table(ctx), tid=-1, now=0.0)

    def publish(self, sf: dict[int, float]) -> tuple[str, dict]:
        """Split everything left in the pool into per-thread ranges,
        proportional to the per-type SF (one pool access total)."""
        self.sf = sf
        got = self.ws.take_all()
        lo, hi = got if got is not None else (0, 0)
        remaining = hi - lo
        weights = [sf.get(j, 1.0) for j in self.type_of_tid]
        total = sum(weights)
        self.local = []
        cursor = lo
        for t, w in enumerate(weights):
            if t == self.ctx.n_threads - 1:
                share = hi - cursor  # last thread absorbs rounding
            else:
                share = int(round(remaining * w / total))
                share = min(share, hi - cursor)
            self.local.append((cursor, cursor + share))
            cursor += share
        return "partition", {"ranges": [list(r) for r in self.local]}

    # -- the GOMP_loop_next analogue ------------------------------------------

    def next_range(self, tid: int, now: float) -> tuple[int, int] | None:
        if self.state[tid] == SERVING:
            return self._serve(tid, now)
        return self._sampling_next(tid, now)

    # -- serving and stealing -----------------------------------------------------

    def _serve(self, tid: int, now: float) -> tuple[int, int] | None:
        assert self.local is not None
        self.set_state(tid, SERVING)
        lo, hi = self.local[tid]
        if hi <= lo and not self._steal_into(tid, now):
            if self._faulted:
                # Fault recovery may have returned ranges to the shared
                # pool (e.g. a preempt that could not be merged into a
                # local range); drain them before retiring.
                got = self.ws.take(self.serve_chunk)
                if got is not None:
                    if self.dec.on:
                        self.dec.emit(
                            tid, now, "reclaim_serve",
                            chunk_target=self.serve_chunk, range=list(got),
                        )
                    return got
            return self._retire(tid)
        lo, hi = self.local[tid]
        cut = min(hi, lo + self.serve_chunk)
        self.local[tid] = (cut, hi)
        return (lo, cut)

    #: Once partitioned, a thread's share is served from its own range.
    _distribute = _serve

    def _steal_into(self, thief: int, now: float) -> bool:
        """Move the back half of the richest thread's range to the thief."""
        assert self.local is not None
        victim = -1
        best = 0
        for t, (lo, hi) in enumerate(self.local):
            if t != thief and hi - lo > best:
                best = hi - lo
                victim = t
        if victim < 0:
            return False
        if best < self.min_steal:
            if not self._faulted:
                return False
            # Under faults, leftovers below min_steal may belong to a
            # parked worker that will never serve them: steal the whole
            # range rather than strand it.
            mid = self.local[victim][0]
        else:
            lo, hi = self.local[victim]
            mid = lo + (hi - lo + 1) // 2  # thief takes the back half
        lo, hi = self.local[victim]
        self.local[victim] = (lo, mid)
        self.local[thief] = (mid, hi)
        self.steals += 1
        if self.dec.on:
            self.dec.emit(
                thief, now, "steal",
                victim=victim, range=[mid, hi], victim_left=[lo, mid],
                steals=self.steals,
            )
        return True

    # -- fault-recovery hooks -----------------------------------------------------

    def reclaim(self, tid: int, lo: int, hi: int) -> None:
        """Route a preempted chunk's tail where serving will find it.

        Post-partition, a preempted serve's tail is contiguous with the
        owner's local front (the serve came off that front), so it merges
        back into ``local[tid]`` and stays stealable. Anything else —
        pre-partition sampling chunks, non-contiguous tails — goes to the
        shared pool, which :meth:`_serve` drains before retiring.
        """
        self._faulted = True
        if self.local is not None:
            cur_lo, cur_hi = self.local[tid]
            if cur_lo == hi:
                self.local[tid] = (lo, cur_hi)
                return
            if cur_hi <= cur_lo:
                self.local[tid] = (lo, hi)
                return
        self.ws.requeue(lo, hi)

    def on_worker_lost(self, tid: int, now: float) -> None:
        # The lost worker's local range stays in place: the whole-range
        # steal fallback lets survivors absorb it, however small.
        self._faulted = True
        super().on_worker_lost(tid, now)

    def on_worker_back(self, tid: int, now: float) -> None:
        self._faulted = True

    def on_rates_changed(self, now: float, multipliers: dict[int, float]) -> None:
        self._faulted = True


@dataclass(frozen=True)
class AidStealSpec(ScheduleSpec):
    """AID-steal configuration (extension scheduler, Sec. 4.3).

    Attributes:
        sampling_chunk: sampling/wait chunk.
        serve_chunk: local-serve granularity.
        min_steal: smallest range worth stealing.
        use_offline_sf: split by offline SF tables instead of sampling.
    """

    sampling_chunk: int = 1
    serve_chunk: int = 8
    min_steal: int = 2
    use_offline_sf: bool = False

    def __post_init__(self) -> None:
        if self.sampling_chunk <= 0:
            raise ConfigError("sampling chunk must be positive")
        if self.serve_chunk <= 0:
            raise ConfigError("serve chunk must be positive")
        if self.min_steal <= 0:
            raise ConfigError("min_steal must be positive")

    @property
    def name(self) -> str:
        base = f"aid_steal,{self.serve_chunk}"
        return base + ("(offline-SF)" if self.use_offline_sf else "")

    @property
    def needs_offline_sf(self) -> bool:
        return self.use_offline_sf

    @property
    def requires_bs_mapping(self) -> bool:
        return True

    def create(self, ctx: LoopContext) -> AidStealScheduler:
        return AidStealScheduler(
            ctx,
            sampling_chunk=self.sampling_chunk,
            serve_chunk=self.serve_chunk,
            min_steal=self.min_steal,
            use_offline_sf=self.use_offline_sf,
        )
