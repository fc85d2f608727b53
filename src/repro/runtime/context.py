"""Per-loop execution context handed to schedulers.

A :class:`LoopContext` is created by the executor for each parallel-loop
execution. It owns the :class:`~repro.runtime.workshare.WorkShare` pool
and exposes exactly the information the paper's schedulers consume: team
shape (thread counts per core type), the default chunk, optional offline
SF values, and a way to charge sampling-phase timestamp costs to a
thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.errors import ConfigError
from repro.obs import NULL_OBS, Observability
from repro.runtime.team import Team
from repro.runtime.workshare import WorkShare


def _no_charge(tid: int) -> None:
    """The timestamp charge of a context built without a callback."""


@dataclass(frozen=True)
class ThreadView:
    """What a scheduler may know about one worker thread."""

    tid: int
    cpu_id: int
    type_index: int


class LoopContext:
    """Shared state for one execution of one parallel loop.

    Args:
        team: the executing thread team.
        n_iterations: loop trip count.
        default_chunk: chunk used when a scheduler needs one and none was
            configured (libgomp uses 1 for dynamic).
        offline_sf: optional per-core-type offline speedup factors for
            this loop, indexed by type (entry 0, the slowest type, should
            be 1.0). Used by the AID-static(offline-SF) variant of Fig. 9.
        charge_timestamp: callback ``(tid) -> None`` charging one
            clock-read overhead to the thread; wired by the executor.
            Installed as :attr:`charge_timestamp` itself, so a charge is
            one call (a no-op when omitted).
        obs: observability bundle; schedulers emit decision records
            through it. Defaults to the null sink.
        loop_name: the executed loop's name, stamped onto decision
            records and metric labels.
        check: optional conformance recorder (a
            :class:`repro.check.recording.CheckContext`). Threaded into
            the work-share pool and read by the AID schedulers, which
            mirror state transitions and decision records into it so the
            oracle works from ground truth even with observability off.
    """

    def __init__(
        self,
        team: Team,
        n_iterations: int,
        default_chunk: int = 1,
        offline_sf: Mapping[int, float] | None = None,
        charge_timestamp: Callable[[int], None] | None = None,
        obs: Observability | None = None,
        loop_name: str = "",
        check=None,
    ) -> None:
        if n_iterations < 0:
            raise ConfigError(f"negative trip count {n_iterations}")
        if default_chunk <= 0:
            raise ConfigError(f"default chunk must be positive, got {default_chunk}")
        self.team = team
        #: Team shape, fixed for the loop (a :class:`Team` is frozen).
        self.n_threads = team.n_threads
        self.n_types = team.n_types
        self.n_iterations = int(n_iterations)
        self.default_chunk = int(default_chunk)
        self.offline_sf = dict(offline_sf) if offline_sf is not None else None
        #: ``charge_timestamp(tid)``: charge one timestamp-read cost to
        #: thread ``tid`` (AID sampling).
        self.charge_timestamp = (
            charge_timestamp if charge_timestamp is not None else _no_charge
        )
        self.obs = obs if obs is not None else NULL_OBS
        self.loop_name = loop_name
        self.check = check
        self.workshare = WorkShare(0, n_iterations, check=check)
        self.threads = tuple(
            ThreadView(
                tid=t,
                cpu_id=team.cpu_of(t),
                type_index=team.type_index_of(t),
            )
            for t in range(team.n_threads)
        )

    # -- team shape ---------------------------------------------------------

    def type_of(self, tid: int) -> int:
        return self.threads[tid].type_index

    def type_counts(self) -> tuple[int, ...]:
        return self.team.type_counts()

    def offline_sf_for_type(self, type_index: int) -> float:
        """Offline SF for a core type; raises if none was supplied."""
        if self.offline_sf is None:
            raise ConfigError(
                "scheduler requires offline SF values but none were supplied "
                "for this loop"
            )
        try:
            return float(self.offline_sf[type_index])
        except KeyError:
            raise ConfigError(
                f"offline SF table has no entry for core type {type_index}"
            ) from None
