"""OpenMP guided scheduling: dynamic with exponentially decreasing chunks.

The paper evaluated guided and found it clearly inferior to both static
and dynamic on AMPs (+44% / +65% mean completion time respectively,
Sec. 5): the large early chunks are handed out in pool-arrival order, so
a small-core thread can grab a huge chunk at the start of the loop and
become the straggler no other thread can help.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.runtime.context import LoopContext
from repro.sched.base import LoopScheduler, ScheduleSpec


class GuidedScheduler(LoopScheduler):
    """Removal size ``max(ceil(remaining / NT), chunk)``.

    Uses the libgomp formulation: each grab takes a 1/NT share of whatever
    is left, floored at the configured minimum chunk.
    """

    def __init__(self, ctx: LoopContext, chunk: int) -> None:
        super().__init__(ctx)
        self.chunk = chunk

    def next_range(self, tid: int, now: float) -> tuple[int, int] | None:
        ws = self.ctx.workshare
        remaining = ws.remaining
        if remaining <= 0:
            return None
        size = max(math.ceil(remaining / self.ctx.n_threads), self.chunk)
        return ws.take(size)


@dataclass(frozen=True)
class GuidedSpec(ScheduleSpec):
    """``schedule(guided)`` / ``schedule(guided, chunk)``.

    Attributes:
        chunk: minimum removal size; the OpenMP default is 1.
    """

    chunk: int = 1

    def __post_init__(self) -> None:
        if self.chunk <= 0:
            raise ConfigError(f"guided chunk must be positive, got {self.chunk}")

    @property
    def name(self) -> str:
        return f"guided,{self.chunk}"

    def create(self, ctx: LoopContext) -> GuidedScheduler:
        return GuidedScheduler(ctx, self.chunk)
