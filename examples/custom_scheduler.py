#!/usr/bin/env python3
"""Extending the runtime with a custom loop-scheduling policy.

The scheduler API the AID methods are built on is public: an immutable
:class:`~repro.sched.base.ScheduleSpec` plus a per-loop
:class:`~repro.sched.base.LoopScheduler` whose ``next_range`` is the
``GOMP_loop_*_next`` analogue. This example implements *trapezoid
self-scheduling* (Tzen & Ni, 1993 — reference [46] of the paper):
chunk sizes decay linearly from NI/(2*NT) to 1, a classic middle ground
between dynamic's overhead and static's imbalance — and races it against
the built-ins on an asymmetric platform.

Run::

    python examples/custom_scheduler.py
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import OmpEnv, ProgramRunner, get_program, odroid_xu4
from repro.runtime.context import LoopContext
from repro.sched.base import LoopScheduler, ScheduleSpec


class TrapezoidScheduler(LoopScheduler):
    """Chunks shrink linearly from ``first`` to ``last`` across grabs."""

    def __init__(self, ctx: LoopContext, last: int = 1) -> None:
        super().__init__(ctx)
        n, nt = ctx.n_iterations, ctx.n_threads
        self.first = max(last, n // (2 * nt)) if n else last
        self.last = last
        # Tzen & Ni: number of chunks N = ceil(2n / (first + last)).
        total = self.first + self.last
        self.n_chunks = max(1, -(-2 * n // total)) if n else 0
        self.decrement = (
            (self.first - self.last) / max(1, self.n_chunks - 1)
            if self.n_chunks > 1
            else 0.0
        )
        self.grabs = 0

    def next_range(self, tid: int, now: float) -> tuple[int, int] | None:
        size = max(self.last, round(self.first - self.decrement * self.grabs))
        self.grabs += 1
        return self.ctx.workshare.take(size)


@dataclass(frozen=True)
class TrapezoidSpec(ScheduleSpec):
    last: int = 1

    @property
    def name(self) -> str:
        return f"trapezoid,{self.last}"

    def create(self, ctx: LoopContext) -> TrapezoidScheduler:
        return TrapezoidScheduler(ctx, self.last)


def main() -> None:
    platform = odroid_xu4()
    program = get_program("streamcluster")
    rows = []
    for label, env, override in [
        ("static(BS)", OmpEnv(schedule="static", affinity="BS"), None),
        ("dynamic,1", OmpEnv(schedule="dynamic,1", affinity="BS"), None),
        ("trapezoid", OmpEnv(schedule="static", affinity="BS"), TrapezoidSpec()),
        ("aid_static", OmpEnv(schedule="aid_static", affinity="BS"), None),
        ("aid_dynamic", OmpEnv(schedule="aid_dynamic,1,5", affinity="BS"), None),
    ]:
        runner = ProgramRunner(platform, env, schedule_override=override)
        result = runner.run(program)
        rows.append((label, result.completion_time, result.total_dispatches))
    base = rows[0][1]
    print(f"{program.name} on {platform.name}\n")
    print(f"{'schedule':<14s} {'time':>10s} {'norm. perf':>11s} {'dispatches':>11s}")
    for label, t, d in rows:
        print(f"{label:<14s} {t * 1e3:9.2f}ms {base / t:>11.3f} {d:>11d}")
    print(
        "\nTrapezoid lands between dynamic (ruinous dispatch count) and the"
        "\nAID methods (asymmetry-aware distribution at static-like cost)."
    )


if __name__ == "__main__":
    main()
