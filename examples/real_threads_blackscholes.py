#!/usr/bin/env python3
"""Real threads pricing real options under the AID schedulers.

The same scheduler state machines that drive the simulator run genuine
``threading`` workers here: a PARSEC-blackscholes-style portfolio is
priced chunk by chunk, with the schedule deciding who prices what.
Results are bit-identical across schedules (every option priced exactly
once); the printed distribution shows how each policy splits the work
between the "big" and "small" halves of the synthetic team.

CPython's GIL serializes the actual math, so wall times below say
nothing about AMP performance — that is what the simulator is for
(see DESIGN.md).

Run::

    python examples/real_threads_blackscholes.py [n_options]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.exec_real import ThreadTeam
from repro.kernels import black_scholes_price
from repro.sched import (
    AidDynamicSpec,
    AidHybridSpec,
    AidStaticSpec,
    DynamicSpec,
    StaticSpec,
)

SPECS = [
    StaticSpec(),
    DynamicSpec(64),
    AidStaticSpec(sampling_chunk=32),
    AidHybridSpec(percentage=80, sampling_chunk=32, dynamic_chunk=32),
    AidDynamicSpec(32, 160),
]


def make_portfolio(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return dict(
        spot=rng.uniform(40.0, 160.0, n),
        strike=rng.uniform(40.0, 160.0, n),
        rate=0.03,
        volatility=rng.uniform(0.1, 0.6, n),
        maturity=rng.uniform(0.05, 2.0, n),
    )


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 200_000
    portfolio = make_portfolio(n)
    team = ThreadTeam(4)
    n_big = team.team.n_big

    reference = black_scholes_price(**portfolio)
    print(f"pricing {n:,} options with 4 threads "
          f"({n_big} 'big', {team.team.n_small} 'small')\n")
    print(f"{'schedule':<18s} {'wall':>9s} {'dispatches':>11s}"
          f" {'big-thread share':>17s} {'max |err|':>10s}")

    for spec in SPECS:
        prices = np.zeros(n)

        def body(tid: int, lo: int, hi: int) -> None:
            prices[lo:hi] = black_scholes_price(
                portfolio["spot"][lo:hi],
                portfolio["strike"][lo:hi],
                portfolio["rate"],
                portfolio["volatility"][lo:hi],
                portfolio["maturity"][lo:hi],
            )

        stats = team.parallel_for(n, body, spec)
        err = float(np.abs(prices - reference).max())
        big_share = sum(stats.iterations_per_thread[:n_big]) / n
        print(
            f"{spec.name:<18s} {stats.wall_time * 1e3:8.1f}ms"
            f" {stats.dispatches:>11d} {big_share:>16.1%} {err:>10.2e}"
        )
        assert err == 0.0, "schedules must not change results"

    print("\nEvery schedule produced identical prices — the AID methods "
          "redistribute work, never results.")


if __name__ == "__main__":
    main()
