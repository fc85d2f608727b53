"""Figs. 6 and 7 — full normalized-performance grids on both platforms.

All 21 programs x the seven scheduling configurations of the paper's
Sec. 5A (static/dynamic under both pinning conventions, plus the three
AID variants with default parameters), normalized to static(SB).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.amp.presets import odroid_xu4, xeon_emulated
from repro.experiments.harness import GridResult, run_grid


@dataclass
class Fig67Result:
    platform_a: GridResult
    platform_b: GridResult


def run(
    seed: int = 0,
    programs=None,
    *,
    jobs: int = 1,
    cache=None,
    timeout=None,
    progress=None,
) -> Fig67Result:
    """Run both grids (Fig. 6: Platform A, Fig. 7: Platform B).

    ``jobs``/``cache``/``timeout``/``progress`` route the cells through
    the :mod:`repro.fleet` pool; results are identical to serial runs.
    """
    fleet = dict(jobs=jobs, cache=cache, timeout=timeout, progress=progress)
    return Fig67Result(
        platform_a=run_grid(
            odroid_xu4(), programs=programs, root_seed=seed, **fleet
        ),
        platform_b=run_grid(
            xeon_emulated(), programs=programs, root_seed=seed, **fleet
        ),
    )


def format_report(result: Fig67Result) -> str:
    return (
        "Fig. 6 — "
        + result.platform_a.to_table()
        + "\n\nFig. 7 — "
        + result.platform_b.to_table()
    )


def main() -> None:  # pragma: no cover - CLI entry
    print(format_report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
