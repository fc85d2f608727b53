"""Table 2 — mean/gmean gains of each AID variant over its conventional
counterpart, on both platforms."""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.fig67 import Fig67Result
from repro.experiments.fig67 import run as run_fig67
from repro.experiments.harness import GridResult
from repro.metrics.stats import summarize_gains

#: The three comparisons of the paper's Table 2.
COMPARISONS = (
    ("AID-static", "static(BS)"),
    ("AID-hybrid", "static(BS)"),
    ("AID-dynamic", "dynamic(BS)"),
)

#: What the paper measured, for side-by-side reporting (fractions).
PAPER_TABLE2 = {
    "Platform A": {
        ("AID-static", "static(BS)"): {"mean": 0.1498, "gmean": 0.1354},
        ("AID-hybrid", "static(BS)"): {"mean": 0.2755, "gmean": 0.2267},
        ("AID-dynamic", "dynamic(BS)"): {"mean": 0.0312, "gmean": 0.0281},
    },
    "Platform B": {
        ("AID-static", "static(BS)"): {"mean": 0.1593, "gmean": 0.1464},
        ("AID-hybrid", "static(BS)"): {"mean": 0.2008, "gmean": 0.1606},
        ("AID-dynamic", "dynamic(BS)"): {"mean": 0.2234, "gmean": 0.1600},
    },
}


@dataclass
class Table2Result:
    """gains[platform_key][(scheme, reference)] = {"mean": ..., "gmean": ...}"""

    gains: dict[str, dict[tuple[str, str], dict[str, float]]]


def summarize_grid(grid: GridResult) -> dict[tuple[str, str], dict[str, float]]:
    """The three Table 2 rows for one platform's grid."""
    return {
        (scheme, ref): summarize_gains(grid.column(scheme), grid.column(ref))
        for scheme, ref in COMPARISONS
    }


def run(
    seed: int = 0,
    fig67: Fig67Result | None = None,
    *,
    jobs: int = 1,
    cache=None,
    timeout=None,
    progress=None,
) -> Table2Result:
    """Aggregate Table 2 from the Fig. 6/7 grids (re-running if needed).

    The fleet knobs are forwarded to the Fig. 6/7 grids, so a Table 2
    regeneration right after a fleet-cached Fig. 6/7 run costs nothing.
    """
    fig67 = fig67 if fig67 is not None else run_fig67(
        seed=seed, jobs=jobs, cache=cache, timeout=timeout, progress=progress
    )
    return Table2Result(
        gains={
            "Platform A": summarize_grid(fig67.platform_a),
            "Platform B": summarize_grid(fig67.platform_b),
        }
    )


def format_report(result: Table2Result) -> str:
    lines = [
        "Table 2 — relative performance gains of the AID variants",
        f"{'comparison':<30s} {'platform':<12s} {'mean':>8s} {'gmean':>8s}"
        f" {'paper mean':>11s} {'paper gmean':>12s}",
    ]
    for platform_key, rows in result.gains.items():
        for (scheme, ref), stats in rows.items():
            paper = PAPER_TABLE2[platform_key][(scheme, ref)]
            lines.append(
                f"{scheme + ' vs ' + ref:<30s} {platform_key:<12s}"
                f" {stats['mean'] * 100:7.2f}% {stats['gmean'] * 100:7.2f}%"
                f" {paper['mean'] * 100:10.2f}% {paper['gmean'] * 100:11.2f}%"
            )
    return "\n".join(lines)


def main() -> None:  # pragma: no cover - CLI entry
    print(format_report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
