"""Fig. 8 — chunk sensitivity of dynamic vs AID-dynamic on Platform A.

The paper sweeps the dynamic chunk and AID-dynamic's Major chunk over
the dynamic-friendly applications. Bigger dynamic chunks cut overhead
but cause end-of-loop imbalance (one thread suddenly drains the pool);
AID-dynamic's endgame switch to dynamic(m) removes that failure mode,
making it far less chunk-sensitive. Comparing best-explored-chunk
settings per application, the paper finds AID-dynamic ahead by up to
21.9% and 5.5% on average.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.amp.platform import Platform
from repro.amp.presets import odroid_xu4
from repro.experiments.harness import ScheduleConfig, run_grid
from repro.runtime.env import OmpEnv
from repro.workloads.registry import get_program

#: The paper's Fig. 8 focuses on applications that benefit from dynamic
#: iteration distribution (as observed in Fig. 6).
DYNAMIC_FRIENDLY = (
    "BT",
    "FT",
    "bodytrack",
    "streamcluster",
    "hotspot3D",
    "lavamd",
    "leukocyte",
    "particlefilter",
)

#: Chunk sweep: dynamic/c and AID-dynamic/(m,M), as in the figure legend.
DYNAMIC_CHUNKS = (1, 5, 10, 20)
AID_DYNAMIC_CHUNKS = ((1, 5), (1, 10), (2, 20))


def _configs() -> tuple[ScheduleConfig, ...]:
    configs = [
        ScheduleConfig("static(SB)", OmpEnv(schedule="static", affinity="SB"))
    ]
    for c in DYNAMIC_CHUNKS:
        configs.append(
            ScheduleConfig(
                f"dynamic/{c}", OmpEnv(schedule=f"dynamic,{c}", affinity="BS")
            )
        )
    for m, M in AID_DYNAMIC_CHUNKS:
        configs.append(
            ScheduleConfig(
                f"AID-dynamic/({m},{M})",
                OmpEnv(schedule=f"aid_dynamic,{m},{M}", affinity="BS"),
            )
        )
    return tuple(configs)


@dataclass
class Fig8Result:
    normalized: dict[str, dict[str, float]]  # program -> config -> perf
    best_gain_per_program: dict[str, float] = field(default_factory=dict)

    @property
    def max_best_gain(self) -> float:
        """AID-dynamic's best-chunk gain over dynamic's best chunk, max
        across programs (paper: up to 21.9%)."""
        return max(self.best_gain_per_program.values())

    @property
    def mean_best_gain(self) -> float:
        """Average best-chunk gain (paper: 5.5%)."""
        gains = list(self.best_gain_per_program.values())
        return sum(gains) / len(gains)


def run(
    platform: Platform | None = None,
    programs: tuple[str, ...] = DYNAMIC_FRIENDLY,
    seed: int = 0,
    *,
    jobs: int = 1,
    cache=None,
    timeout=None,
    progress=None,
) -> Fig8Result:
    platform = platform if platform is not None else odroid_xu4()
    grid = run_grid(
        platform,
        programs=[get_program(p) for p in programs],
        configs=_configs(),
        root_seed=seed,
        jobs=jobs,
        cache=cache,
        timeout=timeout,
        progress=progress,
    )
    norm = grid.normalized("static(SB)")
    best_gain = {}
    for program, row in norm.items():
        best_dyn = max(row[f"dynamic/{c}"] for c in DYNAMIC_CHUNKS)
        best_aid = max(
            row[f"AID-dynamic/({m},{M})"] for m, M in AID_DYNAMIC_CHUNKS
        )
        best_gain[program] = best_aid / best_dyn - 1.0
    return Fig8Result(normalized=norm, best_gain_per_program=best_gain)


def format_report(result: Fig8Result) -> str:
    configs = next(iter(result.normalized.values())).keys()
    width = max(len(p) for p in result.normalized) + 2
    lines = [
        "Fig. 8 — chunk sensitivity on Platform A (normalized to static(SB))",
        "program".ljust(width) + "".join(f"{c:>18s}" for c in configs),
    ]
    for program, row in result.normalized.items():
        lines.append(
            program.ljust(width) + "".join(f"{row[c]:>18.3f}" for c in configs)
        )
    lines += [
        "",
        "best-chunk AID-dynamic vs best-chunk dynamic:",
    ]
    for program, gain in result.best_gain_per_program.items():
        lines.append(f"  {program:<16s} {gain:+.1%}")
    lines.append(
        f"  max {result.max_best_gain:+.1%} (paper: up to +21.9%),"
        f" mean {result.mean_best_gain:+.1%} (paper: +5.5%)"
    )
    return "\n".join(lines)


def main() -> None:  # pragma: no cover - CLI entry
    print(format_report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
