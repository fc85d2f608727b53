"""Fig. 9 — impact of SF-estimation inaccuracies.

Compares AID-static against AID-static(offline-SF), which skips the
sampling phase and distributes using per-loop SFs gathered offline from
single-threaded runs (the Sec. 2 protocol). Two findings reproduce:

* (a, b) for most static-friendly applications the sampled SF is good
  enough — AID-static lands within a few percent of the offline-SF
  variant on both platforms;
* (c) blackscholes on Platform A inverts: offline SFs are measured
  without cache contention, but with four threads per cluster the
  per-thread LLC share shrinks below the working set, the real SF
  collapses, and distributing by the (too large) offline SF overloads
  the big-core threads. AID-static's online sampling sees the contended
  reality and wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.amp.platform import Platform
from repro.amp.presets import odroid_xu4, xeon_emulated
from repro.experiments.harness import offline_sf_tables
from repro.fleet import FleetConfig, JobSpec, require_ok, run_jobs
from repro.runtime.env import OmpEnv
from repro.workloads.registry import get_program

#: Applications where AID-static/AID-hybrid are competitive with
#: AID-dynamic (the paper's Fig. 9a/9b selection criterion).
STATIC_FRIENDLY = (
    "EP",
    "CG",
    "IS",
    "MG",
    "SP",
    "blackscholes",
    "streamcluster",
    "bfs",
    "hotspot3D",
    "kmeans",
    "backprop",
    "sradv2",
)


@dataclass
class Fig9Result:
    # per platform: program -> (t_online, t_offline)
    times: dict[str, dict[str, tuple[float, float]]] = field(default_factory=dict)
    # Fig. 9c: blackscholes per-invocation estimated SF vs offline SF (A)
    estimated_sf_series: list[float] = field(default_factory=list)
    offline_sf_value: float = 0.0

    def gain_of_online(self, platform_name: str, program: str) -> float:
        """AID-static's gain over the offline-SF variant (positive means
        online sampling wins)."""
        t_on, t_off = self.times[platform_name][program]
        return t_off / t_on - 1.0


def run(
    platforms: tuple[Platform, ...] | None = None,
    programs: tuple[str, ...] = STATIC_FRIENDLY,
    seed: int = 0,
    *,
    jobs: int = 1,
    cache=None,
    timeout=None,
    progress=None,
) -> Fig9Result:
    if platforms is None:
        platforms = (odroid_xu4(), xeon_emulated())
    result = Fig9Result()
    online_env = OmpEnv(schedule="aid_static", affinity="BS")
    specs: list[JobSpec] = []
    for platform in platforms:
        for name in programs:
            program = get_program(name)
            # Fig. 9c wants blackscholes' per-invocation SF estimates on
            # the first (big.LITTLE) platform; the capture request is
            # part of the job's identity.
            capture = (
                "bs.price"
                if name == "blackscholes" and platform.n_core_types == 2
                else None
            )
            specs.append(
                JobSpec(
                    program=program,
                    platform=platform,
                    env=online_env,
                    root_seed=seed,
                    capture_sf_loop=capture,
                    label="AID-static",
                )
            )
            specs.append(
                JobSpec(
                    program=program,
                    platform=platform,
                    env=online_env,
                    root_seed=seed,
                    use_offline_sf=True,
                    label="AID-static(offline-SF)",
                )
            )
    outcomes = require_ok(
        run_jobs(
            specs,
            FleetConfig(jobs=jobs, timeout=timeout),
            cache=cache,
            progress=progress,
        )
    )
    it = iter(outcomes)
    for platform in platforms:
        rows: dict[str, tuple[float, float]] = {}
        for name in programs:
            r_online = next(it).result
            r_offline = next(it).result
            rows[name] = (
                r_online.completion_time,
                r_offline.completion_time,
            )
            series = r_online.sf_series_dicts()
            if series and not result.estimated_sf_series:
                result.estimated_sf_series = [sf[1] for sf in series]
                result.offline_sf_value = offline_sf_tables(
                    platform, get_program(name)
                )["bs.price"][1]
        result.times[platform.name] = rows
    return result


def format_report(result: Fig9Result) -> str:
    lines = ["Fig. 9 — AID-static vs AID-static(offline-SF)"]
    for platform_name, rows in result.times.items():
        lines.append(f"\n[{platform_name}] (positive = online sampling wins)")
        for program, (t_on, t_off) in rows.items():
            gain = t_off / t_on - 1.0
            lines.append(
                f"  {program:<16s} online {t_on:.4f} s,"
                f" offline-SF {t_off:.4f} s, online gain {gain:+.1%}"
            )
    if result.estimated_sf_series:
        lines += [
            "",
            "Fig. 9c — blackscholes on Platform A:",
            f"  offline-gathered SF: {result.offline_sf_value:.2f}",
            "  estimated SF per invocation: "
            + ", ".join(f"{sf:.2f}" for sf in result.estimated_sf_series),
        ]
    return "\n".join(lines)


def main() -> None:  # pragma: no cover - CLI entry
    print(format_report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
