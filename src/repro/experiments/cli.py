"""Command-line entry point: regenerate any or all paper artifacts.

Usage::

    aid-experiments list
    aid-experiments fig1 fig4
    aid-experiments all
    aid-experiments fig67 --backend vectorized
    python -m repro.experiments.cli table2
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.experiments import (
    energy,
    fig1,
    fig2,
    fig4,
    fig67,
    fig8,
    fig9,
    guided,
    multiapp,
    sec41,
    sec5b,
    table2,
)

#: name -> (module with run()/format_report(), description)
EXPERIMENTS = {
    "fig1": (fig1, "EP traces under static, 2B-2S vs 4S"),
    "fig2": (fig2, "per-loop SF profiles of BT and CG"),
    "sec41": (sec41, "compiler change: nm symbols + static overhead"),
    "fig4": (fig4, "EP traces under AID-static / AID-hybrid"),
    "fig67": (fig67, "normalized-performance grids (Platforms A and B)"),
    "table2": (table2, "mean/gmean AID gains"),
    "guided": (guided, "guided-schedule aggregate numbers"),
    "fig8": (fig8, "chunk-sensitivity study"),
    "sec5b": (sec5b, "AID-hybrid percentage sensitivity"),
    "fig9": (fig9, "offline-SF accuracy study (incl. blackscholes)"),
    # Extensions beyond the paper's evaluation:
    "energy": (energy, "extension: energy/EDP per schedule"),
    "multiapp": (multiapp, "extension: co-located applications (Sec. 4.3)"),
}

#: Experiments whose run() accepts the fleet's ``jobs`` fan-out knob.
SUPPORTS_JOBS = frozenset({"fig67", "table2", "fig8", "fig9"})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="aid-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "names",
        nargs="*",
        default=["all"],
        help="experiment names (see 'list'), or 'all'",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="fleet worker processes for the grid experiments "
        f"({', '.join(sorted(SUPPORTS_JOBS))}); default 1 runs serially "
        "in-process, exactly as before",
    )
    parser.add_argument(
        "--backend", default=None, metavar="NAME",
        help="execution backend for every simulated loop (reference, "
        "vectorized, real; default: $REPRO_BACKEND, then reference)",
    )
    args = parser.parse_args(argv)

    if args.backend is not None:
        from repro.backends import ENV_VAR, resolve_backend_name
        from repro.errors import BackendError

        try:
            # Experiments thread no explicit backend parameter — they
            # select through the (validated) environment override, which
            # every LoopExecutor and JobSpec resolves. Fleet workers
            # inherit the variable, and job digests pin the concrete
            # name either way.
            os.environ[ENV_VAR] = resolve_backend_name(args.backend)
        except BackendError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    names = args.names or ["all"]
    if names == ["list"]:
        for name, (_, desc) in EXPERIMENTS.items():
            print(f"{name:<8s} {desc}")
        return 0
    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    for name in names:
        module, desc = EXPERIMENTS[name]
        t0 = time.perf_counter()
        # ``jobs`` is passed only when explicitly requested, keeping the
        # historical run(seed=...) call shape for defaults and for the
        # serial experiments.
        if name in SUPPORTS_JOBS and args.jobs != 1:
            result = module.run(seed=args.seed, jobs=args.jobs)
        else:
            result = module.run(seed=args.seed)
        elapsed = time.perf_counter() - t0
        print(f"{'=' * 72}\n{name}: {desc}  [{elapsed:.1f}s]\n{'=' * 72}")
        print(module.format_report(result))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
