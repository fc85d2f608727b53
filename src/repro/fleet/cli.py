"""``python -m repro.fleet`` — run registered experiment grids.

Usage::

    python -m repro.fleet list
    python -m repro.fleet smoke --jobs 2
    python -m repro.fleet fig6 fig7 --jobs 8 --timeout 120
    python -m repro.fleet fig8 --no-cache --summary-json fleet.json
    python -m repro.fleet fig6 --backend vectorized --trajectory perf.jsonl
    python -m repro.fleet --resume          # continue a killed sweep
    python -m repro.fleet scrub --json report.json
    python -m repro.fleet chaos --plans 50 --jobs 2 --json chaos.json

Every invocation prints the regenerated grid table(s) plus a fleet
summary line (submitted / cached / computed / retried / failed).
``--summary-json`` additionally writes the counters as JSON — the CI
smoke job asserts ``cache_hits >= 1`` on a warm rerun from exactly that
file — and ``--events-jsonl`` dumps the per-job event log.

``--obs-snapshot PATH`` writes the merged fleet-level observability
snapshot (fleet counters + every job's worker-side metrics + the
combined decision summary); CI diffs the warm rerun's snapshot against
the cold one with ``python -m repro.obs.report diff`` and fails on
regressions. ``--trajectory PATH`` appends one run-over-run trend
record (cache-hit rate, runtime-overhead seconds, wall clock) to the
perf observatory history.

**Resumable sweeps.** Whenever the cache is enabled, the run journals
its plan and every terminal job state to ``checkpoint.jsonl`` beside the
cache (``--checkpoint`` points it elsewhere; ``--no-cache`` disables it
unless ``--checkpoint`` is explicit). After a crash or SIGKILL,
``--resume`` reloads the journal, reconstructs the sweep (grids, seed,
backend) from its ``begin`` metadata, and reruns it — completed cells
replay instantly from the cache, so only unacknowledged work is
recomputed, and the resumed sweep's grid tables and merged obs snapshot
are byte-identical to an uninterrupted run (modulo cache-temperature
counters).

**Maintenance.** ``scrub`` fsck's the cache: verifies every entry's
name, shard placement, schema and digests, quarantines corruption,
repairs the layout manifest and rebuilds the LRU index
(``--prune-stale`` also garbage-collects entries from older code
versions; ``--json PATH`` writes the machine-readable report CI
archives). ``--max-cache-bytes`` bounds the store with deterministic
LRU eviction, and ``--dispatcher`` picks the execution seam (``inline``,
``process``, ``local``).

**Supervision.** Every run gets one
:class:`~repro.fleet.supervisor.Supervisor` shared across its grids:
EWMA-based hang detection, poison-job quarantine (quarantined cells are
journaled as ``poisoned`` with their reason and skipped by later
sweeps), and per-dispatcher circuit breakers that degrade
``process -> local -> inline`` when a tier's infrastructure keeps
failing. On ``--resume``, previously failed or poisoned cells print as
a "previously failed" table with their recorded reasons.

**Chaos.** ``chaos`` runs the deterministic infrastructure-chaos check
(:mod:`repro.fleet.chaos`): ``--plans N`` seeded ChaosPlans (worker
kills/stalls, cache I/O faults, pool-break storms) each swept over a
small standard grid and byte-compared against the fault-free run;
``--poison K`` adds K poison jobs per plan and asserts exactly those are
quarantined. ``--mode real`` uses genuine SIGKILLs in process workers
instead of simulated crashes. Exit 1 on any mismatch; ``--json``
writes the full report with every failing plan replayable.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.errors import ReproError
from repro.fleet.cache import ResultCache
from repro.fleet.checkpoint import SweepCheckpoint
from repro.fleet.progress import FleetProgress


def _fig6_grid(seed: int):
    from repro.amp.presets import odroid_xu4
    from repro.experiments.harness import default_configs
    from repro.workloads.registry import all_programs

    return odroid_xu4(), all_programs(), default_configs()


def _fig7_grid(seed: int):
    from repro.amp.presets import xeon_emulated
    from repro.experiments.harness import default_configs
    from repro.workloads.registry import all_programs

    return xeon_emulated(), all_programs(), default_configs()


def _fig8_grid(seed: int):
    from repro.amp.presets import odroid_xu4
    from repro.experiments.fig8 import DYNAMIC_FRIENDLY, _configs
    from repro.workloads.registry import get_program

    return (
        odroid_xu4(),
        tuple(get_program(p) for p in DYNAMIC_FRIENDLY),
        _configs(),
    )


def _smoke_grid(seed: int):
    from repro.amp.presets import odroid_xu4
    from repro.experiments.harness import default_configs
    from repro.workloads.registry import get_program

    return (
        odroid_xu4(),
        (get_program("EP"), get_program("streamcluster")),
        default_configs()[:3] + default_configs()[4:5],
    )


#: name -> (grid builder, description). A builder returns the
#: (platform, programs, configs) triple run_grid consumes.
GRIDS = {
    "fig6": (_fig6_grid, "Fig. 6 grid: 21 programs x 7 configs, Platform A"),
    "fig7": (_fig7_grid, "Fig. 7 grid: 21 programs x 7 configs, Platform B"),
    "fig8": (_fig8_grid, "Fig. 8 chunk-sensitivity grid, Platform A"),
    "smoke": (_smoke_grid, "tiny 2-program x 4-config CI smoke grid"),
}


def _run_scrub(cache: ResultCache | None, args) -> int:
    """The ``scrub`` maintenance command: fsck the result cache."""
    if cache is None:
        print("error: scrub needs a cache (drop --no-cache)", file=sys.stderr)
        return 2
    report = cache.scrub(prune_stale=args.prune_stale)
    print(report.format_text())
    if args.json_report:
        Path(args.json_report).write_text(
            json.dumps(report.to_payload(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return 0


def _run_chaos(args) -> int:
    """The ``chaos`` command: byte-equality-under-chaos check."""
    from repro.fleet.chaos import run_chaos_check

    code, report = run_chaos_check(
        plans=args.plans,
        seed=args.seed if args.seed is not None else 0,
        poison=args.poison,
        mode=args.chaos_mode,
        jobs=max(args.jobs, 2),
    )
    if args.json_report:
        Path(args.json_report).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Run registered experiment grids through the fleet.",
    )
    parser.add_argument(
        "names", nargs="*",
        help="grid names (see 'list'): " + ", ".join(GRIDS)
        + "; or the 'scrub' / 'chaos' maintenance commands; may be "
        "empty with --resume",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (default 1 = serial in-process)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every cell; do not read or write the result cache",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="result-cache directory (default $FLEET_CACHE_DIR or "
        ".fleet-cache)",
    )
    parser.add_argument(
        "--max-cache-bytes", type=int, default=None, metavar="N",
        help="bound the result cache to N bytes of live entries "
        "(deterministic LRU eviction; default $FLEET_CACHE_MAX_BYTES "
        "or unbounded)",
    )
    parser.add_argument(
        "--dispatcher", default=None, metavar="NAME",
        help="fleet dispatcher: inline, process or local (default: "
        "$REPRO_FLEET_DISPATCHER, then chosen from --jobs)",
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="sweep checkpoint journal (default: checkpoint.jsonl beside "
        "the cache when caching is on; with --no-cache, no journal "
        "unless this flag is given)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume the sweep recorded in the checkpoint journal: grid "
        "names, seed and backend come from the journal unless given "
        "explicitly; completed cells replay from the cache",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-job wall-clock deadline in seconds",
    )
    parser.add_argument(
        "--retries", type=int, default=2,
        help="retry budget per job (default 2)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="workload seed (default 0, or the journal's on --resume)",
    )
    parser.add_argument(
        "--prune-stale", action="store_true",
        help="(scrub) also delete entries from older code versions",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH", dest="json_report",
        help="(scrub/chaos) write the machine-readable report here",
    )
    parser.add_argument(
        "--plans", type=int, default=1, metavar="N",
        help="(chaos) number of seeded chaos plans to sweep (default 1)",
    )
    parser.add_argument(
        "--poison", type=int, default=0, metavar="K",
        help="(chaos) poison jobs injected per plan (default 0); the "
        "check then asserts exactly those digests are quarantined",
    )
    parser.add_argument(
        "--mode", default="sim", choices=("sim", "real"), dest="chaos_mode",
        help="(chaos) worker-kill mechanism: 'sim' raises in-process "
        "(exact attribution), 'real' SIGKILLs worker processes",
    )
    parser.add_argument(
        "--backend", default=None, metavar="NAME",
        help="execution backend for every cell (reference, vectorized, "
        "real; default: $REPRO_BACKEND, then reference). Part of each "
        "job's digest, so different backends never share cache entries",
    )
    parser.add_argument(
        "--trace-spans", default=None, metavar="CONTEXT", nargs="?",
        const="fleet",
        help="record causal span traces in every cell under this trace "
        "context (default 'fleet' when the flag is given bare); the "
        "merged obs snapshot then carries one span tree per cell and "
        "'python -m repro.obs.report critpath' can explain the makespan",
    )
    parser.add_argument(
        "--summary-json", default=None, metavar="PATH",
        help="write the fleet counter summary as JSON",
    )
    parser.add_argument(
        "--events-jsonl", default=None, metavar="PATH",
        help="write the per-job event log as JSONL",
    )
    parser.add_argument(
        "--obs-snapshot", default=None, metavar="PATH",
        help="write the merged fleet-level observability snapshot",
    )
    parser.add_argument(
        "--trajectory", default=None, metavar="PATH",
        help="append a run record to this trajectory JSONL history",
    )
    args = parser.parse_args(argv)

    if args.names == ["list"]:
        for name, (_, desc) in GRIDS.items():
            print(f"{name:<8s} {desc}")
        return 0

    try:
        cache = None if args.no_cache else ResultCache(
            args.cache_dir, max_bytes=args.max_cache_bytes
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.names == ["scrub"]:
        return _run_scrub(cache, args)
    if args.names == ["chaos"]:
        return _run_chaos(args)

    # Resolve the checkpoint journal: beside the cache by default, an
    # explicit --checkpoint anywhere, no journal only when both are off.
    checkpoint_path = args.checkpoint
    if checkpoint_path is None and cache is not None:
        checkpoint_path = str(cache.root / "checkpoint.jsonl")

    backend_arg = args.backend
    seed = args.seed
    if args.resume:
        if checkpoint_path is None:
            print(
                "error: --resume needs a checkpoint journal "
                "(--checkpoint, or drop --no-cache)", file=sys.stderr,
            )
            return 2
        try:
            state = SweepCheckpoint.load(checkpoint_path)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        meta = state.meta
        if not args.names:
            args.names = [str(n) for n in meta.get("grids", [])]
        if not args.names:
            print(
                f"error: {checkpoint_path} has no resumable sweep "
                "metadata", file=sys.stderr,
            )
            return 2
        if seed is None and "seed" in meta:
            seed = int(meta["seed"])
        if backend_arg is None:
            backend_arg = meta.get("backend")
        summary = state.summary()
        print(
            f"resuming from {checkpoint_path}: "
            f"{summary['done']} done, {summary['failed']} failed, "
            f"{summary['poisoned']} poisoned, "
            f"{summary['pending']} pending of {summary['planned']} planned"
            + (" (sweep had already completed)" if state.ended else "")
        )
        failure_table = state.failure_table()
        if failure_table:
            print("previously failed:")
            print(failure_table)
    seed = 0 if seed is None else seed

    if not args.names:
        print("error: no grid names given (see 'list')", file=sys.stderr)
        return 2
    unknown = [n for n in args.names if n not in GRIDS]
    if unknown:
        print(f"unknown grids: {unknown}", file=sys.stderr)
        print(f"available: {', '.join(GRIDS)}", file=sys.stderr)
        return 2

    # Imported here so `list` and argparse errors never pay for the
    # experiment stack.
    from repro.backends import resolve_backend_name
    from repro.experiments.harness import run_grid

    try:
        # Pin the selection now: an invalid --backend (or a typo'd
        # REPRO_BACKEND) fails before any grid starts, and the resolved
        # name lands in the snapshot/trajectory metadata below.
        backend = resolve_backend_name(backend_arg)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    checkpoint = None
    if checkpoint_path is not None:
        checkpoint = SweepCheckpoint(checkpoint_path)
        checkpoint.begin(
            {
                "tool": "fleet",
                "grids": list(args.names),
                "seed": seed,
                "backend": backend,
                "jobs": args.jobs,
            }
        )
    progress = FleetProgress()
    # One supervisor for the whole invocation: breaker and poison state
    # span grids, so a tier broken in the first grid stays avoided.
    from repro.fleet.supervisor import Supervisor

    supervisor = Supervisor()
    status = 0
    t_start = time.perf_counter()
    for name in args.names:
        builder, desc = GRIDS[name]
        platform, programs, configs = builder(seed)
        t0 = time.perf_counter()
        try:
            grid = run_grid(
                platform,
                programs=programs,
                configs=configs,
                root_seed=seed,
                jobs=args.jobs,
                cache=cache,
                timeout=args.timeout,
                retries=args.retries,
                progress=progress,
                backend=backend,
                trace_context=args.trace_spans,
                checkpoint=checkpoint,
                dispatcher=args.dispatcher,
                supervisor=supervisor,
            )
        except ReproError as exc:
            print(f"{name}: FAILED: {exc}", file=sys.stderr)
            status = 1
            continue
        elapsed = time.perf_counter() - t0
        print(f"{'=' * 72}\n{name}: {desc}  [{elapsed:.1f}s]\n{'=' * 72}")
        print(grid.to_table())
        print()
    print(progress.format_summary())
    if args.summary_json:
        Path(args.summary_json).write_text(
            json.dumps(progress.summary(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if args.events_jsonl:
        progress.write_events_jsonl(args.events_jsonl)
    if args.obs_snapshot or args.trajectory:
        from repro.obs.snapshot import to_json
        from repro.obs.trajectory import TrajectoryStore, snapshot_metrics

        # "jobs" is volatile meta: comparable_snapshot strips it, so
        # --jobs 1 and --jobs N runs stay byte-identical where required.
        doc = progress.obs_snapshot(
            meta={
                "grids": "+".join(args.names),
                "seed": seed,
                "jobs": args.jobs,
                "backend": backend,
            }
        )
        if args.obs_snapshot:
            Path(args.obs_snapshot).write_text(
                to_json(doc), encoding="utf-8"
            )
        if args.trajectory:
            metrics = snapshot_metrics(doc)
            metrics["wall_clock_seconds"] = time.perf_counter() - t_start
            TrajectoryStore(args.trajectory).append(
                "fleet:" + "+".join(args.names),
                metrics,
                meta={
                    "seed": seed, "jobs": args.jobs,
                    "backend": backend,
                },
            )
    if checkpoint is not None:
        if status == 0:
            # Only a fully successful sweep gets the ``end`` record; a
            # failed one stays resumable.
            checkpoint.finish()
        else:
            checkpoint.close()
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
