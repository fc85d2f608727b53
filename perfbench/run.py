"""Layered reproduction benchmark for the AID simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-cold --seed 1 \\
        --seconds 10 --trace 0

Workloads (see ``layer_map.json`` for what each per-layer metric should
move, and where):

* ``grid-cold``  — the Fig. 6 + Fig. 7 grids (294 cells) through the
  fleet with ``jobs=2``, the process dispatcher, the vectorized backend
  and an empty cache per pass;
* ``grid-warm``  — the same cells against a cache filled in set-up;
* ``resilience`` — the fault-intensity x AID-variant sweep.

``--trace 0`` prints the end-to-end metrics: ``setup_s``, and the
median over passes of ``ops_per_s``, ``cpu_ms_per_op`` and
``peak_rss_mb``. Times are in calibrated seconds: a fixed stdlib+numpy
unit is timed before and after every pass, and host seconds are divided
by how much slower than :data:`CALIBRATION_REF_S` it ran, so the host's
minutes-long slow phases cancel out. The host figures go to the record.
``--trace 1`` runs an untraced pass, a traced pass and a second
untraced pass (the tracing-overhead base), plus the obs cost probes on
the grids, and prints the per-layer metrics (host seconds, but
calibrated ``trace.*`` walls) instead. Either way the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; every pass is checked, and
failed ops count into ``error_rate`` (failed / attempted). A fuller
record, with the box fingerprint and the quartiles, goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("grid-cold", "grid-warm", "resilience")

#: The repeatable part of set-up runs this often; its median counts.
SETUP_REPEATS = 3

#: Host seconds the median calibration unit takes on a quiet 2-vCPU
#: Xeon KVM guest: the unit of every reported time.
CALIBRATION_REF_S = 0.055

#: Calibration units timed per calibration; their median counts.
CALIBRATION_UNITS = 11

#: Caller settings that would change what the benchmark runs.
ISOLATED_VARS = ("REPRO_BACKEND", "FLEET_CACHE_DIR", "FLEET_CACHE_MAX_BYTES")

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


def isolate_environment(environ=os.environ) -> list[str]:
    """Drop the backend override, the cache location and every
    ``REPRO_FLEET_*`` injection variable; returns the names removed."""
    removed = sorted(
        k for k in environ
        if k in ISOLATED_VARS or k.startswith("REPRO_FLEET_")
    )
    for k in removed:
        del environ[k]
    return removed


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc() -> str:
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, f"L{level} {size}"))
    return best[1]


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def fingerprint(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "llc": _llc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "git_commit": _git_commit(),
    }


def make_workload(name: str, seed: int, work_dir: Path):
    import workloads

    if name == "grid-cold":
        return workloads.GridWorkload(seed, work_dir)
    if name == "grid-warm":
        return workloads.GridWorkload(seed, work_dir, warm=True)
    return workloads.ResilienceWorkload(seed)


def _calibration_unit() -> None:
    """Fixed interpreter and numpy work, independent of the program."""
    import random

    import numpy

    rng = random.Random(7)
    data = [rng.random() for _ in range(120_000)]
    acc: dict[int, float] = {}
    for i, x in enumerate(data):
        acc[i % 61] = acc.get(i % 61, 0.0) + x * x
    data.sort()
    json.dumps(acc)
    a = numpy.arange(400_000, dtype=float)
    float(numpy.cumsum(a).sum() + numpy.sqrt(a).sum())


def slowdown() -> float:
    """How much slower than the reference the host runs right now."""
    times = []
    for _ in range(CALIBRATION_UNITS):
        t0 = time.perf_counter()
        _calibration_unit()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / CALIBRATION_REF_S


def measure(workload, seconds: float, before: float) -> list:
    """Timed passes until ``seconds`` of passes have gone by (at least
    one), each given the mean host slowdown measured around it;
    ``before`` is the slowdown measured just before the first pass."""
    passes = []
    elapsed = 0.0
    while not passes or elapsed < seconds:
        result = workload.run_pass()
        after = slowdown()
        result.slowdown = (before + after) / 2
        passes.append(result)
        elapsed += result.wall_s
        before = after
    return passes


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def e2e_samples(
    passes: list, setup_runs: list[float], setup_slowdown: float
) -> dict[str, list[float]]:
    """End-to-end samples, times in calibrated seconds."""
    return {
        "setup_s": [s / setup_slowdown for s in setup_runs],
        "ops_per_s": [p.ops * p.slowdown / p.wall_s for p in passes],
        "cpu_ms_per_op": [
            p.cpu_s * 1e3 / p.ops / p.slowdown for p in passes
        ],
        "peak_rss_mb": [p.peak_rss_mb for p in passes],
    }


def layer_metrics(stats, traced, untraced, probes: dict, jobs: int) -> dict:
    """Every per-layer metric of ``layer_map.json``, by name."""
    from tracer import SCHED_FAMILIES

    m: dict[str, float] = {}
    families = sorted(set(SCHED_FAMILIES.values()))
    nr_calls = sum(
        stats.calls(f"sched.{f}.next_range") for f in families
    ) - stats.counts.get("sched.nested_calls", 0)
    nr_self = sum(stats.self_s(f"sched.{f}.next_range") for f in families)
    m["sched.next_range.calls"] = nr_calls
    m["sched.next_range.self_s"] = nr_self
    m["sched.next_range.us_per_call"] = (
        nr_self / nr_calls * 1e6 if nr_calls else 0.0
    )
    for f in families:
        m[f"sched.{f}.next_range_self_s"] = stats.self_s(
            f"sched.{f}.next_range"
        )
    for backend in ("reference", "vectorized"):
        m[f"backends.{backend}.calls"] = stats.calls(f"backends.{backend}")
        m[f"backends.{backend}.self_s"] = stats.self_s(f"backends.{backend}")
    fallbacks = stats.counts.get("backends.fallback.calls", 0)
    m["backends.fallback.calls"] = fallbacks
    vcalls = m["backends.vectorized.calls"]
    m["backends.fallback_ratio"] = fallbacks / vcalls if vcalls else 0.0
    for name in ("program_run", "loop_run"):
        m[f"runtime.{name}.calls"] = stats.calls(f"runtime.{name}")
        m[f"runtime.{name}.self_s"] = stats.self_s(f"runtime.{name}")
    m["runtime.dispatches"] = traced.layers.get("dispatches", 0)
    m.update(probes)
    m["obs.job_snapshot.calls"] = stats.calls("obs.job_snapshot")
    m["obs.job_snapshot.self_s"] = stats.self_s("obs.job_snapshot")
    m["obs.job_snapshot.bytes"] = stats.counts.get("obs.job_snapshot.bytes", 0)
    m["obs.merge.calls"] = stats.calls("obs.merge")
    m["obs.merge.self_s"] = stats.self_s("obs.merge")
    m["obs.snapshot_build.self_s"] = stats.self_s("obs.snapshot_build")
    m["obs.snapshot_write.self_s"] = stats.self_s("obs.snapshot_write")
    m["obs.merged_snapshot.bytes"] = traced.layers.get(
        "merged_snapshot_bytes", 0
    )
    for name in (
        "digest", "cache_get", "cache_put", "poison_check",
        "checkpoint_record", "cache_flush",
    ):
        m[f"fleet.{name}.calls"] = stats.calls(f"fleet.{name}")
        m[f"fleet.{name}.self_s"] = stats.self_s(f"fleet.{name}")
    gets = m["fleet.cache_get.calls"]
    m["fleet.cache_hits"] = traced.layers.get("cache_hits", 0)
    m["fleet.cache_hit_ratio"] = m["fleet.cache_hits"] / gets if gets else 0.0
    m["fleet.ipc_bytes"] = traced.layers.get("ipc_bytes", 0)
    wall = stats.total_s("fleet.run_jobs")
    m["fleet.run_jobs.wall_s"] = wall
    m["fleet.execute.total_s"] = stats.total_s("fleet.execute")
    m["fleet.worker_busy_ratio"] = (
        m["fleet.execute.total_s"] / (wall * jobs) if wall else 0.0
    )
    m["fleet.coordinator_wait_s"] = stats.self_s("fleet.run_jobs")
    m["fleet.retries"] = traced.layers.get("retries", 0)
    m["fleet.failures"] = traced.layers.get("failures", 0)
    m["faults.faulted_loops"] = stats.counts.get("faults.faulted_loops", 0)
    for name in ("faulted_loop", "clean_loop"):
        m[f"faults.{name}.self_s"] = stats.self_s(f"faults.{name}")
        m[f"faults.{name}.total_s"] = stats.total_s(f"faults.{name}")
    m["trace.untraced_wall_s"] = untraced.wall_s / untraced.slowdown
    m["trace.traced_wall_s"] = traced.wall_s / traced.slowdown
    m["trace.overhead_ratio"] = (
        m["trace.traced_wall_s"] / m["trace.untraced_wall_s"]
    )
    return m


def run(args, work_dir: Path) -> dict:
    """Set up, measure and check one workload; returns the full record."""
    import workloads

    t_ready = time.perf_counter()
    # Calibrating is not set-up work, so it runs off the set-up clock.
    setup_start = 1.0 if args.trace else slowdown()
    t0 = time.perf_counter()
    workload = make_workload(args.workload, args.seed, work_dir)
    make_s = time.perf_counter() - t0
    prepare_runs = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.prepare()
        prepare_runs.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    fill = workload.fill()
    once_s = (t_ready - T_START) + make_s + (time.perf_counter() - t0)
    setup_runs = [once_s + p for p in prepare_runs]
    passes = [fill] if fill is not None else []

    record: dict = {"workload": args.workload, "trace": args.trace}
    if args.trace:
        from tracer import LayerTracer

        # The first pass of a process runs slower (its heap is still
        # growing), so the overhead base is an untraced pass after it;
        # both are calibrated, since the host drifts between passes.
        first = workload.run_pass()
        tracer = LayerTracer(work_dir / "spool")
        before = slowdown()
        tracer.install()
        try:
            traced = workload.run_pass(tracer)
        finally:
            tracer.uninstall()
        stats = tracer.collect()
        between = slowdown()
        untraced = workload.run_pass()
        traced.slowdown = (before + between) / 2
        untraced.slowdown = (between + slowdown()) / 2
        # The probes time obs publication, which only the grids run.
        probes = (
            workloads.obs_probes(args.seed)
            if isinstance(workload, workloads.GridWorkload)
            else dict.fromkeys(workloads.PROBE_METRICS, 0.0)
        )
        layers = layer_metrics(stats, traced, untraced, probes, workloads.JOBS)
        units = json.loads((HERE / "layer_map.json").read_text())
        metrics = {
            name: {"value": value, "unit": units[name]["unit"]}
            for name, value in layers.items()
        }
        passes += [first, traced, untraced]
        record["spans"] = stats.to_doc()
    else:
        setup_end = slowdown()
        setup_slowdown = (setup_start + setup_end) / 2
        timed = measure(workload, args.seconds, setup_end)
        samples = e2e_samples(timed, setup_runs, setup_slowdown)
        record["quartiles"] = {k: quartiles(v) for k, v in samples.items()}
        record["host"] = {
            "setup_s": setup_runs,
            "setup_slowdown": setup_slowdown,
            "pass_wall_s": [p.wall_s for p in timed],
            "pass_cpu_s": [p.cpu_s for p in timed],
            "pass_slowdown": [p.slowdown for p in timed],
        }
        metrics = {
            name: {"value": record["quartiles"][name]["median"], "unit": unit}
            for name, unit in E2E_UNITS.items()
        }
        passes += timed
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    record.update(
        attempted=attempted,
        failed=failed,
        error_rate=failed / attempted,
        passes=len(passes),
        metrics=metrics,
    )
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    isolate_environment()
    sys.path[:0] = [str(SRC), str(HERE)]
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    os.environ["TMPDIR"] = tempfile.tempdir = str(work_dir)
    try:
        import repro

        if Path(repro.__file__).resolve().parent != SRC / "repro":
            print(
                f"error: repro imported from {repro.__file__}",
                file=sys.stderr,
            )
            return 2
        record = run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record["fingerprint"] = fingerprint(args.seed)

    results = out_dir / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (results / f"{stem}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    for name, q in sorted(record.get("quartiles", {}).items()):
        print(
            f"{args.workload:<11s} {name:<14s} median {q['median']:.6g} "
            f"q1 {q['q1']:.6g} q3 {q['q3']:.6g} n {q['n']} "
            f"{E2E_UNITS[name]}"
        )
    print(
        f"{args.workload:<11s} error_rate     {record['error_rate']:.6g} "
        f"({record['failed']} of {record['attempted']} ops) fraction"
    )
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
