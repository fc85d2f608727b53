"""The benchmark's workloads, their correctness checks and the obs probes.

Every workload offers the same three steps:

* ``prepare()`` — the repeatable part of set-up (specs, oracle, warm-up);
* ``fill()`` — one-shot set-up (``grid-warm`` fills its cache here);
* ``run_pass(tracer=None)`` — one timed pass, returning a
  :class:`PassResult` with its op count, failed ops and host costs.

A grid op is one cell; a resilience op is one simulated loop run.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import pickle
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.amp.presets import odroid_xu4, xeon_emulated
from repro.errors import ReproError
from repro.experiments import harness, resilience
from repro.experiments.harness import default_configs, run_grid, run_one
from repro.fleet import FleetProgress, ResultCache, Supervisor, SweepCheckpoint
from repro.obs.snapshot import to_json
from repro.workloads.registry import all_programs, get_program
from tracer import patched

#: Grid name -> platform factory, as ``python -m repro.fleet fig6 fig7``.
GRID_PLATFORMS = {"fig6": odroid_xu4, "fig7": xeon_emulated}

#: The fleet settings of the timed grid passes.
JOBS = 2
BACKEND = "vectorized"
DISPATCHER = "process"

#: Cells recomputed in set-up on the ``reference`` backend with
#: ``NULL_OBS``; every grid pass must match them exactly. Cheap cells
#: covering all seven configurations on both platforms.
ORACLE_CELLS = tuple(
    [("fig6", "EP", c.label) for c in default_configs()]
    + [("fig7", "EP", c.label) for c in default_configs()]
    + [
        ("fig6", "FT", "static(BS)"),
        ("fig6", "leukocyte", "dynamic(BS)"),
        ("fig6", "lavamd", "AID-hybrid"),
        ("fig6", "bptree", "AID-dynamic"),
        ("fig7", "FT", "static(SB)"),
        ("fig7", "leukocyte", "dynamic(SB)"),
        ("fig7", "bptree", "AID-static"),
        ("fig7", "lavamd", "AID-dynamic"),
    ]
)

#: The sweep's size: seeded fault plans per (variant, intensity) cell
#: and iterations per loop.
PLANS = 10
N_ITERATIONS = 8192

#: Stored SHA-256 digests of the resilience report payload, by seed.
DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: Each obs probe run is timed this often; the fastest counts.
PROBE_REPEATS = 3


def cell_key(platform: str, program: str, label: str) -> str:
    return f"{platform}|{program}|{label}"


@dataclass
class PassResult:
    ops: int
    failed: int
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    #: host slowdown against the calibration reference around the pass
    slowdown: float = 1.0
    #: per-pass layer figures the spans cannot give (absent = 0)
    layers: dict = field(default_factory=dict)


# -- host-cost metering -------------------------------------------------------


def _reset_peak_rss() -> bool:
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def _peak_rss_mb(reset_ok: bool) -> float:
    """Peak RSS since the reset (lifetime peak where the kernel cannot
    reset it)."""
    if reset_ok:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reap_children() -> None:
    """Wait for every worker process this process started."""
    for proc in multiprocessing.active_children():
        proc.join(60)


@contextlib.contextmanager
def metered(result: PassResult):
    """Fill ``result``'s wall, CPU (own + reaped workers) and peak RSS."""
    reset_ok = _reset_peak_rss()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    yield
    reap_children()
    result.wall_s = time.perf_counter() - t0
    result.cpu_s = _cpu_s() - cpu0
    result.peak_rss_mb = _peak_rss_mb(reset_ok)


# -- the Fig. 6/7 grid --------------------------------------------------------


class GridWorkload:
    """``grid-cold`` / ``grid-warm``: the Fig. 6 and Fig. 7 grids through
    :func:`repro.experiments.harness.run_grid`, as the fleet CLI runs them.

    Each pass gets its own :class:`SweepCheckpoint`, :class:`Supervisor`
    and :class:`FleetProgress` and writes the merged snapshot at the end.
    Cold passes use a fresh temporary cache; warm passes read the cache
    ``fill()`` wrote.
    """

    def __init__(
        self,
        seed: int,
        work_dir: Path,
        *,
        warm: bool = False,
        grids: tuple[str, ...] = ("fig6", "fig7"),
        programs: tuple[str, ...] | None = None,
        labels: tuple[str, ...] | None = None,
        oracle_cells: tuple[tuple[str, str, str], ...] = ORACLE_CELLS,
    ) -> None:
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.warm = warm
        self.grids = grids
        self.programs = (
            tuple(get_program(p) for p in programs)
            if programs is not None
            else all_programs()
        )
        self.configs = tuple(
            c for c in default_configs() if labels is None or c.label in labels
        )
        self.oracle_cells = tuple(
            cell for cell in oracle_cells if cell[0] in grids
        )
        self.ops_per_pass = len(grids) * len(self.programs) * len(self.configs)
        #: cell key -> repr(completion time) of the reference oracle
        self.oracle: dict[str, str] = {}
        #: cell key -> repr(completion time) of the first (or fill) pass
        self.baseline: dict[str, str] | None = None
        self.warm_cache_dir: Path | None = None
        #: fleet outcomes of the last pass (for IPC sizes)
        self.outcomes: list = []

    def _platform(self, grid: str):
        return GRID_PLATFORMS[grid]()

    def prepare(self) -> None:
        """Build every spec and its digest, compute the reference oracle,
        and warm the process pool with a two-cell grid."""
        for grid in self.grids:
            specs = harness.grid_specs(
                self._platform(grid), self.programs, self.configs,
                root_seed=self.seed, backend=BACKEND,
            )
            [spec.key for spec in specs]
        configs = {c.label: c for c in default_configs()}
        self.oracle = {}
        for grid, program, label in self.oracle_cells:
            platform = self._platform(grid)
            result = run_one(
                platform, get_program(program), configs[label],
                root_seed=self.seed, backend="reference",
            )
            self.oracle[cell_key(platform.name, program, label)] = repr(
                float(result.completion_time)
            )
        with tempfile.TemporaryDirectory(dir=self.work_dir) as tmp:
            run_grid(
                odroid_xu4(), (get_program("EP"),), default_configs()[:2],
                root_seed=self.seed, jobs=JOBS, cache=ResultCache(tmp),
                progress=FleetProgress(), backend=BACKEND,
                dispatcher=DISPATCHER, supervisor=Supervisor(),
            )
        reap_children()

    def fill(self) -> PassResult | None:
        """``grid-warm`` only: one cold pass fills the cache the timed
        passes read; its payload is the cold baseline they must equal.
        Only the cells run: no checkpoint, no merged snapshot."""
        if not self.warm:
            return None
        self.warm_cache_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        result = PassResult(ops=self.ops_per_pass, failed=0)
        self.baseline = self._run_cells(ResultCache(self.warm_cache_dir))
        reap_children()
        result.failed = self._check(self.baseline)
        return result

    def run_pass(self, tracer=None) -> PassResult:
        result = PassResult(ops=self.ops_per_pass, failed=0)
        pass_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        cache_dir = self.warm_cache_dir or pass_dir / "cache"
        try:
            with metered(result):
                payload, progress, snapshot_bytes = self._sweep(
                    cache_dir, pass_dir, tracer
                )
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        result.failed = self._check(payload)
        if self.baseline is None:
            self.baseline = payload
        summary = progress.summary()
        result.layers = {
            "cache_hits": summary["cache_hits"],
            "retries": summary["retries"],
            "failures": summary["failures"],
            "merged_snapshot_bytes": snapshot_bytes,
            "dispatches": sum(
                o.result.total_dispatches
                for o in self.outcomes
                if o.ok and not o.cached
            ),
        }
        if tracer is not None:
            result.layers["ipc_bytes"] = sum(
                len(pickle.dumps(o.spec)) + len(pickle.dumps(o.result))
                for o in self.outcomes
                if o.ok and o.mode == "process"
            )
        return result

    def _sweep(self, cache_dir: Path, pass_dir: Path, tracer):
        """One pass as the fleet CLI runs it: the cells, then the merged
        snapshot written and the checkpoint finished."""
        checkpoint = SweepCheckpoint(pass_dir / "checkpoint.jsonl")
        checkpoint.begin(
            {"tool": "perfbench", "grids": list(self.grids),
             "seed": self.seed, "backend": BACKEND, "jobs": JOBS}
        )
        progress = FleetProgress()
        payload = self._run_cells(
            ResultCache(cache_dir), progress=progress, checkpoint=checkpoint,
            supervisor=Supervisor(),
        )
        doc = progress.obs_snapshot(
            meta={"grids": "+".join(self.grids), "seed": self.seed,
                  "jobs": JOBS, "backend": BACKEND}
        )
        with (
            tracer.stats.span("obs.snapshot_write")
            if tracer is not None
            else contextlib.nullcontext()
        ):
            text = to_json(doc)
            (pass_dir / "snapshot.json").write_text(text, encoding="utf-8")
        checkpoint.finish()
        return payload, progress, len(text)

    def _run_cells(self, cache: ResultCache, **fleet) -> dict[str, str]:
        """Every grid through ``run_grid``; returns the completion-time
        payload of the cells whose fleet outcome is ok."""
        self.outcomes = []

        def capture(run_jobs):
            def run_jobs_capturing(*args, **kwargs):
                outcomes = run_jobs(*args, **kwargs)
                self.outcomes.extend(outcomes)
                return outcomes

            return run_jobs_capturing

        with patched(harness, "run_jobs", capture):
            for grid in self.grids:
                try:
                    run_grid(
                        self._platform(grid), self.programs, self.configs,
                        root_seed=self.seed, jobs=JOBS, cache=cache,
                        backend=BACKEND, dispatcher=DISPATCHER, **fleet,
                    )
                except ReproError:
                    pass  # failed cells are counted from the outcomes
        return {
            cell_key(o.spec.platform.name, o.spec.program.name, o.spec.label):
                repr(float(o.result.completion_time))
            for o in self.outcomes
            if o.ok
        }

    def _check(self, payload: dict[str, str]) -> int:
        """Failed cells: missing (fleet outcome not ok), different from
        the oracle, or different from the first pass."""
        failed = self.ops_per_pass - len(payload)
        for key, value in payload.items():
            if key in self.oracle and value != self.oracle[key]:
                failed += 1
            elif self.baseline is not None and value != self.baseline.get(key):
                failed += 1
        return failed


# -- the resilience sweep -----------------------------------------------------


class ResilienceWorkload:
    """``resilience``: :func:`repro.experiments.resilience.sweep`, five
    AID variants x three fault intensities x :data:`PLANS` seeded plans,
    with every loop handed to the ``vectorized`` backend (faulted loops
    fall back to ``reference`` inside it). No obs bundle, no fleet."""

    def __init__(self, seed: int) -> None:
        from repro.check.generators import DEFAULT_VARIANTS

        self.seed = seed
        self.variants = DEFAULT_VARIANTS
        self.ops_per_variant = 1 + len(resilience.DEFAULT_INTENSITIES) * PLANS
        self.ops_per_pass = len(self.variants) * self.ops_per_variant
        self.baseline: dict[str, str] | None = None
        self.stored_digest: str | None = None

    def prepare(self) -> None:
        """Load the stored digest and warm the engines with a tiny sweep."""
        digests = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
        self.stored_digest = digests.get(self._digest_key())
        self._sweep(plans=1, n_iterations=256)

    def fill(self) -> None:
        return None

    def _digest_key(self) -> str:
        return (
            f"seed={self.seed};plans={PLANS};n_iterations={N_ITERATIONS};"
            f"variants={','.join(self.variants)}"
        )

    def _sweep(self, plans: int, n_iterations: int, dispatches=None):
        def on_vectorized(run_loop):
            def run_loop_vectorized(*args, **kwargs):
                kwargs.setdefault("backend", BACKEND)
                loop = run_loop(*args, **kwargs)
                if dispatches is not None:
                    dispatches.append(loop.dispatches)
                return loop

            return run_loop_vectorized

        with patched(resilience, "run_loop", on_vectorized):
            return resilience.sweep(
                variants=self.variants, seeds=plans,
                n_iterations=n_iterations, root_seed=self.seed,
            )

    def run_pass(self, tracer=None) -> PassResult:
        result = PassResult(ops=self.ops_per_pass, failed=0)
        dispatches: list[int] = []
        with metered(result):
            report = self._sweep(PLANS, N_ITERATIONS, dispatches)
        payload = report.to_payload()
        by_variant = {
            v: json.dumps(
                [c for c in payload["cells"] if c["variant"] == v],
                sort_keys=True,
            )
            for v in self.variants
        }
        digest = payload_digest(payload)
        if self.stored_digest is not None and digest != self.stored_digest:
            result.failed = self.ops_per_pass
        elif self.baseline is not None:
            result.failed = self.ops_per_variant * sum(
                by_variant[v] != self.baseline[v] for v in self.variants
            )
        if self.baseline is None:
            self.baseline = by_variant
        result.layers = {"dispatches": sum(dispatches)}
        return result


def payload_digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- obs cost probes ----------------------------------------------------------

#: ROADMAP item 1's seed data point: CG on odroid_xu4 under these two
#: configurations, on both simulator backends.
CG_PROBE = (("cg_dynamic_sb", "dynamic(SB)"), ("cg_aid_static", "AID-static"))
PROBE_BACKENDS = ("reference", "vectorized")

#: Every metric :func:`obs_probes` reports.
PROBE_METRICS = (
    "obs.cost_base_ms", "obs.cost_ratio",
    "obs.spans_cost_base_ms", "obs.spans_cost_ratio",
) + tuple(
    f"obs.probe.{name}.{backend}.{field}"
    for name, _ in CG_PROBE
    for backend in PROBE_BACKENDS
    for field in ("off_ms", "on_ms", "cost_ratio")
)


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def obs_probes(seed: int) -> dict[str, float]:
    """Obs-on over obs-off cost of ``ProgramRunner.run``, fastest of
    :data:`PROBE_REPEATS` per run, with its obs-off base in milliseconds.

    ``obs.cost_ratio`` sums the oracle cells on the grid backend;
    ``obs.spans_cost_ratio`` adds a ``SpanRecorder`` to a live bundle;
    ``obs.probe.<cell>.<backend>.*`` are the CG seed data points.
    """
    from repro.obs import NULL_OBS, Observability, SpanRecorder
    from repro.runtime.program_runner import ProgramRunner

    configs = {c.label: c for c in default_configs()}

    def runtime(grid, program, label, backend, make_obs) -> float:
        platform = GRID_PLATFORMS[grid]()
        prog = get_program(program)
        env = configs[label].env

        def run():
            ProgramRunner(
                platform, env, root_seed=seed, obs=make_obs(),
                backend=backend,
            ).run(prog)

        return _best_of(run, PROBE_REPEATS)

    out: dict[str, float] = {}
    off = on = spans_on = 0.0
    for grid, program, label in ORACLE_CELLS:
        off += runtime(grid, program, label, BACKEND, lambda: NULL_OBS)
        on += runtime(grid, program, label, BACKEND, Observability)
        spans_on += runtime(
            grid, program, label, BACKEND,
            lambda: Observability(spans=SpanRecorder(context="perfbench")),
        )
    out["obs.cost_base_ms"] = off * 1e3
    out["obs.cost_ratio"] = on / off
    out["obs.spans_cost_base_ms"] = on * 1e3
    out["obs.spans_cost_ratio"] = spans_on / on
    for name, label in CG_PROBE:
        for backend in PROBE_BACKENDS:
            off = runtime("fig6", "CG", label, backend, lambda: NULL_OBS)
            on = runtime("fig6", "CG", label, backend, Observability)
            prefix = f"obs.probe.{name}.{backend}"
            out[f"{prefix}.off_ms"] = off * 1e3
            out[f"{prefix}.on_ms"] = on * 1e3
            out[f"{prefix}.cost_ratio"] = on / off
    return out
