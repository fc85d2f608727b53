"""Golden decision-log regression fixtures.

One canonical run per AID variant — ``odroid_xu4()``, 64 iterations of a
linear cost ramp, default overheads, no wake jitter — produces a
deterministic scheduler decision log. The logs are committed under
``tests/golden/`` as JSONL; the regression test replays the runs and
compares byte-for-byte, so *any* change to a scheduler's decision
sequence fails loudly with a rendered divergence instead of silently
shifting Figs. 6/7-style results.

Determinism notes: the ramp is a pure ``linspace`` (no RNG, so no
numpy-version drift), the executor runs with ``rng=None`` (no wake
jitter) and all arithmetic is plain IEEE doubles — the JSONL is
reproducible across machines.

Next to the logs sits the *engine corpus*, ``engine_corpus.json``: for
every case of two backend-diff campaigns (CI's ``backends --cases 200
--seed 1``, and ``--cases 200 --seed 2 --faults sim``, which CI checks
only here), a short SHA-256 of each field
:func:`repro.check.backend_diff.observe_case` returns on the
``reference`` backend — the result key, the decision log, the metrics
JSON, the span document and the trace intervals. It ties the simulated
engine to the outputs it produced when it was frozen, faulted runs
included, so an engine rewrite that keeps both backends equal to each
other still cannot drift from the old ground truth.

The *resilience sweep pin*, ``resilience_sweep.json``, holds one SHA-256
per root seed of the canonical-JSON payload of a small
:func:`repro.experiments.resilience.sweep` (every AID variant, three
fault intensities, seeded random fault plans). It pins the fault
engine's end-to-end numbers — degradation and recovery per cell — the
way the engine corpus pins single loops.

The *paper-grid pin*, ``paper_grids.json``, holds one SHA-256 per
platform of the canonical-JSON :func:`~repro.obs.snapshot.grid_payload`
of the full Fig. 6/7 grid (every program under every default
configuration, root seed 0). It pins the paper's 294 cells byte for
byte; a mismatch names the platform.

The *fleet-snapshot pin*, ``fleet_snapshot.json``, holds the SHA-256 of
the canonical-JSON :func:`~repro.obs.merge.comparable_snapshot` of the
merged fleet snapshot of the ``smoke`` grid (``python -m repro.fleet
smoke``: root seed 0, ``jobs=1``, a fresh cache), once without span
tracing and once with it. It pins the merge and the render of the
fleet's observability snapshot byte for byte; a mismatch names the
variant.

:class:`GoldenArtifacts` holds the fresh side of every comparison, each
part computed on first use, so one computation can serve several
checks (the test suite builds one per session).

Regenerate all of them deliberately with::

    python -m repro.check golden --update
"""

from __future__ import annotations

import hashlib
import json
from functools import cached_property
from pathlib import Path

from repro.check.backend_diff import (
    BackendObservation,
    campaign_cases,
    observe_case,
)
from repro.check.generators import preset_platform, run_loop
from repro.check.recording import CheckContext
from repro.obs.snapshot import canonical_json, grid_payload
from repro.perfmodel.overhead import OverheadModel
from repro.sched.registry import parse_schedule
from repro.workloads.costmodels import RampCost

#: file-stem -> schedule string. Keep in sync with tests/golden/*.jsonl.
GOLDEN_VARIANTS: dict[str, str] = {
    "aid_static": "aid_static",
    "aid_hybrid_80": "aid_hybrid,80",
    "aid_dynamic_1_5": "aid_dynamic,1,5",
    "aid_auto_1_5": "aid_auto,1,5",
    "aid_steal_8": "aid_steal,8",
}

#: Canonical workload: enough iterations for every variant to pass
#: through its full state machine (sampling, publication, drain/phases/
#: steals) on the 4+4 odroid preset, small enough to diff by eye.
GOLDEN_N_ITERATIONS = 64
_GOLDEN_COST = RampCost(5e-5, 2e-4)

#: The engine corpus: file name, schema and the frozen campaigns, keyed
#: by their ``python -m repro.check backends`` arguments ->
#: ``(cases, seed, faults)``.
ENGINE_CORPUS_FILE = "engine_corpus.json"
ENGINE_CORPUS_SCHEMA = "repro.check.engine_corpus/v1"
ENGINE_CAMPAIGNS: dict[str, tuple[int, int, str | None]] = {
    "--cases 200 --seed 1": (200, 1, None),
    "--cases 200 --seed 2 --faults sim": (200, 2, "sim"),
}
#: The digested fields of one observation, in report order.
ENGINE_FIELDS = ("result", "decisions", "metrics", "spans", "intervals")

#: The resilience sweep pin: file name, schema, the sweep's size
#: (``sweep(seeds=..., n_iterations=...)``) and the root seeds it runs at.
SWEEP_PIN_FILE = "resilience_sweep.json"
SWEEP_PIN_SCHEMA = "repro.check.resilience_sweep/v1"
SWEEP_SEEDS = 2
SWEEP_N_ITERATIONS = 1024
SWEEP_ROOT_SEEDS = (0, 1)

#: The paper-grid pin: file name, schema and the presets whose full
#: grid (``run_grid(platform)``, root seed 0) it pins.
GRID_PIN_FILE = "paper_grids.json"
GRID_PIN_SCHEMA = "repro.check.grid_pin/v1"
GRID_PRESETS = ("odroid_xu4", "xeon_emulated")

#: The fleet-snapshot pin: file name, schema, the fleet grid it runs and
#: its variants (name -> span trace context, ``None`` = untraced).
FLEET_PIN_FILE = "fleet_snapshot.json"
FLEET_PIN_SCHEMA = "repro.check.fleet_pin/v1"
FLEET_GRID = "smoke"
FLEET_VARIANTS: dict[str, str | None] = {"untraced": None, "traced": "pin"}


def run_golden(key: str) -> CheckContext:
    """Execute one golden case and return its recorded observation."""
    schedule = GOLDEN_VARIANTS[key]
    platform = preset_platform("odroid_xu4")
    costs = _GOLDEN_COST.generate(GOLDEN_N_ITERATIONS, rng=None)
    check = CheckContext()
    run_loop(
        platform,
        parse_schedule(schedule),
        n_iterations=GOLDEN_N_ITERATIONS,
        costs=costs,
        overhead=OverheadModel(),
        check=check,
        rng=None,
    )
    return check


def golden_jsonl(key: str) -> str:
    """The canonical decision-log serialization for one variant."""
    return run_golden(key).decisions.to_jsonl()


def digest(text: str) -> str:
    """Digest used to name a decision-log revision in messages."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def render_divergence(key: str, expected: str, actual: str) -> str:
    """Oracle-style rendering of the first decision-log divergence."""
    exp_lines = expected.splitlines()
    act_lines = actual.splitlines()
    idx = next(
        (
            i
            for i, (a, b) in enumerate(zip(exp_lines, act_lines))
            if a != b
        ),
        min(len(exp_lines), len(act_lines)),
    )
    lines = [
        f"golden decision log for {key!r} diverged "
        f"(expected digest {digest(expected)}, got {digest(actual)})",
        f"first divergence at record {idx} "
        f"({len(exp_lines)} expected records, {len(act_lines)} actual):",
    ]
    for label, src in (("expected", exp_lines), ("actual  ", act_lines)):
        for i in range(max(0, idx - 1), min(len(src), idx + 2)):
            rec = json.loads(src[i])
            marker = ">>" if i == idx else "  "
            lines.append(
                f"{marker} {label} #{i}: tid={rec['tid']} t={rec['t']:.3e} "
                f"{rec['event']}"
                + (f" range={rec['range']}" if "range" in rec else "")
            )
    lines.append(
        "if the schedule change is intentional, regenerate with: "
        "python -m repro.check golden --update"
    )
    return "\n".join(lines)


def observation_digests(obs: BackendObservation) -> dict[str, str]:
    """Short SHA-256 of each field of one backend observation."""
    intervals = [
        (i.tid, i.state.name, i.t0, i.t1, i.label) for i in obs.intervals
    ]
    return {
        "result": digest(json.dumps(obs.key, default=lambda o: o.item())),
        "decisions": digest(obs.decisions.decode("utf-8")),
        "metrics": digest(obs.metrics),
        "spans": digest(obs.spans),
        "intervals": digest(json.dumps(intervals)),
    }


def engine_corpus() -> dict[str, list[dict]]:
    """Campaign name -> one ``{"seed", *ENGINE_FIELDS}`` row per case."""
    return {
        name: [
            {"seed": case.seed,
             **observation_digests(observe_case(case, "reference"))}
            for case in campaign_cases(cases, seed, faults=faults)
        ]
        for name, (cases, seed, faults) in ENGINE_CAMPAIGNS.items()
    }


def engine_corpus_text(campaigns: dict[str, list[dict]]) -> str:
    """The corpus file: one case per line, so a diff names the case."""
    blocks = [
        f"  {json.dumps(name)}: [\n"
        + ",\n".join(
            "    " + json.dumps(row, sort_keys=True) for row in rows
        )
        + "\n  ]"
        for name, rows in campaigns.items()
    ]
    return (
        f'{{\n "schema": "{ENGINE_CORPUS_SCHEMA}",\n "campaigns": {{\n'
        + ",\n".join(blocks)
        + "\n }\n}\n"
    )


def corpus_divergence(
    expected: dict[str, list[dict]], actual: dict[str, list[dict]]
) -> list[str]:
    """One line per divergence between two corpora, naming the
    campaign, the case seed and the field."""
    lines = []
    for name in sorted(set(expected) | set(actual)):
        exp_rows = expected.get(name, [])
        act_rows = actual.get(name, [])
        if len(exp_rows) != len(act_rows):
            lines.append(
                f"campaign {name!r}: {len(exp_rows)} frozen cases, "
                f"{len(act_rows)} generated"
            )
        for exp, act in zip(exp_rows, act_rows):
            if exp["seed"] != act["seed"]:
                lines.append(
                    f"campaign {name!r}: case seed {exp['seed']} "
                    f"generated as {act['seed']}"
                )
                continue
            for field_name in ENGINE_FIELDS:
                if exp[field_name] != act[field_name]:
                    lines.append(
                        f"campaign {name!r}, case seed {exp['seed']}: "
                        f"{field_name} {exp[field_name]} != "
                        f"{act[field_name]}"
                    )
    return lines


def check_engine_corpus(
    path: Path, fresh: GoldenArtifacts | None = None
) -> str | None:
    """Compare the committed corpus with ``fresh.corpus`` (default: a
    new run); ``None`` = match."""
    if not path.exists():
        return f"engine corpus {path} missing; run --update"
    expected = json.loads(path.read_text(encoding="utf-8"))["campaigns"]
    fresh = fresh if fresh is not None else fresh_artifacts()
    lines = corpus_divergence(expected, fresh.corpus)
    if not lines:
        return None
    return "\n".join(
        [f"engine corpus {path.name} diverged in {len(lines)} place(s):"]
        + lines
        + ["if the engine change is intentional, regenerate with: "
           "python -m repro.check golden --update"]
    )


def payload_digest(payload: dict) -> str:
    """Full SHA-256 of a payload's canonical JSON."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def sweep_digests() -> dict[str, str]:
    """Root seed (as a string) -> :func:`payload_digest` of the
    resilience sweep payload."""
    from repro.experiments.resilience import sweep

    return {
        str(seed): payload_digest(
            sweep(
                seeds=SWEEP_SEEDS, n_iterations=SWEEP_N_ITERATIONS,
                root_seed=seed,
            ).to_payload()
        )
        for seed in SWEEP_ROOT_SEEDS
    }


def grid_digests(grids=None) -> dict[str, str]:
    """Platform name -> :func:`payload_digest` of the grid's
    :func:`~repro.obs.snapshot.grid_payload`, for ``grids`` (default:
    the full grid of each :data:`GRID_PRESETS` platform, built here)."""
    from repro.experiments.harness import run_grid

    if grids is None:
        grids = [run_grid(preset_platform(name)) for name in GRID_PRESETS]
    return {g.platform_name: payload_digest(grid_payload(g)) for g in grids}


def fleet_snapshots() -> dict[str, str]:
    """Variant -> the merged fleet snapshot's text (``to_json``) of the
    :data:`FLEET_GRID` grid, run as ``python -m repro.fleet`` runs it
    (root seed 0, ``jobs=1``, a fresh cache) on the ``reference``
    backend."""
    import tempfile

    from repro.experiments.harness import run_grid
    from repro.fleet import FleetProgress, ResultCache
    from repro.fleet.cli import GRIDS
    from repro.obs.snapshot import to_json

    builder, _ = GRIDS[FLEET_GRID]
    texts = {}
    for variant, context in FLEET_VARIANTS.items():
        platform, programs, configs = builder(0)
        progress = FleetProgress()
        with tempfile.TemporaryDirectory() as cache_dir:
            run_grid(
                platform, programs, configs, root_seed=0, jobs=1,
                cache=ResultCache(cache_dir), progress=progress,
                backend="reference", trace_context=context,
            )
        texts[variant] = to_json(
            progress.obs_snapshot(meta={"grids": FLEET_GRID})
        )
    return texts


def fleet_digests(texts: dict[str, str]) -> dict[str, str]:
    """Variant -> :func:`payload_digest` of the comparable snapshot
    (:func:`~repro.obs.merge.comparable_snapshot`) of each text of
    :func:`fleet_snapshots`."""
    from repro.obs.merge import comparable_snapshot

    return {
        variant: payload_digest(comparable_snapshot(json.loads(text)))
        for variant, text in texts.items()
    }


class GoldenArtifacts:
    """The fresh side of every golden comparison, each part computed on
    first use and kept: ``logs`` (variant key -> decision-log JSONL),
    ``corpus`` (:func:`engine_corpus`), ``sweep`` (:func:`sweep_digests`),
    ``grids`` (:func:`grid_digests`), ``fleet_texts``
    (:func:`fleet_snapshots`) and ``fleet`` (their
    :func:`fleet_digests`). ``grids`` may be supplied by a caller that
    already built both full grids."""

    def __init__(self, grids: dict[str, str] | None = None) -> None:
        if grids is not None:
            self.grids = grids

    @cached_property
    def logs(self) -> dict[str, str]:
        return {key: golden_jsonl(key) for key in GOLDEN_VARIANTS}

    @cached_property
    def corpus(self) -> dict[str, list[dict]]:
        return engine_corpus()

    @cached_property
    def sweep(self) -> dict[str, str]:
        return sweep_digests()

    @cached_property
    def grids(self) -> dict[str, str]:
        return grid_digests()

    @cached_property
    def fleet_texts(self) -> dict[str, str]:
        return fleet_snapshots()

    @cached_property
    def fleet(self) -> dict[str, str]:
        return fleet_digests(self.fleet_texts)


def fresh_artifacts() -> GoldenArtifacts:
    """A new, not yet computed :class:`GoldenArtifacts`."""
    return GoldenArtifacts()


def pin_text(schema: str, digests: dict[str, str], **size: int) -> str:
    """A digest pin file: its schema, the run's size and the digests."""
    doc = {"schema": schema, **size, "digests": digests}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def sweep_pin_text(digests: dict[str, str]) -> str:
    """The sweep pin file: the sweep's size and one digest per seed."""
    return pin_text(
        SWEEP_PIN_SCHEMA, digests,
        seeds=SWEEP_SEEDS, n_iterations=SWEEP_N_ITERATIONS,
    )


def grid_pin_text(digests: dict[str, str]) -> str:
    """The grid pin file: one digest per platform name."""
    return pin_text(GRID_PIN_SCHEMA, digests)


def fleet_pin_text(digests: dict[str, str]) -> str:
    """The fleet-snapshot pin file: one digest per variant."""
    return pin_text(FLEET_PIN_SCHEMA, digests)


def _check_pin(
    path: Path, title: str, key_name: str, actual_of, order=None
) -> str | None:
    """Compare a digest pin with fresh digests (``actual_of()``, called
    only when the pin exists); ``None`` = match. A mismatch names each
    diverging key."""
    if not path.exists():
        return f"{title} {path} missing; run --update"
    expected = json.loads(path.read_text(encoding="utf-8"))["digests"]
    actual = actual_of()
    lines = [
        f"{key_name} {key}: payload digest {expected.get(key)} != "
        f"{actual.get(key)}"
        for key in sorted(set(expected) | set(actual), key=order)
        if expected.get(key) != actual.get(key)
    ]
    if not lines:
        return None
    return "\n".join(
        [f"{title} {path.name} diverged:"]
        + lines
        + ["if the change is intentional, regenerate with: "
           "python -m repro.check golden --update"]
    )


def check_sweep_pin(
    path: Path, fresh: GoldenArtifacts | None = None
) -> str | None:
    """Compare the committed sweep pin with ``fresh.sweep`` (default: a
    new sweep); ``None`` = match. A mismatch names each diverging root
    seed."""
    return _check_pin(
        path, "resilience sweep pin", "root seed",
        lambda: (fresh or fresh_artifacts()).sweep, order=int,
    )


def check_grid_pin(
    path: Path, fresh: GoldenArtifacts | None = None
) -> str | None:
    """Compare the committed grid pin with ``fresh.grids`` (default:
    both grids built anew); ``None`` = match. A mismatch names each
    diverging platform."""
    return _check_pin(
        path, "paper-grid pin", "platform",
        lambda: (fresh or fresh_artifacts()).grids,
    )


def check_fleet_pin(
    path: Path, fresh: GoldenArtifacts | None = None
) -> str | None:
    """Compare the committed fleet-snapshot pin with ``fresh.fleet``
    (default: both smoke runs anew); ``None`` = match. A mismatch names
    each diverging variant."""
    return _check_pin(
        path, "fleet-snapshot pin", "variant",
        lambda: (fresh or fresh_artifacts()).fleet,
    )


def check_golden(
    directory: str | Path, fresh: GoldenArtifacts | None = None
) -> dict[str, str]:
    """Compare every golden file, the engine corpus, the resilience
    sweep pin, the paper-grid pin and the fleet-snapshot pin against
    ``fresh`` (default: a new :func:`fresh_artifacts`; a part whose
    file is missing is never computed).

    Returns a map of diverging keys (variant keys,
    :data:`ENGINE_CORPUS_FILE`, :data:`SWEEP_PIN_FILE`,
    :data:`GRID_PIN_FILE` or :data:`FLEET_PIN_FILE`) to rendered
    divergence reports (empty = all match). Missing files count as
    divergences.
    """
    directory = Path(directory)
    fresh = fresh if fresh is not None else fresh_artifacts()
    problems: dict[str, str] = {}
    for name, check in (
        (ENGINE_CORPUS_FILE, check_engine_corpus),
        (SWEEP_PIN_FILE, check_sweep_pin),
        (GRID_PIN_FILE, check_grid_pin),
        (FLEET_PIN_FILE, check_fleet_pin),
    ):
        report = check(directory / name, fresh)
        if report is not None:
            problems[name] = report
    for key in GOLDEN_VARIANTS:
        path = directory / f"{key}.jsonl"
        actual = fresh.logs[key]
        if not path.exists():
            problems[key] = f"golden file {path} missing; run --update"
            continue
        expected = path.read_text(encoding="utf-8")
        if expected != actual:
            problems[key] = render_divergence(key, expected, actual)
    return problems


def update_golden(
    directory: str | Path, fresh: GoldenArtifacts | None = None
) -> list[str]:
    """(Re)write every golden file, the engine corpus, the sweep pin, the
    grid pin and the fleet-snapshot pin from ``fresh`` (default: a new
    :func:`fresh_artifacts`); returns the paths written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    fresh = fresh if fresh is not None else fresh_artifacts()
    files = {f"{key}.jsonl": text for key, text in fresh.logs.items()}
    files[ENGINE_CORPUS_FILE] = engine_corpus_text(fresh.corpus)
    files[SWEEP_PIN_FILE] = sweep_pin_text(fresh.sweep)
    files[GRID_PIN_FILE] = grid_pin_text(fresh.grids)
    files[FLEET_PIN_FILE] = fleet_pin_text(fresh.fleet)
    written = []
    for name, text in files.items():
        path = directory / name
        path.write_text(text, encoding="utf-8")
        written.append(str(path))
    return written
