"""JSON metrics snapshots: the single run artifact everything reads.

A snapshot bundles the metrics registry dump, the scheduler decision
log, and caller-supplied metadata into one deterministic JSON document —
the format ``python -m repro.obs.report`` consumes and the benchmark
harness derives its machine-readable results from. Determinism is a
design requirement (a satellite test asserts byte-identical snapshots
from identical seeded runs), so: keys are sorted, metrics are sorted by
(name, labels) inside the registry, and no wall-clock timestamps are
stamped here — pass run identity through ``meta`` if you need it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from repro.errors import ObsError

#: Document format identifier.
SCHEMA = "repro.obs.snapshot/v1"


def build_snapshot(obs, meta: Mapping[str, object] | None = None) -> dict:
    """Assemble the snapshot document for an
    :class:`~repro.obs.Observability` bundle.

    When the bundle carries a span recorder, the canonical span-trace
    document rides along under ``spans``; runs without tracing emit a
    byte-identical snapshot to what they produced before spans existed.
    """
    doc = {
        "schema": SCHEMA,
        "meta": dict(meta) if meta else {},
        "metrics": obs.registry.snapshot(),
        "decisions": list(obs.decisions.records),
    }
    spans = getattr(obs, "spans", None)
    if spans is not None:
        doc["spans"] = spans.as_doc()
    return doc


def canonical_json(doc: object) -> str:
    """The repo's one canonical JSON form: sorted keys, compact
    ``(",", ":")`` separators, no trailing newline.

    Job snapshots, job-spec digests, fleet cache documents and merged
    snapshots all use it, so equal documents are equal strings. Unlike
    ``indent``, which drops CPython onto its pure-Python encoder, this
    form runs on the C encoder.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def to_json(snapshot: Mapping[str, object]) -> str:
    """Canonical serialization: :func:`canonical_json` plus one trailing
    newline, i.e. ``json.dumps(snapshot, sort_keys=True,
    separators=(",", ":")) + "\\n"``.

    Readers parse any JSON layout, so snapshots written in the older
    indented form still load through :func:`load_snapshot` and diff
    cleanly against compact ones.
    """
    return canonical_json(snapshot) + "\n"


def write_snapshot(
    path: str | Path, obs, meta: Mapping[str, object] | None = None
) -> str:
    """Build, serialize and write a snapshot; returns the JSON text."""
    text = to_json(build_snapshot(obs, meta))
    Path(path).write_text(text, encoding="utf-8")
    return text


def load_snapshot(path: str | Path) -> dict:
    """Read a snapshot back, checking the schema marker."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ObsError(f"cannot read snapshot {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise ObsError(
            f"{path} is not a {SCHEMA} snapshot "
            f"(schema={doc.get('schema') if isinstance(doc, dict) else None!r})"
        )
    return doc


# -- canonical result payloads (one source of truth for reported numbers) --


def completion_payload(
    scheme: str, platform: str, completion_time: float, baseline_time: float
) -> dict:
    """One (scheme, platform) result row in the shared reporting format.

    Normalization routes through
    :func:`repro.metrics.stats.normalized_performance`, the same function
    the experiment grids use, so benchmark JSON, Table-2 summaries and
    Figs. 6/7 can never disagree on the definition.
    """
    # Imported here: repro.metrics pulls in the runtime package, which
    # imports repro.obs — a cycle at module-import time only.
    from repro.metrics.stats import normalized_performance

    return {
        "scheme": scheme,
        "platform": platform,
        "completion_time": completion_time,
        "normalized_performance": normalized_performance(
            baseline_time, completion_time
        ),
    }


def grid_payload(grid, baseline: str | None = None) -> dict:
    """Reporting payload for an experiments ``GridResult``.

    The payload is a faithful round-trip format:
    :meth:`repro.experiments.harness.GridResult.from_payload` is its
    exact inverse. JSON serialization may sort object keys (ours does),
    so cell *ordering* travels in the explicit ``program_order`` and
    ``schemes`` lists rather than in dict insertion order.

    Args:
        grid: a :class:`repro.experiments.harness.GridResult`.
        baseline: baseline scheme label; defaults to the grid harness's
            own (static(SB), as in the paper).
    """
    from repro.experiments.harness import BASELINE_LABEL

    base = baseline if baseline is not None else BASELINE_LABEL
    rows: dict[str, list[dict]] = {}
    for program, times in sorted(grid.times.items()):
        base_time = times[base]
        rows[program] = [
            completion_payload(label, grid.platform_name, t, base_time)
            for label, t in sorted(times.items())
        ]
    return {
        "platform": grid.platform_name,
        "baseline": base,
        "schemes": list(grid.config_labels),
        "program_order": list(grid.times),
        "programs": rows,
    }
