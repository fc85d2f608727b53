"""Sim-time cost attribution: where a run's simulated seconds went.

:func:`cost_attribution` is *deterministic*: it reads the
``sim_time_seconds_total{loop, core_type, category}`` counters the
runtime publishes (compute / runtime overhead / fault stall from
:class:`~repro.runtime.executor.LoopExecutor`, barrier idle from
:class:`~repro.runtime.program_runner.ProgramRunner`) and renders the
simulated-seconds split per loop and core type — the quantity the
paper's overhead arguments are about. ``python -m repro.obs.report
profile SNAPSHOT`` prints it for an existing snapshot. Wall-clock cost
is measured by the benchmark under ``perfbench/``.
"""

from __future__ import annotations

from typing import Mapping

#: Attribution categories, in display order.
CATEGORIES = ("compute", "overhead", "stall", "idle")


def cost_attribution(snapshot: Mapping) -> list[dict]:
    """Per-(loop, core_type) sim-time split from a snapshot document.

    Values sum over any extra label dimensions (program/config/platform
    on fleet-merged snapshots), mirroring how the report CLI aggregates
    every other counter. Rows are sorted by (loop, core_type).
    """
    cells: dict[tuple[str, str], dict[str, float]] = {}
    for m in (snapshot.get("metrics", {}) or {}).get("counters", []):
        if m.get("name") != "sim_time_seconds_total":
            continue
        labels = m.get("labels", {})
        key = (str(labels.get("loop", "?")), str(labels.get("core_type", "?")))
        slot = cells.setdefault(key, {c: 0.0 for c in CATEGORIES})
        category = str(labels.get("category", "?"))
        slot[category] = slot.get(category, 0.0) + float(m.get("value", 0.0))
    rows = []
    for (loop, core_type), split in sorted(cells.items()):
        total = sum(split.values())
        rows.append(
            {
                "loop": loop,
                "core_type": core_type,
                **{c: split.get(c, 0.0) for c in CATEGORIES},
                "total": total,
            }
        )
    return rows


def format_cost_attribution(snapshot: Mapping) -> str:
    """The attribution table as text (empty string when nothing to show)."""
    rows = cost_attribution(snapshot)
    if not rows:
        return ""
    header = (
        f"{'loop':<24s}{'core_type':<12s}"
        + "".join(f"{c + '_s':>12s}" for c in CATEGORIES)
        + f"{'total_s':>12s}{'compute%':>10s}"
    )
    lines = ["sim-time cost attribution (simulated seconds)", header,
             "-" * len(header)]
    for r in rows:
        pct = 100.0 * r["compute"] / r["total"] if r["total"] > 0 else 0.0
        lines.append(
            f"{r['loop']:<24s}{r['core_type']:<12s}"
            + "".join(f"{r[c]:>12.6f}" for c in CATEGORIES)
            + f"{r['total']:>12.6f}{pct:>9.1f}%"
        )
    return "\n".join(lines)
