"""Observability report CLI: summarize, diff and trend snapshots.

Usage::

    python -m repro.obs.report SNAPSHOT.json [--threads] [--loop NAME]
    python -m repro.obs.report diff A.json B.json [--fail-on-regression]
    python -m repro.obs.report trajectory [HISTORY.jsonl] [--source S]
    python -m repro.obs.report timeline SNAPSHOT.json [--loop L] [--metric M]
    python -m repro.obs.report profile SNAPSHOT.json [--json PATH]
    python -m repro.obs.report critpath SNAPSHOT.json [--job S] [--json PATH]
    python -m repro.obs.report explain A.json B.json [--job S] [--top N]

The default mode prints, per loop: dispatch counts, scheduler calls,
runtime-overhead percentage, compute-time imbalance across threads, and
— when the snapshot carries a scheduler decision log — the SF-estimate
convergence (first vs last published estimate per core type).
``--threads`` adds the per-thread drill-down behind each loop row.
Snapshots merged from fleet runs additionally get a fleet section
(counters, per-profile EWMA duration estimates) and the combined
decision summary.

``diff`` compares two snapshots with :mod:`repro.obs.diff` and, with
``--fail-on-regression``, exits nonzero when any regression survives the
thresholds — the CI gate for warm-cache reruns. ``trajectory`` renders
the run-over-run history kept by :mod:`repro.obs.trajectory` as
sparkline trend tables. ``timeline`` renders the snapshot's windowed
timeseries as sparkline lanes over sim time plus a tail table
(p50/p99/p999) of its quantile digests — and, when the snapshot carries
span traces, a critical-path lane showing which category blocked the
makespan at every point of sim time. ``profile`` renders a snapshot's
deterministic sim-time cost attribution (compute / overhead / stall /
idle per loop and core type).

``critpath`` extracts each span trace's critical path
(:mod:`repro.obs.critpath`) and prints the per-category "where the
makespan went" attribution; ``explain`` diffs two runs' critical paths
(:mod:`repro.obs.explain`) into a ranked report of makespan
contributors — categories and fault windows.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable, Mapping

from repro.errors import ObsError
from repro.obs.diff import DiffThresholds, diff_snapshots
from repro.obs.snapshot import load_snapshot
from repro.obs.timeseries import digest_quantile, series_values
from repro.obs.trajectory import TrajectoryStore, sparkline, trend_table

from repro.obs.decisions import SF_EVENTS as _SF_EVENTS


def _index(metrics: Mapping[str, list]) -> dict[tuple, float]:
    """(name, sorted label items) -> value, for counters and gauges."""
    out: dict[tuple, float] = {}
    for kind in ("counters", "gauges"):
        for m in metrics.get(kind, []):
            key = (m["name"], tuple(sorted(m["labels"].items())))
            out[key] = m["value"]
    return out


def _loops(idx: Mapping[tuple, float]) -> list[str]:
    loops = set()
    for (name, labels) in idx:
        if name in ("dispatches_total", "compute_seconds_total"):
            loops.update(v for k, v in labels if k == "loop")
    return sorted(loops)


def _per_loop(idx: Mapping[tuple, float], loop: str) -> dict:
    """Aggregate one loop's per-tid counters.

    Values *sum* over any extra label dimensions (merged fleet
    snapshots label every instrument with program/config/platform), so
    the same code reports single-run and fleet-merged snapshots.
    """
    tids: set[str] = set()
    per_tid: dict[str, dict[str, float]] = {}
    invocations = 0.0
    for (name, labels), value in idx.items():
        d = dict(labels)
        if d.get("loop") != loop:
            continue
        if name == "loop_invocations_total":
            invocations += value
        if "tid" not in d:
            continue
        tids.add(d["tid"])
        slot = per_tid.setdefault(d["tid"], {})
        slot[name] = slot.get(name, 0.0) + value

    def total(metric: str) -> float:
        return sum(per_tid[t].get(metric, 0.0) for t in tids)

    overhead = total("runtime_overhead_seconds_total")
    compute = total("compute_seconds_total")
    barrier = total("barrier_wait_seconds_total")
    busy_total = overhead + compute + barrier
    busy_per_tid = [
        per_tid[t].get("compute_seconds_total", 0.0)
        + per_tid[t].get("runtime_overhead_seconds_total", 0.0)
        for t in sorted(tids, key=lambda s: int(s))
    ]
    peak = max(busy_per_tid, default=0.0)
    return {
        "loop": loop,
        "invocations": invocations,
        "dispatches": total("dispatches_total"),
        "sched_calls": total("sched_calls_total"),
        "iterations": total("iterations_total"),
        "overhead_s": overhead,
        "compute_s": compute,
        "barrier_s": barrier,
        "overhead_pct": 100.0 * overhead / busy_total if busy_total else 0.0,
        "imbalance": (peak - min(busy_per_tid)) / peak if peak > 0 else 0.0,
        "per_tid": {t: per_tid[t] for t in sorted(tids, key=lambda s: int(s))},
    }


def _sf_convergence(decisions: Iterable[Mapping]) -> dict[str, dict]:
    """Per loop: first/last published SF estimate and publication count."""
    out: dict[str, dict] = {}
    for rec in decisions:
        if rec.get("event") not in _SF_EVENTS or rec.get("sf") is None:
            continue
        entry = out.setdefault(
            rec["loop"], {"count": 0, "first_sf": rec["sf"], "last_sf": rec["sf"]}
        )
        entry["count"] += 1
        entry["last_sf"] = rec["sf"]
    return out


def _fmt_sf(sf: Mapping[str, float]) -> str:
    return " ".join(f"{j}:{v:.2f}" for j, v in sorted(sf.items()))


#: Fleet counter names shown in the fleet section, in display order.
_FLEET_COUNTERS = (
    "fleet_jobs_submitted",
    "fleet_cache_hits",
    "fleet_cache_misses",
    "fleet_jobs_computed",
    "fleet_retries",
    "fleet_timeouts",
    "fleet_failures",
)


def _fleet_section(snapshot: Mapping, idx: Mapping[tuple, float]) -> list[str]:
    """Fleet counters + per-profile EWMA duration estimates, if any."""
    counts = {
        name: idx.get((name, ())) for name in _FLEET_COUNTERS
        if (name, ()) in idx
    }
    if not counts:
        return []
    lines = [
        "fleet: " + "  ".join(
            f"{name.removeprefix('fleet_')}={int(value)}"
            for name, value in counts.items()
        )
    ]
    merged_jobs = snapshot.get("merged_jobs")
    if merged_jobs:
        lines.append(f"merged per-job snapshots: {merged_jobs}")
    estimates = sorted(
        (dict(labels).get("profile", "?"), value)
        for (name, labels), value in idx.items()
        if name == "fleet_duration_estimate_seconds"
    )
    if estimates:
        lines.append("duration estimates (EWMA wall-clock, drive LPT dispatch):")
        for profile, value in estimates:
            lines.append(f"  {profile:<44s}{value:>10.3f}s")
    return lines


def _decision_summary_section(snapshot: Mapping) -> list[str]:
    summary = snapshot.get("decision_summary")
    if not isinstance(summary, Mapping) or not summary.get("total"):
        return []
    lines = [
        f"decision summary (merged): {summary['total']} records"
    ]
    for sched, entry in sorted((summary.get("schedulers") or {}).items()):
        events = "  ".join(
            f"{event}={n}"
            for event, n in sorted((entry.get("events") or {}).items())
        )
        lines.append(f"  {sched:<14s} total={entry.get('total', 0):<7d} {events}")
    return lines


def summarize(snapshot: Mapping, threads: bool = False, loop: str | None = None) -> str:
    """Render the report text for a loaded snapshot."""
    metrics_doc = snapshot.get("metrics", {}) or {}
    idx = _index(metrics_doc)
    lines: list[str] = []
    meta = snapshot.get("meta", {})
    if meta:
        lines.append(
            "run: " + "  ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        )
        lines.append("")

    n_instruments = sum(
        len(metrics_doc.get(kind, []))
        for kind in ("counters", "gauges", "histograms")
    )
    if n_instruments == 0:
        lines.append("no metrics recorded (was NULL_OBS used?)")
        lines.append(
            "hint: pass a live Observability() bundle to ProgramRunner, "
            "or a FleetProgress to run_grid/run_jobs."
        )
        lines.append("")
        lines.append(
            f"decision records: {len(snapshot.get('decisions', []))}"
        )
        return "\n".join(lines)

    fleet = _fleet_section(snapshot, idx)
    if fleet:
        lines.extend(fleet)
        lines.append("")

    loops = [loop] if loop is not None else _loops(idx)
    header = (
        f"{'loop':<24s}{'invoc':>7s}{'disp':>9s}{'calls':>9s}{'iters':>10s}"
        f"{'ovh%':>7s}{'imbal':>8s}{'compute_s':>12s}{'barrier_s':>11s}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name in loops:
        row = _per_loop(idx, name)
        lines.append(
            f"{row['loop']:<24s}{row['invocations']:>7.0f}{row['dispatches']:>9.0f}"
            f"{row['sched_calls']:>9.0f}{row['iterations']:>10.0f}"
            f"{row['overhead_pct']:>6.1f}%{row['imbalance']:>8.3f}"
            f"{row['compute_s']:>12.6f}{row['barrier_s']:>11.6f}"
        )
        if threads:
            for tid, vals in row["per_tid"].items():
                lines.append(
                    f"    tid {tid:>3s}  disp={vals.get('dispatches_total', 0):>6.0f}"
                    f"  calls={vals.get('sched_calls_total', 0):>6.0f}"
                    f"  iters={vals.get('iterations_total', 0):>8.0f}"
                    f"  ovh={vals.get('runtime_overhead_seconds_total', 0):.6f}s"
                    f"  compute={vals.get('compute_seconds_total', 0):.6f}s"
                    f"  barrier={vals.get('barrier_wait_seconds_total', 0):.6f}s"
                )

    conv = _sf_convergence(snapshot.get("decisions", []))
    if conv:
        lines.append("")
        lines.append("SF convergence (per-type estimate, first -> last publication)")
        for name in sorted(conv):
            if loop is not None and name != loop:
                continue
            c = conv[name]
            lines.append(
                f"  {name:<22s} n={c['count']:<4d}"
                f" {_fmt_sf(c['first_sf'])}  ->  {_fmt_sf(c['last_sf'])}"
            )
    dec_summary = _decision_summary_section(snapshot)
    if dec_summary:
        lines.append("")
        lines.extend(dec_summary)
    n_dec = len(snapshot.get("decisions", []))
    lines.append("")
    lines.append(f"decision records: {n_dec}")
    return "\n".join(lines)


def _label_str(labels: Mapping) -> str:
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{{{inner}}}" if inner else ""


def _doc_matches(doc: Mapping, loop: str | None, metric: str | None) -> bool:
    if metric is not None and doc.get("name") != metric:
        return False
    if loop is not None and (doc.get("labels") or {}).get("loop") != loop:
        return False
    return True


def _resample(values: list[float], width: int) -> list[float]:
    """Mean-pool a dense series down to at most ``width`` points, so a
    long run still fits one sparkline without dropping its head."""
    if len(values) <= width:
        return values
    out = []
    n = len(values)
    for i in range(width):
        lo, hi = i * n // width, max(i * n // width + 1, (i + 1) * n // width)
        chunk = values[lo:hi]
        out.append(sum(chunk) / len(chunk))
    return out


#: Critical-path lane glyph per step category (timeline rendering).
_CRITPATH_GLYPHS = {
    "compute-big": "#",
    "compute-small": "=",
    "dispatch": "d",
    "sampling": "s",
    "serial": "S",
    "stall": "x",
    "idle": ".",
}


def critpath_lane(cp: Mapping, width: int = 48) -> str:
    """One ASCII lane: the critical path's blocking category over time.

    Each column covers ``makespan / width`` of sim time and shows the
    glyph of the step category blocking the makespan at the column's
    midpoint (``#`` compute-big, ``=`` compute-small, ``d`` dispatch,
    ``s`` sampling, ``S`` serial, ``x`` stall, ``.`` idle).
    """
    steps = cp.get("steps") or []
    t0, t1 = float(cp.get("t0", 0.0)), float(cp.get("t1", 0.0))
    if not steps or t1 <= t0:
        return " " * width
    cols = []
    for j in range(width):
        mid = t0 + (j + 0.5) * (t1 - t0) / width
        glyph = " "
        for step in steps:
            if step["t0"] <= mid < step["t1"]:
                glyph = _CRITPATH_GLYPHS.get(step["cat"], "?")
                break
        cols.append(glyph)
    return "".join(cols)


def _span_traces(snapshot: Mapping) -> list[tuple[str, Mapping]]:
    """(label, span doc) pairs carried by a snapshot (possibly empty).

    Accepts single-run snapshots (one bare span doc), fleet-merged
    snapshots (a list of labeled docs) and bare span docs themselves.
    """
    from repro.obs.spans import SPANS_SCHEMA

    if snapshot.get("schema") == SPANS_SCHEMA:
        return [("", snapshot)]
    spans = snapshot.get("spans")
    if spans is None:
        return []
    if isinstance(spans, Mapping):
        return [("", spans)]
    out = []
    for entry in spans:
        labels = entry.get("labels") or {}
        label = "/".join(str(labels[k]) for k in sorted(labels))
        out.append((label, entry.get("doc") or {}))
    return out


def _critpath_section(snapshot: Mapping, width: int) -> list[str]:
    """Critical-path lanes for the timeline view (empty without spans)."""
    from repro.obs.critpath import extract_critical_path

    traces = _span_traces(snapshot)
    if not traces:
        return []
    legend = "  ".join(
        f"{glyph}={cat}" for cat, glyph in _CRITPATH_GLYPHS.items()
    )
    lines = [f"critical path (blocking category over sim time; {legend})"]
    for label, doc in traces:
        cp = extract_critical_path(doc)
        name = label or "run"
        lines.append(f"  {name}")
        lines.append(
            f"    |{critpath_lane(cp, width=width)}|"
            f"  makespan={cp['makespan']:.6f}s"
        )
    return lines


def timeline(
    snapshot: Mapping,
    loop: str | None = None,
    metric: str | None = None,
    width: int = 48,
) -> str:
    """Sparkline lanes for the snapshot's timeseries + digest tails."""
    metrics_doc = snapshot.get("metrics", {}) or {}
    lines: list[str] = []
    series_docs = [
        doc for doc in metrics_doc.get("timeseries", [])
        if _doc_matches(doc, loop, metric)
    ]
    if series_docs:
        lines.append("timeseries (sim-time lanes, left = t0)")
        for doc in series_docs:
            pts = dict(series_values(doc))
            if not pts:
                continue
            hi_idx = max(pts)
            lo_idx = min(pts)
            # Dense lane from the first to the last populated window;
            # empty windows are genuinely zero (nothing observed).
            dense = [pts.get(i, 0.0) for i in range(lo_idx, hi_idx + 1)]
            window = float(doc.get("window", 1.0))
            vals = _resample(dense, width)
            lane = f"{doc['name']}{_label_str(doc.get('labels') or {})}"
            lines.append(f"  {lane}")
            lines.append(
                f"    |{sparkline(vals, width=width)}|"
                f"  t=[{lo_idx * window:.6f}s, {(hi_idx + 1) * window:.6f}s]"
                f"  min={min(dense):.4g} max={max(dense):.4g}"
                f"  window={window:.3g}s"
            )
    digest_docs = [
        doc for doc in metrics_doc.get("digests", [])
        if _doc_matches(doc, loop, metric)
    ]
    if digest_docs:
        if lines:
            lines.append("")
        header = (
            f"{'digest':<52s}{'count':>8s}{'p50':>12s}{'p99':>12s}"
            f"{'p999':>12s}{'max':>12s}"
        )
        lines.append("digest tails (streaming quantiles)")
        lines.append(header)
        lines.append("-" * len(header))
        for doc in digest_docs:
            name = f"{doc['name']}{_label_str(doc.get('labels') or {})}"
            lines.append(
                f"{name:<52s}{int(doc.get('count', 0)):>8d}"
                f"{digest_quantile(doc, 0.5):>12.3g}"
                f"{digest_quantile(doc, 0.99):>12.3g}"
                f"{digest_quantile(doc, 0.999):>12.3g}"
                f"{float(doc.get('max', 0.0)):>12.3g}"
            )
    critpath_lines = _critpath_section(snapshot, width)
    if critpath_lines:
        if lines:
            lines.append("")
        lines.extend(critpath_lines)
    if not lines:
        lines.append(
            "no timeseries or digests in this snapshot (schema "
            + str((snapshot.get("metrics", {}) or {}).get("schema", "?"))
            + " predates them, or NULL_OBS was used)"
        )
    return "\n".join(lines)


def _timeline_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report timeline",
        description="Render a snapshot's timeseries as sim-time "
        "sparkline lanes and its digests as a tail table.",
    )
    parser.add_argument("snapshot", help="path to a snapshot JSON file")
    parser.add_argument("--loop", default=None, help="restrict to one loop")
    parser.add_argument(
        "--metric", default=None, help="restrict to one metric name"
    )
    parser.add_argument(
        "--width", type=int, default=48,
        help="sparkline lane width in glyphs (default %(default)s)",
    )
    args = parser.parse_args(argv)
    try:
        snapshot = load_snapshot(args.snapshot)
    except ObsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(
            timeline(
                snapshot, loop=args.loop, metric=args.metric,
                width=args.width,
            )
        )
    except BrokenPipeError:
        pass
    return 0


def _profile_main(argv: list[str]) -> int:
    from repro.obs.profile import cost_attribution, format_cost_attribution

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report profile",
        description="Print a snapshot's sim-time cost attribution.",
    )
    parser.add_argument("snapshot", help="path to a snapshot JSON file")
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the attribution rows as a JSON document",
    )
    args = parser.parse_args(argv)
    try:
        snapshot = load_snapshot(args.snapshot)
    except ObsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(
            format_cost_attribution(snapshot)
            or "no sim_time_seconds_total counters in snapshot"
        )
    except BrokenPipeError:
        pass
    if args.json:
        Path(args.json).write_text(
            json.dumps(
                {"cost_attribution": cost_attribution(snapshot)},
                sort_keys=True, indent=2,
            )
            + "\n",
            encoding="utf-8",
        )
    return 0


def _diff_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report diff",
        description="Diff two repro.obs snapshots and flag regressions.",
    )
    parser.add_argument("baseline", help="baseline snapshot JSON")
    parser.add_argument("candidate", help="candidate snapshot JSON")
    parser.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit 1 when any regression survives the thresholds",
    )
    parser.add_argument(
        "--metric-tol", type=float, default=DiffThresholds.metric_rel,
        help="relative tolerance for simulation metrics (default %(default)s)",
    )
    parser.add_argument(
        "--cost-tol", type=float, default=DiffThresholds.cost_rel,
        help="relative growth tolerance for cost metrics (default %(default)s)",
    )
    parser.add_argument(
        "--hist-tol", type=float, default=DiffThresholds.hist_dist,
        help="histogram bucket-distance tolerance (default %(default)s)",
    )
    parser.add_argument(
        "--tail-tol", type=float, default=DiffThresholds.tail_rel,
        help="digest p99/p999 growth tolerance before a tail-latency "
        "regression is flagged (default %(default)s)",
    )
    parser.add_argument(
        "--critpath-tol", type=float, default=DiffThresholds.critpath_rel,
        help="critical-path makespan/attribution growth tolerance, "
        "relative to the baseline makespan (default %(default)s)",
    )
    parser.add_argument(
        "--lax-decisions", action="store_true",
        help="treat decision-summary divergence as a change, not a regression",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the structured diff as JSON",
    )
    args = parser.parse_args(argv)
    try:
        baseline = load_snapshot(args.baseline)
        candidate = load_snapshot(args.candidate)
    except ObsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diff = diff_snapshots(
        baseline,
        candidate,
        DiffThresholds(
            metric_rel=args.metric_tol,
            cost_rel=args.cost_tol,
            hist_dist=args.hist_tol,
            tail_rel=args.tail_tol,
            critpath_rel=args.critpath_tol,
            strict_decisions=not args.lax_decisions,
        ),
    )
    try:
        print(diff.format())
    except BrokenPipeError:
        pass
    if args.json:
        Path(args.json).write_text(
            json.dumps(diff.to_dict(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
    if args.fail_on_regression and diff.regressions:
        return 1
    return 0


def _critpath_main(argv: list[str]) -> int:
    from repro.obs.critpath import (
        CRITPATH_SCHEMA,
        extract_critical_path,
        format_critpath,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report critpath",
        description="Extract and print the critical path of every span "
        "trace a snapshot carries: the longest causal chain ending at "
        "completion, attributed per category.",
    )
    parser.add_argument("snapshot", help="snapshot JSON (with span traces)")
    parser.add_argument(
        "--job", default=None, metavar="SUBSTR",
        help="restrict to traces whose job label contains this substring",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the critical paths as a JSON document",
    )
    args = parser.parse_args(argv)
    try:
        snapshot = load_snapshot(args.snapshot)
    except ObsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    traces = _span_traces(snapshot)
    if args.job is not None:
        traces = [(label, doc) for label, doc in traces if args.job in label]
    if not traces:
        print(
            "no span traces in this snapshot (run with tracing on, e.g. "
            "python -m repro.fleet ... --trace-spans)",
            file=sys.stderr,
        )
        return 2
    paths = []
    try:
        for i, (label, doc) in enumerate(traces):
            cp = extract_critical_path(doc)
            paths.append({"label": label, "critpath": cp})
            if i:
                print()
            if label:
                print(f"== {label} ==")
            print(format_critpath(cp))
    except BrokenPipeError:
        pass
    if args.json:
        Path(args.json).write_text(
            json.dumps(
                {"schema": CRITPATH_SCHEMA, "paths": paths},
                sort_keys=True, indent=2,
            ) + "\n",
            encoding="utf-8",
        )
    return 0


def _explain_main(argv: list[str]) -> int:
    from repro.obs.explain import EXPLAIN_SCHEMA, explain, format_explain

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report explain",
        description="Diff two runs' critical paths into a ranked "
        "'where the makespan went' report.",
    )
    parser.add_argument("baseline", help="baseline snapshot JSON (with spans)")
    parser.add_argument("candidate", help="candidate snapshot JSON (with spans)")
    parser.add_argument(
        "--job", default=None, metavar="SUBSTR",
        help="restrict to job labels containing this substring",
    )
    parser.add_argument(
        "--top", type=int, default=12,
        help="contributors shown per pair (default %(default)s)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the structured report as JSON",
    )
    args = parser.parse_args(argv)
    try:
        baseline = load_snapshot(args.baseline)
        candidate = load_snapshot(args.candidate)
    except ObsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = explain(baseline, candidate, job=args.job)
    except (ObsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(format_explain(report, top=args.top))
    except BrokenPipeError:
        pass
    if args.json:
        assert report.get("schema") == EXPLAIN_SCHEMA
        Path(args.json).write_text(
            json.dumps(report, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
    return 0


def _trajectory_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report trajectory",
        description="Render the run-over-run trajectory as trend tables.",
    )
    parser.add_argument(
        "history", nargs="?", default=None,
        help="trajectory JSONL (default $OBS_TRAJECTORY or "
        "OBS_TRAJECTORY.jsonl)",
    )
    parser.add_argument(
        "--source", default=None, help="restrict to one record source"
    )
    parser.add_argument(
        "--last", type=int, default=24,
        help="sparkline width / points shown (default %(default)s)",
    )
    args = parser.parse_args(argv)
    store = TrajectoryStore(args.history)
    records = store.records()
    if not records:
        print(f"no trajectory records in {store.path}")
        return 0
    try:
        print(trend_table(records, source=args.source, last=args.last))
    except BrokenPipeError:
        pass
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "diff":
        return _diff_main(argv[1:])
    if argv and argv[0] == "trajectory":
        return _trajectory_main(argv[1:])
    if argv and argv[0] == "timeline":
        return _timeline_main(argv[1:])
    if argv and argv[0] == "profile":
        return _profile_main(argv[1:])
    if argv and argv[0] == "critpath":
        return _critpath_main(argv[1:])
    if argv and argv[0] == "explain":
        return _explain_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarize a repro.obs metrics snapshot "
        "(subcommands: diff, trajectory, timeline, profile, critpath, "
        "explain).",
    )
    parser.add_argument("snapshot", help="path to a snapshot JSON file")
    parser.add_argument(
        "--threads", action="store_true", help="per-thread drill-down"
    )
    parser.add_argument("--loop", default=None, help="restrict to one loop")
    args = parser.parse_args(argv)
    try:
        snapshot = load_snapshot(args.snapshot)
    except ObsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(summarize(snapshot, threads=args.threads, loop=args.loop))
    except BrokenPipeError:  # e.g. piped into head; not an error
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
