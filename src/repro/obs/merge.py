"""Cross-process snapshot merging: per-job capture -> one fleet view.

Since the experiment grids run through :mod:`repro.fleet` worker
subprocesses, each cell's metrics registry and decision log live (and
would die) in a worker. This module defines the wire format and the
merge algebra that carry them back:

* :func:`job_snapshot` / :func:`job_snapshot_json` — the compact per-job
  document a worker attaches to its
  :class:`~repro.fleet.jobs.JobResult`: the full metrics registry dump
  plus a :func:`summarize_decisions` digest of the decision log (counts
  per scheduler and event, not the raw records — cache entries stay
  small);
* :class:`MergedSnapshot` / :func:`merge` — fold any number of per-job
  documents into one fleet-level :class:`~repro.obs.registry.MetricsRegistry`
  (counters and histogram buckets sum, gauges are last-wins in merge
  order) and one combined decision summary;
* :func:`comparable_snapshot` — strip the wall-clock metrics and
  volatile meta fields, leaving only content that must be byte-identical
  across ``--jobs 1`` / ``--jobs N`` / warm-cache reruns of the same
  grid. The diff tool and the determinism tests both build on it.

Merging happens in *submission order* (the pool guarantees this), so the
only order-sensitive instrument — the gauge — resolves identically no
matter how many workers raced.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping

from repro.errors import ObsError
from repro.obs.registry import KIND_PLURALS, MetricsRegistry
from repro.obs.snapshot import SCHEMA as SNAPSHOT_SCHEMA
from repro.obs.snapshot import canonical_json

#: Per-job snapshot document identifier. v2 added the time-resolved
#: instruments (``timeseries`` + ``digests``) to the metrics dump.
#: v3 lets span-tracing jobs attach their canonical causal span trace
#: under an optional ``spans`` key (absent, not empty, when untraced).
JOB_SCHEMA = "repro.obs.job-snapshot/v3"

#: Metrics measured in host wall-clock time: meaningful per run, never
#: comparable across hosts, cache states or worker counts.
WALL_CLOCK_METRICS = frozenset(
    {
        "fleet_job_duration_seconds",
        "fleet_duration_estimate_seconds",
        # Real-execution instruments measure host wall time by nature.
        "real_chunk_compute_seconds",
        "real_dispatch_overhead_seconds",
    }
)

#: Meta keys that legitimately vary between otherwise-identical runs.
VOLATILE_META = frozenset(
    {"jobs", "wall_clock_seconds", "elapsed_seconds", "unix_time", "host"}
)


def summarize_decisions(records: Iterable[Mapping]) -> dict:
    """Digest a decision log into per-scheduler event counts.

    The summary keeps what the diff tool needs to detect divergence per
    AID variant — how many decisions each scheduler made, of which
    events, touching which loops — while dropping the per-record payload
    (sampled mean times, SF tables) that would bloat cache entries.
    ``records`` is read once, so any iterable works.
    """
    records = list(records)
    try:
        # Fast path: schema-complete records (everything DecisionLog
        # produces). Counting collapses to C-speed Counter folds over
        # plain subscripts; missing fields fall back below, and non-str
        # values are detected on the (few) distinct keys afterwards.
        trips = [(r["scheduler"], r["event"], r["loop"]) for r in records]
    except (KeyError, TypeError):
        trips = None
    if trips is not None:
        from collections import Counter

        se = Counter([(s, e) for s, e, _ in trips])
        loop_counts = Counter([t[2] for t in trips])
        if all(
            isinstance(s, str) and isinstance(e, str) for s, e in se
        ) and all(isinstance(k, str) for k in loop_counts):
            schedulers: dict[str, dict] = {}
            for (sched, event), n in se.items():
                entry = schedulers.setdefault(
                    sched, {"total": 0, "events": {}}
                )
                entry["total"] += n
                entry["events"][event] = n
            return {
                "total": len(trips),
                "schedulers": {
                    name: {
                        "total": entry["total"],
                        "events": dict(sorted(entry["events"].items())),
                    }
                    for name, entry in sorted(schedulers.items())
                },
                "loops": dict(sorted(loop_counts.items())),
            }
    total = 0
    schedulers = {}
    loops = {}
    for rec in records:
        total += 1
        sched = str(rec.get("scheduler", "?"))
        entry = schedulers.setdefault(sched, {"total": 0, "events": {}})
        entry["total"] += 1
        event = str(rec.get("event", "?"))
        entry["events"][event] = entry["events"].get(event, 0) + 1
        loop = str(rec.get("loop", "?"))
        loops[loop] = loops.get(loop, 0) + 1
    return {
        "total": total,
        "schedulers": {
            name: {
                "total": entry["total"],
                "events": dict(sorted(entry["events"].items())),
            }
            for name, entry in sorted(schedulers.items())
        },
        "loops": dict(sorted(loops.items())),
    }


def job_snapshot(obs) -> dict:
    """The per-job observability document for one finished run.

    Span-tracing bundles attach their canonical span-trace document
    under ``spans``; untraced jobs omit the key entirely, so their
    documents are byte-identical to pre-tracing ones modulo the schema
    marker.
    """
    doc = {
        "schema": JOB_SCHEMA,
        "metrics": obs.registry.snapshot(),
        "decisions": summarize_decisions(obs.decisions.records),
    }
    spans = getattr(obs, "spans", None)
    if spans is not None:
        doc["spans"] = spans.as_doc()
    return doc


def job_snapshot_json(obs) -> str:
    """Canonical (:func:`~repro.obs.snapshot.canonical_json`)
    serialization of the per-job document — the form
    :class:`~repro.fleet.jobs.JobResult` stores and the fleet cache
    keeps verbatim, so snapshot equality is plain string equality."""
    return canonical_json(job_snapshot(obs))


def merge_metrics_into(
    registry: MetricsRegistry,
    metrics: Mapping[str, list],
    extra_labels: Mapping[str, object] | None = None,
) -> None:
    """Fold one registry dump into ``registry``.

    Counters and histogram buckets add; gauges take the incoming value
    (last-wins, so callers must merge in a deterministic order).
    ``extra_labels`` (e.g. ``program``/``config``/``platform`` of the
    producing job) are appended to every instrument's label set, keeping
    same-named metrics from different jobs distinguishable. An
    instrument the registry has not seen is kept as its document (see
    :meth:`~repro.obs.registry.MetricsRegistry.merge_doc`, which states
    the ``as_dict``-form precondition), so a dump whose keys are all new
    — every fleet job, given its unique labels — costs no rebuild.
    """
    extra = dict(extra_labels) if extra_labels else {}
    for kind, plural in KIND_PLURALS.items():
        for m in metrics.get(plural, ()):
            registry.merge_doc(kind, m, {**m["labels"], **extra})


def merge_decision_summaries(into: dict, add: Mapping) -> None:
    """Accumulate one job's decision summary into a combined one."""
    into["total"] = into.get("total", 0) + int(add.get("total", 0))
    schedulers = into.setdefault("schedulers", {})
    for name, entry in (add.get("schedulers") or {}).items():
        slot = schedulers.setdefault(name, {"total": 0, "events": {}})
        slot["total"] += int(entry.get("total", 0))
        for event, n in (entry.get("events") or {}).items():
            slot["events"][event] = slot["events"].get(event, 0) + int(n)
    loops = into.setdefault("loops", {})
    for name, n in (add.get("loops") or {}).items():
        loops[name] = loops.get(name, 0) + int(n)


class MergedSnapshot:
    """Accumulator folding per-job snapshots into one fleet-level view.

    Pass an existing registry (e.g. the one
    :class:`~repro.fleet.progress.FleetProgress` keeps its fleet counters
    in) to merge job metrics alongside it; the default is a fresh one.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.decisions: dict = {"total": 0, "schedulers": {}, "loops": {}}
        self.spans: list[dict] = []
        self.jobs = 0

    def add_job(self, snapshot: Mapping, **labels: object) -> None:
        """Merge one per-job document (see :func:`job_snapshot`).

        Span traces are not summed like metrics: each job's tree is kept
        whole, tagged with the job's merge labels. Merging in submission
        order keeps the folded list deterministic, so span-bearing
        merged snapshots obey the same jobs=1 == jobs=N byte-equality
        contract as the metrics they ride with.
        """
        if snapshot.get("schema") != JOB_SCHEMA:
            raise ObsError(
                f"not a {JOB_SCHEMA} document "
                f"(schema={snapshot.get('schema')!r})"
            )
        merge_metrics_into(
            self.registry, snapshot.get("metrics", {}), labels
        )
        merge_decision_summaries(self.decisions, snapshot.get("decisions", {}))
        spans = snapshot.get("spans")
        if spans is not None:
            self.spans.append(
                {
                    "labels": {str(k): labels[k] for k in sorted(labels)},
                    "doc": spans,
                }
            )
        self.jobs += 1

    def decision_summary(self) -> dict:
        """The combined decision summary with deterministic ordering."""
        return {
            "total": self.decisions.get("total", 0),
            "schedulers": {
                name: {
                    "total": entry["total"],
                    "events": dict(sorted(entry["events"].items())),
                }
                for name, entry in sorted(
                    self.decisions.get("schedulers", {}).items()
                )
            },
            "loops": dict(sorted(self.decisions.get("loops", {}).items())),
        }

    def to_snapshot(self, meta: Mapping[str, object] | None = None) -> dict:
        """A full snapshot document (same schema the report CLI reads).

        Raw decision records never cross the process boundary, so
        ``decisions`` is empty and the merged digest travels in
        ``decision_summary`` instead. Span traces (present only when the
        jobs ran with tracing on) travel whole under ``spans``, one
        labeled tree per traced job in submission order.
        """
        doc = {
            "schema": SNAPSHOT_SCHEMA,
            "meta": dict(meta) if meta else {},
            "metrics": self.registry.snapshot(),
            "decisions": [],
            "decision_summary": self.decision_summary(),
            "merged_jobs": self.jobs,
        }
        if self.spans:
            doc["spans"] = list(self.spans)
        return doc


def merge(
    snapshots: Iterable[Mapping],
    registry: MetricsRegistry | None = None,
) -> MergedSnapshot:
    """Fold an iterable of per-job documents into a fresh accumulator."""
    merged = MergedSnapshot(registry=registry)
    for snap in snapshots:
        merged.add_job(snap)
    return merged


def comparable_snapshot(snapshot: Mapping) -> dict:
    """A deep copy with every run-volatile field removed.

    Drops :data:`WALL_CLOCK_METRICS` instruments and
    :data:`VOLATILE_META` meta keys; what remains must be byte-identical
    between a serial and a parallel run of the same grid, and between a
    cold run and its warm cache replay.
    """
    doc = json.loads(json.dumps(snapshot))
    metrics = doc.get("metrics")
    if isinstance(metrics, dict):
        for kind in KIND_PLURALS.values():
            if kind in metrics:
                metrics[kind] = [
                    m
                    for m in metrics[kind]
                    if m.get("name") not in WALL_CLOCK_METRICS
                ]
    meta = doc.get("meta")
    if isinstance(meta, dict):
        for key in VOLATILE_META:
            meta.pop(key, None)
    return doc
