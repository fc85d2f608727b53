"""Cross-process snapshot merging: per-job capture -> one fleet view.

Since the experiment grids run through :mod:`repro.fleet` worker
subprocesses, each cell's metrics registry and decision log live (and
would die) in a worker. This module defines the wire format and the
merge algebra that carry them back:

* :func:`job_snapshot_json` / :func:`read_job_snapshot` — the per-job
  text a worker attaches to its
  :class:`~repro.fleet.jobs.JobResult`: every instrument of the metrics
  registry, labeled as the fleet merge files it, plus a
  :func:`summarize_decisions` digest of the decision log (counts per
  scheduler and event, not the raw records — cache entries stay small);
* :class:`MergedSnapshot` / :func:`merge` — fold any number of per-job
  texts into one fleet-level :class:`~repro.obs.registry.MetricsRegistry`
  (counters and histogram buckets sum, gauges are last-wins in merge
  order) and one combined decision summary, rendered as one canonical
  text;
* :func:`comparable_snapshot` — strip the wall-clock metrics and
  volatile meta fields, leaving only content that must be byte-identical
  across ``--jobs 1`` / ``--jobs N`` / warm-cache reruns of the same
  grid. The diff tool and the determinism tests both build on it.

**The wire format** (:data:`JOB_SCHEMA`, the text
:func:`job_snapshot_json` writes) is lines of canonical JSON. The first
line is a header object: ``schema``, the ``decisions`` summary, the
job's merge ``labels`` (``program``/``config``/``platform`` for a fleet
job, taken from :attr:`Observability.merge_labels
<repro.obs.Observability>`), ``spans: true`` when a span document
follows, and ``index``, which gives each kind's instruments (by
snapshot plural, e.g. ``counters``) as their
:func:`~repro.obs.registry.text_key`. The index writes each key as a
pair: how many characters it shares with the kind's previous key, and
the rest, with the header's one-character ``sep`` in place of NUL
(a printable character no key part holds, so JSON does not escape it;
NUL only when the parts hold every candidate). A traced job's span
document is the second line. Then comes one instrument document per
line, kinds in sorted plural order and each kind in key order, with the
merge labels already in its labels: each line is exactly the text the
merged snapshot prints for that instrument.

**The text merge.** :meth:`MergedSnapshot.add_job` takes that text with
the labels the job is merged under. When they equal the header's, each
instrument's text is kept as it is
(:meth:`~repro.obs.registry.MetricsRegistry.keep_texts`) and decoded
only when a second job lands on its key or a reader asks for it; a kept
line is trusted as the worker wrote it (the fleet cache's
``obs_sha256`` guards stored texts). When they differ (a cached job
whose spec was renamed: ``label`` is not part of the spec digest), every
instrument is decoded and folded with the header's labels replaced by
the given ones. :meth:`MergedSnapshot.to_snapshot` joins the kept texts,
in key order, into the merged snapshot's text.

Merging happens in *submission order* (the pool guarantees this), so the
only order-sensitive instrument — the gauge — resolves identically no
matter how many workers raced.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter
from typing import Iterable, Mapping

from repro.errors import ObsError
from repro.obs.registry import KIND_PLURALS, MetricsRegistry, label_key
from repro.obs.snapshot import SCHEMA as SNAPSHOT_SCHEMA
from repro.obs.snapshot import SnapshotText, canonical_json, json_array_fragments

#: Per-job snapshot document identifier. v2 added the time-resolved
#: instruments (``timeseries`` + ``digests``) to the metrics dump.
#: v3 lets span-tracing jobs attach their canonical causal span trace
#: under an optional ``spans`` key (absent, not empty, when untraced).
#: v4 is the line format above: a header, then the span document and
#: every instrument on its own line, labeled as merged.
JOB_SCHEMA = "repro.obs.job-snapshot/v4"

#: The characters a job's index may write in place of NUL, in order of
#: preference: the first that no key part of the job holds. NUL itself
#: comes last, so there always is one.
INDEX_SEPARATORS = "|~^!#$%&*+/;<=>?@\0"

#: Snapshot plural -> instrument kind.
PLURAL_KINDS = {plural: kind for kind, plural in KIND_PLURALS.items()}

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


def job_snapshot_json(obs) -> str:
    """The per-job document in the wire format (see the module
    docstring): what :class:`~repro.fleet.jobs.JobResult` stores and
    the fleet cache keeps verbatim, so snapshot equality is plain string
    equality. Every line is canonical
    (:func:`~repro.obs.snapshot.canonical_json`) JSON.

    Raises :class:`~repro.errors.ObsError` for a merge label that holds
    a NUL (see :func:`~repro.obs.registry.text_key`).
    """
    merge_labels = dict(label_key(getattr(obs, "merge_labels", None) or {}))
    header = {
        "schema": JOB_SCHEMA,
        "labels": merge_labels,
        "decisions": summarize_decisions(obs.decisions.records),
        "index": {},
    }
    lines = [""]
    spans = getattr(obs, "spans", None)
    if spans is not None:
        header["spans"] = True
        lines.append(canonical_json(spans.as_doc()))
    metrics = obs.registry.snapshot()
    kinds = []
    for plural in sorted(metrics):
        rows = []
        for m in metrics[plural]:
            labels = m["labels"] = {**m["labels"], **merge_labels}
            parts = (m["name"], *chain.from_iterable(sorted(labels.items())))
            rows.append((parts, m))
        # Added labels can reorder keys; the sort is stable, so keys
        # they merge stay in the order the fold would meet them.
        rows.sort(key=itemgetter(0))
        kinds.append((plural, rows))
        lines += [canonical_json(m) for _, m in rows]
    taken = "".join(
        [part for _, rows in kinds for parts, _ in rows for part in parts]
    )
    if "\0" in taken:
        raise ObsError(
            f"merge labels {merge_labels!r}: names and labels must not "
            "contain NUL"
        )
    sep = next(c for c in INDEX_SEPARATORS if c not in taken)
    header["sep"] = sep
    for plural, rows in kinds:
        coded: list = []
        prev: tuple = ()
        for parts, _ in rows:
            n = 0
            for a, b in zip(prev, parts):
                if a != b:
                    break
                n += 1
            shared = len(sep.join(parts[:n]))
            coded += (shared, sep.join(parts)[shared:])
            prev = parts
        header["index"][plural] = coded
    lines[0] = canonical_json(header)
    return "\n".join(lines)


def _index_keys(coded: list, sep: str) -> list[str]:
    """One kind's text keys from its index entry: pairs of the length
    of the prefix a key shares with the previous one and the rest of
    it, written with ``sep`` for NUL."""
    if not isinstance(coded, list) or len(coded) % 2:
        raise ObsError(f"{JOB_SCHEMA} index entry is not a list of pairs")
    keys = []
    key = ""
    it = iter(coded)
    try:
        for shared, rest in zip(it, it):
            key = key[:shared] + rest.replace(sep, "\0")
            keys.append(key)
    except (TypeError, AttributeError) as exc:
        raise ObsError(f"unreadable {JOB_SCHEMA} index: {exc}") from exc
    return keys


def _split_job_text(text: str) -> tuple[dict, str | None, list[tuple]]:
    """A :func:`job_snapshot_json` text as its header, its span line
    (``None`` when untraced) and ``(kind, text keys, instrument texts)``
    per kind, in the order written."""
    lines = text.split("\n")
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        raise ObsError(f"unreadable {JOB_SCHEMA} header: {exc}") from exc
    schema = header.get("schema") if isinstance(header, dict) else None
    if schema != JOB_SCHEMA:
        raise ObsError(f"not a {JOB_SCHEMA} document (schema={schema!r})")
    index, sep = header.get("index"), header.get("sep")
    if (
        not isinstance(index, dict)
        or not isinstance(header.get("labels"), dict)
        or not isinstance(sep, str)
        or len(sep) != 1
    ):
        raise ObsError(f"{JOB_SCHEMA} header lacks its labels, index or sep")
    pos = 2 if header.get("spans") else 1
    spans = lines[1] if pos == 2 and len(lines) > 1 else None
    sections = []
    for plural, coded in index.items():
        if plural not in PLURAL_KINDS:
            raise ObsError(f"{JOB_SCHEMA} index names unknown kind {plural!r}")
        keys = _index_keys(coded, sep)
        sections.append((PLURAL_KINDS[plural], keys, lines[pos:pos + len(keys)]))
        pos += len(keys)
    if pos != len(lines):
        raise ObsError(
            f"{JOB_SCHEMA} text holds {len(lines)} lines, its header "
            f"accounts for {pos}"
        )
    return header, spans, sections


def read_job_snapshot(text: str) -> dict:
    """Decode a :func:`job_snapshot_json` text into one mapping:
    ``schema``, ``labels``, ``decisions``, ``metrics`` (the instrument
    documents per snapshot plural, merge labels included) and, for a
    traced job, ``spans``."""
    header, spans, sections = _split_job_text(text)
    doc = {
        "schema": header["schema"],
        "labels": header["labels"],
        "metrics": {
            KIND_PLURALS[kind]: [json.loads(line) for line in lines]
            for kind, _, lines in sections
        },
        "decisions": header["decisions"],
    }
    if spans is not None:
        doc["spans"] = json.loads(spans)
    return doc


def merge_metrics_into(
    registry: MetricsRegistry,
    metrics: Mapping[str, list],
    extra_labels: Mapping[str, object] | None = None,
) -> None:
    """Fold one registry dump into ``registry``.

    Counters and histogram buckets add; gauges take the incoming value
    (last-wins, so callers must merge in a deterministic order).
    ``extra_labels`` (e.g. ``program``/``config``/``platform`` of the
    producing job) are added to every instrument's label set (replacing
    same-named ones), keeping same-named metrics from different jobs
    distinguishable. Every document folds into a live instrument
    (:meth:`~repro.obs.registry.MetricsRegistry.merge_doc`): this is the
    reference the text merge of :class:`MergedSnapshot` must reproduce
    byte for byte, which the conformance fuzz checks.
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
        #: Each traced job's merged span entry, as its canonical JSON.
        self.spans: list[str] = []
        self.jobs = 0

    def add_job(self, text: str, **labels: object) -> None:
        """Merge one job's :func:`job_snapshot_json` text under
        ``labels``.

        ``labels`` (the producing job's ``program``/``config``/
        ``platform``) are added to every instrument's labels. A text
        stamped with exactly these labels keeps each instrument's text
        as it is; one stamped with other labels is decoded and folded,
        its stamped labels replaced by ``labels`` (see the module
        docstring).

        Span traces are not summed like metrics: each job's tree is kept
        whole, tagged with the job's merge labels. Merging in submission
        order keeps the folded list deterministic, so span-bearing
        merged snapshots obey the same jobs=1 == jobs=N byte-equality
        contract as the metrics they ride with.
        """
        header, spans, sections = _split_job_text(text)
        stamped = header["labels"]
        if stamped == dict(label_key(labels)):
            for kind, keys, texts in sections:
                self.registry.keep_texts(kind, keys, texts)
        else:
            for kind, _, texts in sections:
                for line in texts:
                    m = json.loads(line)
                    own = {
                        k: v for k, v in m["labels"].items() if k not in stamped
                    }
                    self.registry.merge_doc(kind, m, {**own, **labels})
        merge_decision_summaries(self.decisions, header.get("decisions", {}))
        if spans is not None:
            # {"doc":...,"labels":...} in canonical key order.
            self.spans.append(
                '{"doc":' + spans + ',"labels":'
                + canonical_json({str(k): v for k, v in labels.items()}) + "}"
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

    def to_snapshot(
        self, meta: Mapping[str, object] | None = None
    ) -> SnapshotText:
        """The full snapshot document (same schema the report CLI
        reads), as a read-only mapping backed by its canonical text.

        Raw decision records never cross the process boundary, so
        ``decisions`` is empty and the merged digest travels in
        ``decision_summary`` instead. Span traces (present only when the
        jobs ran with tracing on) travel whole under ``spans``, one
        labeled tree per traced job in submission order.

        The text is :func:`~repro.obs.snapshot.to_json` of the document
        (canonical JSON and a trailing newline), built with one join
        over its pieces: the kept instrument texts in key order, between
        the canonical JSON of everything else.
        """
        parts = [
            '{"decision_summary":', canonical_json(self.decision_summary()),
            ',"decisions":[],"merged_jobs":', canonical_json(self.jobs),
            ',"meta":', canonical_json(dict(meta) if meta else {}),
            ',"metrics":',
        ]
        parts += self.registry.snapshot_fragments()
        parts.append(',"schema":' + canonical_json(SNAPSHOT_SCHEMA))
        if self.spans:
            parts.append(',"spans":')
            parts += json_array_fragments(self.spans)
        parts.append("}\n")
        return SnapshotText("".join(parts))


def merge(
    texts: Iterable[str],
    registry: MetricsRegistry | None = None,
) -> MergedSnapshot:
    """Fold per-job :func:`job_snapshot_json` texts into a fresh
    accumulator, each as :meth:`MergedSnapshot.add_job` merges it under
    no labels."""
    merged = MergedSnapshot(registry=registry)
    for text in texts:
        merged.add_job(text)
    return merged


def comparable_snapshot(snapshot: Mapping) -> dict:
    """A deep copy with every run-volatile field removed.

    Drops :data:`WALL_CLOCK_METRICS` instruments and
    :data:`VOLATILE_META` meta keys; what remains must be byte-identical
    between a serial and a parallel run of the same grid, and between a
    cold run and its warm cache replay. ``snapshot`` may be a plain
    document or a :class:`~repro.obs.snapshot.SnapshotText`.
    """
    doc = json.loads(
        snapshot.text
        if isinstance(snapshot, SnapshotText)
        else json.dumps(snapshot)
    )
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
