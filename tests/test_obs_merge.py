"""Tests for cross-process snapshot merging (repro.obs.merge):
decision-log digests, the per-job wire format, the merge algebra
(counters/buckets sum, gauges last-wins), label augmentation and
relabeling, schema/bounds validation, the kept instrument texts, the
text-backed merged snapshot, and the volatile-field stripping that the
determinism tests build on."""

import copy
import json

import pytest

from repro.errors import ObsError
from repro.obs import DecisionLog, MetricsRegistry, Observability, SpanRecorder
from repro.obs.merge import (
    INDEX_SEPARATORS,
    JOB_SCHEMA,
    VOLATILE_META,
    WALL_CLOCK_METRICS,
    MergedSnapshot,
    comparable_snapshot,
    job_snapshot_json,
    merge,
    merge_metrics_into,
    read_job_snapshot,
    summarize_decisions,
)
from repro.obs.registry import KIND_PLURALS, NullRegistry, label_key, text_key
from repro.obs.snapshot import SCHEMA as SNAPSHOT_SCHEMA
from repro.obs.snapshot import SnapshotText, canonical_json, to_json
from repro.obs.timeseries import TimeSeries

#: A fleet job's merge labels, and the same cell with its column renamed.
LABELS = {"program": "EP", "config": "AID-static", "platform": "A"}
RENAMED = {**LABELS, "config": "AID-static(renamed)"}


def make_obs(dispatches=3, chunk_values=(1.0, 4.0), gauge=0.5, labels=None):
    """A small but fully populated Observability bundle."""
    obs = Observability(merge_labels=labels)
    for _ in range(dispatches):
        obs.registry.counter("dispatches_total", loop="L", tid=0).inc()
    obs.registry.gauge("loop_last_imbalance", loop="L").set(gauge)
    hist = obs.registry.histogram(
        "chunk_size_iterations", buckets=(1.0, 4.0, 16.0), loop="L"
    )
    for v in chunk_values:
        hist.observe(v)
    obs.decisions.record(
        loop="L", scheduler="aid_hybrid", tid=0, t=0.0, event="sample_start"
    )
    obs.decisions.record(
        loop="L", scheduler="aid_hybrid", tid=0, t=0.1,
        event="publish_targets",
    )
    return obs


# -- decision summaries ------------------------------------------------------


class TestSummarizeDecisions:
    def test_counts_per_scheduler_event_and_loop(self):
        records = [
            {"scheduler": "aid_hybrid", "event": "sample_start", "loop": "a"},
            {"scheduler": "aid_hybrid", "event": "sample_start", "loop": "a"},
            {"scheduler": "aid_hybrid", "event": "publish_targets", "loop": "a"},
            {"scheduler": "aid_dynamic", "event": "phase_join", "loop": "b"},
        ]
        summary = summarize_decisions(records)
        assert summary["total"] == 4
        assert summary["schedulers"]["aid_hybrid"] == {
            "total": 3,
            "events": {"publish_targets": 1, "sample_start": 2},
        }
        assert summary["schedulers"]["aid_dynamic"]["total"] == 1
        assert summary["loops"] == {"a": 3, "b": 1}

    def test_empty_log_digests_to_zero(self):
        assert summarize_decisions([]) == {
            "total": 0, "schedulers": {}, "loops": {}
        }

    @pytest.mark.parametrize(
        "records, total",
        [
            # A record missing ``loop`` sends the fast path to the
            # fallback, which must still see all three records.
            ([
                {"scheduler": "a", "event": "x", "loop": "k"},
                {"scheduler": "a", "event": "x"},
                {"scheduler": "b", "event": "y", "loop": "k"},
            ], 3),
            # A non-str scheduler bails out after the fast path read
            # everything.
            ([
                {"scheduler": 1, "event": "x", "loop": "k"},
                {"scheduler": "a", "event": "x", "loop": "k"},
            ], 2),
        ],
    )
    def test_an_iterator_counts_like_a_list(self, records, total):
        from_list = summarize_decisions(records)
        assert from_list["total"] == total
        assert summarize_decisions(iter(records)) == from_list

    def test_key_order_is_deterministic(self):
        fwd = [
            {"scheduler": "b", "event": "y", "loop": "m"},
            {"scheduler": "a", "event": "x", "loop": "k"},
        ]
        a = json.dumps(summarize_decisions(fwd), sort_keys=False)
        b = json.dumps(summarize_decisions(list(reversed(fwd))), sort_keys=False)
        assert a == b


# -- the per-job document ----------------------------------------------------


class TestJobSnapshot:
    def test_document_shape(self):
        doc = read_job_snapshot(job_snapshot_json(make_obs()))
        assert doc["schema"] == JOB_SCHEMA
        assert doc["metrics"]["counters"]
        # Decision records are digested, never shipped raw.
        assert doc["decisions"]["total"] == 2
        assert "records" not in doc["decisions"]

    def test_canonical_json_is_deterministic(self):
        assert job_snapshot_json(make_obs()) == job_snapshot_json(make_obs())

    def test_json_round_trips_exactly(self):
        text = job_snapshot_json(make_obs(labels=LABELS))
        for line in text.split("\n"):
            assert canonical_json(json.loads(line)) == line

    def test_header_indexes_every_instrument_line(self):
        lines = job_snapshot_json(make_obs(labels=LABELS)).split("\n")
        header = json.loads(lines[0])
        assert header["schema"] == JOB_SCHEMA
        assert header["labels"] == dict(label_key(LABELS))
        assert header["decisions"]["total"] == 2
        assert "spans" not in header
        assert header["sep"] == "|"
        assert list(header["index"]) == sorted(KIND_PLURALS.values())
        keys = index_keys(header)
        docs = [json.loads(line) for line in lines[1:]]
        assert len(keys) == len(docs) == 3
        for tkey, doc in zip(keys, docs):
            assert tkey == text_key((doc["name"], label_key(doc["labels"])))
            assert doc["labels"]["config"] == "AID-static"

    def test_merge_labels_can_reorder_keys(self):
        obs = Observability(merge_labels={"c": "x"})
        obs.registry.counter("n", a=1)
        obs.registry.counter("n", a=1, b=2)
        lines = job_snapshot_json(obs).split("\n")
        # (a, b, c) now sorts before (a, c).
        assert [json.loads(line)["labels"] for line in lines[1:]] == [
            {"a": "1", "b": "2", "c": "x"}, {"a": "1", "c": "x"},
        ]
        # Each key is written as the length of the prefix it shares
        # with the previous key, and the rest.
        header = json.loads(lines[0])
        assert header["index"]["counters"] == [0, "n|a|1|b|2|c|x", 5, "|c|x"]
        assert index_keys(header) == [
            "n\0a\0" "1\0b\0" "2\0c\0x", "n\0a\0" "1\0c\0x",
        ]

    @pytest.mark.parametrize(
        "value, sep", [("a|b", "~"), ("".join(INDEX_SEPARATORS[:-1]), "\0")]
    )
    def test_the_index_separator_is_a_character_no_key_holds(self, value, sep):
        obs = Observability(merge_labels={"config": value})
        obs.registry.counter("n", loop="x|y")
        obs.registry.counter("n", loop="z")
        text = job_snapshot_json(obs)
        header = json.loads(text.split("\n")[0])
        assert header["sep"] == sep
        expected = [
            text_key(("n", label_key({"config": value, "loop": loop})))
            for loop in ("x|y", "z")
        ]
        assert index_keys(header) == expected
        merged = MergedSnapshot()
        merged.add_job(text, config=value)
        assert merged.registry.value("n", config=value, loop="x|y") == 0.0

    def test_a_traced_job_carries_its_span_document(self):
        obs = Observability(spans=SpanRecorder(context="t"))
        lines = job_snapshot_json(obs).split("\n")
        assert json.loads(lines[0])["spans"] is True
        assert lines[1] == canonical_json(obs.spans.as_doc())
        doc = read_job_snapshot(job_snapshot_json(obs))
        assert doc["spans"] == obs.spans.as_doc()

    def test_read_job_snapshot_inverts_the_text(self):
        obs = make_obs(labels=LABELS)
        doc = read_job_snapshot(job_snapshot_json(obs))
        assert doc["metrics"] == folded(obs.registry).snapshot()
        assert doc["decisions"] == summarize_decisions(obs.decisions.records)
        assert doc["labels"] == LABELS
        (counter,) = doc["metrics"]["counters"]
        assert counter["labels"] == {"loop": "L", "tid": "0", **LABELS}

    def test_a_nul_in_a_name_or_label_is_rejected(self):
        obs = Observability()
        with pytest.raises(ObsError, match="NUL"):
            obs.registry.counter("c", loop="a\0b")
        with pytest.raises(ObsError, match="NUL"):
            obs.registry.gauge("g\0")
        with pytest.raises(ObsError, match="NUL"):
            job_snapshot_json(make_obs(labels={"program": "E\0P"}))

    def test_an_unreadable_header_is_rejected(self):
        with pytest.raises(ObsError, match="unreadable"):
            MergedSnapshot().add_job("not json")

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"index": None}, "lacks its labels, index or sep"),
            ({"index": ["counters"]}, "lacks its labels, index or sep"),
            ({"labels": None}, "lacks its labels, index or sep"),
            ({"sep": None}, "lacks its labels, index or sep"),
            ({"sep": "||"}, "lacks its labels, index or sep"),
            ({"index": {"counters": [0]}}, "not a list of pairs"),
            ({"index": {"counters": {"0": "c"}}}, "not a list of pairs"),
            ({"index": {"counters": ["0", "c"]}}, "unreadable"),
            ({"index": {"counters": [0, 7]}}, "unreadable"),
            ({"index": {"widgets": []}}, "unknown kind"),
            ({"spans": True}, "accounts for"),
        ],
    )
    def test_a_malformed_header_is_rejected(self, change, match):
        obs = Observability()
        obs.registry.counter("c")
        lines = job_snapshot_json(obs).split("\n")
        header = {**json.loads(lines[0]), **change}
        text = "\n".join([canonical_json(header), *lines[1:]])
        with pytest.raises(ObsError, match=match):
            MergedSnapshot().add_job(text)
        with pytest.raises(ObsError, match=match):
            read_job_snapshot(text)

    def test_a_traced_header_without_its_span_line_is_rejected(self):
        obs = Observability(spans=SpanRecorder(context="t"))
        header = job_snapshot_json(obs).split("\n")[0]
        with pytest.raises(ObsError, match="accounts for"):
            MergedSnapshot().add_job(header)

    def test_lines_the_index_does_not_account_for_are_rejected(self):
        text = job_snapshot_json(make_obs())
        with pytest.raises(ObsError, match="accounts for"):
            MergedSnapshot().add_job(text + "\n{}")
        with pytest.raises(ObsError, match="accounts for"):
            MergedSnapshot().add_job(text.rsplit("\n", 1)[0])


# -- the merge algebra -------------------------------------------------------


class TestMergedSnapshot:
    def test_counters_and_histogram_buckets_sum(self):
        merged = merge([
            job_snapshot_json(make_obs(dispatches=3, chunk_values=(1.0,))),
            job_snapshot_json(make_obs(dispatches=5, chunk_values=(4.0, 16.0))),
        ])
        snap = merged.registry.snapshot()
        (counter,) = [
            c for c in snap["counters"] if c["name"] == "dispatches_total"
        ]
        assert counter["value"] == 8.0
        (hist,) = snap["histograms"]
        assert hist["count"] == 3
        assert hist["sum"] == 21.0
        assert merged.jobs == 2

    def test_gauges_are_last_wins_in_merge_order(self):
        a = job_snapshot_json(make_obs(gauge=0.25))
        b = job_snapshot_json(make_obs(gauge=0.75))
        forward = merge([a, b]).registry.value(
            "loop_last_imbalance", loop="L"
        )
        backward = merge([b, a]).registry.value(
            "loop_last_imbalance", loop="L"
        )
        assert forward == 0.75
        assert backward == 0.25

    def test_extra_labels_keep_jobs_distinguishable(self):
        merged = MergedSnapshot()
        merged.add_job(job_snapshot_json(make_obs(dispatches=2)), program="EP")
        merged.add_job(job_snapshot_json(make_obs(dispatches=7)), program="IS")
        reg = merged.registry
        assert reg.value("dispatches_total", loop="L", tid=0, program="EP") == 2
        assert reg.value("dispatches_total", loop="L", tid=0, program="IS") == 7

    def test_decision_summaries_accumulate(self):
        merged = merge([job_snapshot_json(make_obs()), job_snapshot_json(make_obs())])
        summary = merged.decision_summary()
        assert summary["total"] == 4
        assert summary["schedulers"]["aid_hybrid"]["events"] == {
            "publish_targets": 2, "sample_start": 2,
        }

    def test_merge_can_extend_an_existing_registry(self):
        registry = MetricsRegistry()
        registry.counter("fleet_jobs_submitted").inc(2)
        merged = merge([job_snapshot_json(make_obs())], registry=registry)
        assert merged.registry is registry
        assert registry.value("fleet_jobs_submitted") == 2

    def test_rejects_foreign_schema(self):
        with pytest.raises(ObsError, match="job-snapshot"):
            MergedSnapshot().add_job('{"schema":"something/else"}')

    def test_rejects_histogram_bounds_mismatch(self):
        merged = MergedSnapshot()
        merged.add_job(job_snapshot_json(make_obs()))
        other = Observability()
        other.registry.histogram(
            "chunk_size_iterations", buckets=(2.0, 8.0), loop="L"
        ).observe(1.0)
        with pytest.raises(ObsError, match="bucket mismatch"):
            merged.add_job(job_snapshot_json(other))

    def test_to_snapshot_is_a_report_readable_document(self):
        merged = merge([job_snapshot_json(make_obs())])
        doc = merged.to_snapshot(meta={"grids": "smoke"})
        assert doc["schema"] == SNAPSHOT_SCHEMA
        assert doc["meta"] == {"grids": "smoke"}
        assert doc["decisions"] == []
        assert doc["decision_summary"]["total"] == 2
        assert doc["merged_jobs"] == 1

    def test_empty_merge_yields_an_empty_snapshot(self):
        doc = MergedSnapshot().to_snapshot()
        assert doc["merged_jobs"] == 0
        assert doc["metrics"] == {
            "counters": [], "gauges": [], "histograms": [],
            "timeseries": [], "digests": [],
        }


# -- kept instrument texts --------------------------------------------------


def kept_kinds_registry() -> MetricsRegistry:
    """One live instrument of each kind: a counter, a gauge, a
    histogram, a series coalesced past level 0 and an empty digest."""
    reg = MetricsRegistry()
    reg.counter("dispatches_total", loop="L").inc(3)
    reg.gauge("imbalance", loop="L").set(0.5)
    hist = reg.histogram("chunk", buckets=(1.0, 4.0), loop="L")
    for v in (1.0, 3.0, 9.0):
        hist.observe(v)
    ts = reg.timeseries("runnable", window=1.0, capacity=4, loop="L")
    for t in range(10):
        ts.observe(float(t), float(t))
    assert ts.level > 0
    reg.digest("overhead", loop="L")
    return reg


def index_keys(header: dict) -> list[str]:
    """Every text key a job snapshot's header indexes, in line order."""
    keys = []
    for coded in header["index"].values():
        key = ""
        for shared, rest in zip(coded[::2], coded[1::2]):
            key = key[:shared] + rest.replace(header["sep"], "\0")
            keys.append(key)
    return keys


def merged_text(reg: MetricsRegistry) -> str:
    return canonical_json(reg.snapshot())


def job_text(source: MetricsRegistry, labels=LABELS) -> str:
    """``source``'s job snapshot, stamped with ``labels``."""
    return job_snapshot_json(Observability(registry=source, merge_labels=labels))


def folded(source: MetricsRegistry, labels=LABELS) -> MetricsRegistry:
    """The reference: ``source``'s dump folded under ``labels``."""
    reg = MetricsRegistry()
    merge_metrics_into(reg, source.snapshot(), labels)
    return reg


class TestKeptDocuments:
    def test_kept_and_converted_snapshots_write_the_same_bytes(self):
        source = kept_kinds_registry()
        expected = merged_text(folded(source))
        merged = MergedSnapshot()
        merged.add_job(job_text(source), **LABELS)
        reg = merged.registry
        assert "".join(reg.snapshot_fragments()) == expected
        assert merged_text(reg) == expected
        reg.realize()
        assert "".join(reg.snapshot_fragments()) == expected
        assert merged_text(reg) == expected

    def test_each_instrument_line_is_rendered_verbatim(self):
        text = job_text(kept_kinds_registry())
        merged = MergedSnapshot()
        merged.add_job(text, **LABELS)
        fragments = merged.registry.snapshot_fragments()
        for line in text.split("\n")[1:]:
            assert line in fragments

    def test_collisions_fold(self):
        source = kept_kinds_registry()
        text = job_text(source)
        merged = MergedSnapshot()
        merged.add_job(text, **LABELS)
        merged.add_job(text, **LABELS)
        snap = merged.registry.snapshot()
        assert snap["counters"][0]["value"] == 6.0
        assert snap["gauges"][0]["value"] == 0.5  # last-wins, not summed
        assert snap["histograms"][0]["count"] == 6
        reference = folded(source)
        merge_metrics_into(reference, source.snapshot(), LABELS)
        assert merged_text(merged.registry) == merged_text(reference)

    def test_a_live_instrument_on_the_key_folds(self):
        merged = MergedSnapshot()
        merged.registry.counter("dispatches_total", loop="L", **LABELS).inc()
        merged.add_job(job_text(kept_kinds_registry()), **LABELS)
        assert merged.registry.value(
            "dispatches_total", loop="L", **LABELS
        ) == 4.0
        assert len(merged.registry.snapshot()["counters"]) == 1

    def test_an_accessor_converts_a_kept_document(self):
        merged = MergedSnapshot()
        merged.add_job(job_text(kept_kinds_registry()), **LABELS)
        reg = merged.registry
        assert reg.value("dispatches_total", loop="L", **LABELS) == 3.0
        reg.counter("dispatches_total", loop="L", **LABELS).inc()
        reg.timeseries("runnable", loop="L", **LABELS).observe(0.0, 1.0)
        assert reg.value("dispatches_total", loop="L", **LABELS) == 4.0
        assert reg.snapshot()["counters"][0]["value"] == 4.0
        with pytest.raises(ObsError, match="already registered as a gauge"):
            reg.counter("imbalance", loop="L", **LABELS)

    def test_a_text_stamped_under_other_labels_is_relabeled(self):
        source = kept_kinds_registry()
        merged = MergedSnapshot()
        merged.add_job(job_text(source, LABELS), **RENAMED)
        assert merged_text(merged.registry) == merged_text(
            folded(source, RENAMED)
        )
        for docs in merged.registry.snapshot().values():
            for doc in docs:
                assert doc["labels"]["config"] == RENAMED["config"]

    def test_relabeling_drops_the_stamped_labels(self):
        source = kept_kinds_registry()
        merged = MergedSnapshot()
        merged.add_job(job_text(source, LABELS))
        assert merged_text(merged.registry) == merged_text(folded(source, {}))

    def test_span_documents_ride_whole_under_the_merge_labels(self):
        obs = Observability(
            spans=SpanRecorder(context="t"), merge_labels=LABELS
        )
        merged = MergedSnapshot()
        merged.add_job(job_snapshot_json(obs), **RENAMED)
        merged.add_job(job_snapshot_json(obs), **LABELS)
        assert merged.to_snapshot()["spans"] == [
            {"labels": RENAMED, "doc": obs.spans.as_doc()},
            {"labels": LABELS, "doc": obs.spans.as_doc()},
        ]

    def test_collisions_fold_and_never_touch_the_kept_document(self):
        metrics = json.loads(merged_text(kept_kinds_registry()))
        pristine = copy.deepcopy(metrics)
        reg = MetricsRegistry()
        merge_metrics_into(reg, metrics)
        merge_metrics_into(reg, metrics)
        assert metrics == pristine
        (series,) = reg.snapshot()["timeseries"]
        assert series["points"] is not metrics["timeseries"][0]["points"]
        expected = TimeSeries("runnable", (("loop", "L"),), window=1.0,
                              capacity=4)
        expected.merge_doc(pristine["timeseries"][0])
        expected.merge_doc(pristine["timeseries"][0])
        assert series == expected.as_dict()

    def test_the_fold_normalizes_what_it_writes(self):
        metrics = {
            "counters": [{"name": "c", "labels": {}, "value": 3}],
            "gauges": [{"name": "g", "labels": {"tid": 1}, "value": 2}],
            "timeseries": [{
                "name": "s", "labels": {}, "mode": "busy", "window0": 0.5,
                "window": 0.5, "level": 2, "capacity": 8, "norm": 2,
                "points": {"0": [1.0, 1.0, 1.0, 1.0]},
            }],
        }
        reg = MetricsRegistry()
        merge_metrics_into(reg, metrics, {"program": 7})
        snap = reg.snapshot()
        assert snap["counters"][0]["value"] == 3.0
        assert snap["timeseries"][0]["window"] == 2.0
        assert snap["gauges"][0]["labels"] == {"program": "7", "tid": "1"}

    @pytest.mark.parametrize(
        "kind, doc, match",
        [
            ("counters", {"name": "c", "labels": {}, "value": -1.0},
             "cannot decrease"),
            ("histograms", {
                "name": "h", "labels": {}, "sum": 0.0, "count": 0,
                "buckets": [{"le": 4.0, "count": 0}, {"le": 1.0, "count": 0},
                            {"le": "+Inf", "count": 0}],
            }, "strictly increasing"),
            ("histograms", {
                "name": "h", "labels": {}, "sum": 0.0, "count": 0,
                "buckets": [{"le": 1.0, "count": 0}, {"le": 4.0, "count": 0}],
            }, "has 2 buckets, expected 3"),
            ("timeseries", {"name": "s", "labels": {}, "mode": "bursty",
                            "window0": 1.0, "level": 0, "points": {}},
             "unknown mode"),
            ("timeseries", {"name": "s", "labels": {}, "window0": 1.0,
                            "level": 0, "points": {}},
             "mode mismatch"),
            ("timeseries", {"name": "s", "labels": {}, "mode": "sample",
                            "window0": 0.0, "level": 0, "points": {}},
             "window must be > 0"),
            ("timeseries", {"name": "s", "labels": {}, "mode": "sample",
                            "window0": 1.0, "capacity": 1, "points": {}},
             "capacity must be >= 2"),
            ("digests", {"name": "d", "labels": {}, "gamma": 1.0, "zero": 0,
                         "buckets": {}, "sum": 0.0, "count": 0,
                         "min": 0.0, "max": 0.0},
             "gamma must be > 1"),
        ],
    )
    def test_a_malformed_first_seen_document_still_raises(
        self, kind, doc, match
    ):
        with pytest.raises(ObsError, match=match):
            merge_metrics_into(MetricsRegistry(), {kind: [doc]})

    def test_an_over_capacity_series_takes_the_fold(self):
        doc = {
            "name": "s", "labels": {}, "mode": "sample", "window0": 1.0,
            "window": 1.0, "level": 0, "capacity": 4, "norm": 1.0,
            "points": {str(i): [1.0, 1.0, 1.0, 1.0] for i in range(6)},
        }
        reg = MetricsRegistry()
        merge_metrics_into(reg, {"timeseries": [doc]})
        expected = TimeSeries("s", (), window=1.0, capacity=4)
        expected.merge_doc(doc)
        assert expected.level == 1
        assert reg.snapshot()["timeseries"] == [expected.as_dict()]

    def test_a_null_registry_ignores_merges(self):
        reg = NullRegistry()
        merge_metrics_into(reg, kept_kinds_registry().snapshot())
        MergedSnapshot(reg).add_job(job_text(kept_kinds_registry()), **LABELS)
        assert len(reg) == 0


# -- the merged snapshot as text ---------------------------------------------


class TestSnapshotText:
    def test_to_snapshot_is_its_canonical_text(self):
        merged = MergedSnapshot()
        merged.add_job(job_text(kept_kinds_registry()), **LABELS)
        doc = merged.to_snapshot(meta={"grids": "smoke", "jobs": 2})
        assert isinstance(doc, SnapshotText)
        text = to_json(doc)
        assert text is doc.text
        assert canonical_json(json.loads(text)) + "\n" == text
        assert dict(doc) == json.loads(text)
        # Reads decode the text once.
        assert doc["meta"] is doc["meta"]
        assert doc["merged_jobs"] == 1
        assert len(doc["metrics"]["histograms"]) == 1

    def test_traced_text_is_canonical(self):
        obs = make_obs(labels=LABELS)
        obs.spans = SpanRecorder(context="t")
        merged = MergedSnapshot()
        merged.add_job(job_snapshot_json(obs), **LABELS)
        text = to_json(merged.to_snapshot())
        assert canonical_json(json.loads(text)) + "\n" == text

    def test_the_mapping_is_read_only(self):
        doc = MergedSnapshot().to_snapshot()
        with pytest.raises(TypeError):
            doc["meta"] = {}  # type: ignore[index]


# -- comparable_snapshot -----------------------------------------------------


class TestComparableSnapshot:
    def make_doc(self):
        obs = Observability(decisions=DecisionLog())
        obs.registry.counter("dispatches_total", loop="L").inc(4)
        obs.registry.histogram(
            "fleet_job_duration_seconds", buckets=(1.0,)
        ).observe(0.5)
        obs.registry.gauge(
            "fleet_duration_estimate_seconds", profile="EP|static|BS|A"
        ).set(0.3)
        merged = merge([job_snapshot_json(obs)])
        return merged.to_snapshot(
            meta={"grids": "smoke", "jobs": 4, "wall_clock_seconds": 1.23}
        )

    def test_strips_wall_clock_metrics_and_volatile_meta(self):
        doc = comparable_snapshot(self.make_doc())
        names = {
            m["name"]
            for kind in ("counters", "gauges", "histograms")
            for m in doc["metrics"][kind]
        }
        assert names.isdisjoint(WALL_CLOCK_METRICS)
        assert "dispatches_total" in names
        assert set(doc["meta"]).isdisjoint(VOLATILE_META)
        assert doc["meta"] == {"grids": "smoke"}

    def test_is_a_deep_copy(self):
        original = self.make_doc()
        copy = comparable_snapshot(original)
        copy["meta"]["grids"] = "tampered"
        copy["metrics"]["counters"][0]["value"] = -1
        assert original["meta"]["grids"] == "smoke"
        assert original["metrics"]["counters"][0]["value"] != -1

    def test_identical_docs_stay_identical(self):
        a = comparable_snapshot(self.make_doc())
        b = comparable_snapshot(self.make_doc())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
