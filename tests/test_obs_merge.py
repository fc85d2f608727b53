"""Tests for cross-process snapshot merging (repro.obs.merge):
decision-log digests, the merge algebra (counters/buckets sum, gauges
last-wins), label augmentation, schema/bounds validation, the kept
first-seen documents, and the volatile-field stripping that the
determinism tests build on."""

import copy
import json

import pytest

from repro.errors import ObsError
from repro.obs import DecisionLog, MetricsRegistry, Observability
from repro.obs.merge import (
    JOB_SCHEMA,
    VOLATILE_META,
    WALL_CLOCK_METRICS,
    MergedSnapshot,
    comparable_snapshot,
    job_snapshot,
    job_snapshot_json,
    merge,
    merge_metrics_into,
    summarize_decisions,
)
from repro.obs.registry import NullRegistry
from repro.obs.snapshot import SCHEMA as SNAPSHOT_SCHEMA
from repro.obs.snapshot import canonical_json
from repro.obs.timeseries import TimeSeries


def make_obs(dispatches=3, chunk_values=(1.0, 4.0), gauge=0.5):
    """A small but fully populated Observability bundle."""
    obs = Observability()
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
        doc = job_snapshot(make_obs())
        assert doc["schema"] == JOB_SCHEMA
        assert doc["metrics"]["counters"]
        # Decision records are digested, never shipped raw.
        assert doc["decisions"]["total"] == 2
        assert "records" not in doc["decisions"]

    def test_canonical_json_is_deterministic(self):
        assert job_snapshot_json(make_obs()) == job_snapshot_json(make_obs())

    def test_json_round_trips_exactly(self):
        text = job_snapshot_json(make_obs())
        rebuilt = json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        )
        assert rebuilt == text


# -- the merge algebra -------------------------------------------------------


class TestMergedSnapshot:
    def test_counters_and_histogram_buckets_sum(self):
        merged = merge([
            job_snapshot(make_obs(dispatches=3, chunk_values=(1.0,))),
            job_snapshot(make_obs(dispatches=5, chunk_values=(4.0, 16.0))),
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
        a = job_snapshot(make_obs(gauge=0.25))
        b = job_snapshot(make_obs(gauge=0.75))
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
        merged.add_job(job_snapshot(make_obs(dispatches=2)), program="EP")
        merged.add_job(job_snapshot(make_obs(dispatches=7)), program="IS")
        reg = merged.registry
        assert reg.value("dispatches_total", loop="L", tid=0, program="EP") == 2
        assert reg.value("dispatches_total", loop="L", tid=0, program="IS") == 7

    def test_decision_summaries_accumulate(self):
        merged = merge([job_snapshot(make_obs()), job_snapshot(make_obs())])
        summary = merged.decision_summary()
        assert summary["total"] == 4
        assert summary["schedulers"]["aid_hybrid"]["events"] == {
            "publish_targets": 2, "sample_start": 2,
        }

    def test_merge_can_extend_an_existing_registry(self):
        registry = MetricsRegistry()
        registry.counter("fleet_jobs_submitted").inc(2)
        merged = merge([job_snapshot(make_obs())], registry=registry)
        assert merged.registry is registry
        assert registry.value("fleet_jobs_submitted") == 2

    def test_rejects_foreign_schema(self):
        with pytest.raises(ObsError, match="job-snapshot"):
            MergedSnapshot().add_job({"schema": "something/else"})

    def test_rejects_histogram_bounds_mismatch(self):
        merged = MergedSnapshot()
        merged.add_job(job_snapshot(make_obs()))
        other = Observability()
        other.registry.histogram(
            "chunk_size_iterations", buckets=(2.0, 8.0), loop="L"
        ).observe(1.0)
        with pytest.raises(ObsError, match="bucket mismatch"):
            merged.add_job(job_snapshot(other))

    def test_to_snapshot_is_a_report_readable_document(self):
        merged = merge([job_snapshot(make_obs())])
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


# -- kept first-seen documents -----------------------------------------------


def kept_kinds_registry() -> MetricsRegistry:
    """One live instrument of each kind the merge keeps: a counter, a
    gauge, a histogram, a series coalesced past level 0 and an empty
    digest."""
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


def merged_text(reg: MetricsRegistry) -> str:
    return canonical_json(reg.snapshot())


class TestKeptDocuments:
    def test_kept_and_converted_snapshots_write_the_same_bytes(self):
        text = merged_text(kept_kinds_registry())
        metrics = json.loads(text)
        reg = MetricsRegistry()
        merge_metrics_into(reg, metrics)
        # First sight keeps the document: its nested maps are the input's.
        (series,) = reg.snapshot()["timeseries"]
        assert series["points"] is metrics["timeseries"][0]["points"]
        assert merged_text(reg) == text
        reg.realize()
        (series,) = reg.snapshot()["timeseries"]
        assert series["points"] is not metrics["timeseries"][0]["points"]
        assert merged_text(reg) == text

    def test_kept_documents_are_normalized_like_the_fold(self):
        metrics = {
            "counters": [{"name": "c", "labels": {}, "value": 3}],
            "gauges": [{"name": "g", "labels": {"tid": 1}, "value": 2}],
            "histograms": [{
                "name": "h", "labels": {}, "sum": 4, "count": 2,
                "buckets": [{"le": 1, "count": 1}, {"le": "+Inf", "count": 1}],
            }],
            "timeseries": [{
                "name": "s", "labels": {}, "mode": "busy", "window0": 0.5,
                "window": 0.5, "level": 2, "capacity": 8, "norm": 2,
                "points": {"0": [1.0, 1.0, 1.0, 1.0]},
            }],
            "digests": [{
                "name": "d", "labels": {}, "gamma": 1.5, "zero": 0,
                "buckets": {}, "sum": 0, "count": 0, "min": 7.0, "max": 9.0,
            }],
        }
        kept = MetricsRegistry()
        merge_metrics_into(kept, metrics, {"program": 7})
        folded = MetricsRegistry()
        merge_metrics_into(folded, metrics, {"program": 7})
        folded.realize()
        assert merged_text(kept) == merged_text(folded)
        (series,) = kept.snapshot()["timeseries"]
        assert series["window"] == 2.0
        assert kept.snapshot()["gauges"][0]["labels"] == {
            "program": "7", "tid": "1",
        }

    def test_collisions_fold_and_never_touch_the_kept_document(self):
        metrics = json.loads(merged_text(kept_kinds_registry()))
        pristine = copy.deepcopy(metrics)
        reg = MetricsRegistry()
        merge_metrics_into(reg, metrics)
        merge_metrics_into(reg, metrics)
        assert metrics == pristine
        snap = reg.snapshot()
        assert snap["counters"][0]["value"] == 6.0
        assert snap["gauges"][0]["value"] == 0.5  # last-wins, not summed
        assert snap["histograms"][0]["count"] == 6
        series = TimeSeries("runnable", (("loop", "L"),), window=1.0,
                            capacity=4)
        series.merge_doc(pristine["timeseries"][0])
        series.merge_doc(pristine["timeseries"][0])
        assert snap["timeseries"] == [series.as_dict()]

    def test_an_accessor_converts_a_kept_document(self):
        metrics = json.loads(merged_text(kept_kinds_registry()))
        pristine = copy.deepcopy(metrics)
        reg = MetricsRegistry()
        merge_metrics_into(reg, metrics)
        assert reg.value("dispatches_total", loop="L") == 3.0
        reg.counter("dispatches_total", loop="L").inc()
        reg.timeseries("runnable", loop="L").observe(0.0, 1.0)
        assert reg.value("dispatches_total", loop="L") == 4.0
        assert metrics == pristine
        with pytest.raises(ObsError, match="already registered as a gauge"):
            reg.counter("imbalance", loop="L")

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
        assert len(reg) == 0


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
        merged = merge([job_snapshot(obs)])
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
