"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import itertools

import pytest

from repro.errors import ObsError
from repro.obs import NULL_OBS, Observability
from repro.obs.registry import (
    POW2_BUCKETS,
    MetricsRegistry,
    NullRegistry,
    label_key,
    text_key,
)
from repro.obs.snapshot import canonical_json


class TestLabelKey:
    def test_sorted_and_stringified(self):
        assert label_key({"b": 2, "a": "x"}) == (("a", "x"), ("b", "2"))

    def test_order_independent(self):
        assert label_key({"x": 1, "y": 2}) == label_key({"y": 2, "x": 1})


class TestTextKey:
    def test_joins_name_and_label_pairs_with_nul(self):
        key = ("n", label_key({"b": 2, "a": "x"}))
        assert text_key(key) == "n\0a\0x\0b\0" "2"
        assert text_key(("n", ())) == "n"

    def test_sorts_like_the_tuple_keys(self, rng):
        # Short parts over an alphabet holding the empty string, the
        # space and a control character make prefixes, empty values and
        # separator-adjacent characters common.
        parts = ["", " ", "\x01", "a", "ab", "a b", "b", "~"]

        def labels():
            keys = sorted(set(rng.choice(parts, size=rng.integers(0, 4))))
            return tuple((str(k), str(rng.choice(parts))) for k in keys)

        keys = {(str(rng.choice(parts)), labels()) for _ in range(400)}
        assert sorted(keys, key=text_key) == sorted(keys)
        for a, b in itertools.combinations(sorted(keys), 2):
            assert text_key(a) < text_key(b)

    @pytest.mark.parametrize(
        "key",
        [("n\0", ()), ("n", (("k\0", "v"),)), ("n", (("k", "\0"),))],
    )
    def test_a_nul_anywhere_is_rejected(self, key):
        with pytest.raises(ObsError, match="NUL"):
            text_key(key)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("dispatches_total", loop="L", tid=3)
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert reg.value("dispatches_total", loop="L", tid=3) == 3.5

    def test_rejects_decrease(self):
        c = MetricsRegistry().counter("c")
        with pytest.raises(ObsError, match="cannot decrease"):
            c.inc(-1.0)

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("c", a=1) is reg.counter("c", a=1)
        assert reg.counter("c", a=1) is not reg.counter("c", a=2)
        assert len(reg) == 2


class TestGauge:
    def test_set_and_add(self):
        reg = MetricsRegistry()
        g = reg.gauge("team_size")
        g.set(8)
        g.add(-2)
        assert reg.value("team_size") == 6.0


class TestHistogram:
    def test_bucketing_and_totals(self):
        reg = MetricsRegistry()
        h = reg.histogram("chunk", buckets=(1.0, 4.0, 16.0))
        for v in (1, 3, 4, 100):
            h.observe(v)
        d = h.as_dict()
        assert [b["le"] for b in d["buckets"]] == [1.0, 4.0, 16.0, "+Inf"]
        assert [b["count"] for b in d["buckets"]] == [1, 2, 0, 1]
        assert d["count"] == 4
        assert d["sum"] == pytest.approx(108.0)

    def test_default_buckets_are_pow2(self):
        h = MetricsRegistry().histogram("chunk")
        assert h.bounds == POW2_BUCKETS

    def test_rejects_bad_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ObsError):
            reg.histogram("h1", buckets=())
        with pytest.raises(ObsError):
            reg.histogram("h2", buckets=(1.0, 1.0, 2.0))

    def test_value_refuses_histograms(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0,))
        with pytest.raises(ObsError, match="histogram"):
            reg.value("h")


class TestKindConsistency:
    def test_same_name_other_kind_raises(self):
        reg = MetricsRegistry()
        reg.counter("m", a=1)
        with pytest.raises(ObsError, match="already registered"):
            reg.gauge("m", a=1)
        with pytest.raises(ObsError, match="already registered"):
            reg.histogram("m", a=1)

    def test_missing_metric_raises(self):
        with pytest.raises(ObsError, match="no metric"):
            MetricsRegistry().value("nope")


class TestSnapshot:
    def test_sorted_regardless_of_creation_order(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x", tid=0).inc()
        a.counter("x", tid=1).inc(2)
        b.counter("x", tid=1).inc(2)
        b.counter("x", tid=0).inc()
        assert a.snapshot() == b.snapshot()

    def test_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert set(snap) == {
            "counters", "gauges", "histograms", "timeseries", "digests"
        }
        assert [m["name"] for m in snap["counters"]] == ["c"]
        assert [m["name"] for m in snap["gauges"]] == ["g"]
        assert [m["name"] for m in snap["histograms"]] == ["h"]

    def test_fragments_join_to_the_canonical_snapshot(self):
        reg = MetricsRegistry()
        assert "".join(reg.snapshot_fragments()) == canonical_json(
            reg.snapshot()
        )
        reg.counter("c", tid=1).inc()
        reg.counter("c", tid=0).inc(2)
        reg.gauge("g").set(1)
        reg.digest("d").observe(0.5)
        assert "".join(reg.snapshot_fragments()) == canonical_json(
            reg.snapshot()
        )


class TestNullRegistry:
    def test_disabled_and_empty(self):
        reg = NullRegistry()
        assert reg.enabled is False
        assert reg.snapshot() == {
            "counters": [], "gauges": [], "histograms": [],
            "timeseries": [], "digests": [],
        }

    def test_instruments_are_shared_noops(self):
        reg = NullRegistry()
        c = reg.counter("c", tid=1)
        assert c is reg.gauge("g") is reg.histogram("h")
        c.inc()
        c.set(5)
        c.add(1)
        c.observe(3)
        assert len(reg) == 0


class TestObservabilityBundle:
    def test_default_is_enabled(self):
        obs = Observability()
        assert obs.enabled
        assert obs.registry.enabled
        assert obs.decisions.enabled

    def test_null_bundle_disabled(self):
        assert NULL_OBS.enabled is False
        assert Observability.disabled().enabled is False
