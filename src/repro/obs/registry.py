"""Runtime metrics: counters, gauges and fixed-bucket histograms.

The registry is the quantitative half of the observability layer (the
qualitative half is :mod:`repro.obs.decisions`). Instruments follow the
conventions the paper's own measurement methodology implies:

* **counters** only go up (dispatch counts, seconds of runtime overhead);
* **gauges** hold the latest value of something (team shape, last loop
  imbalance);
* **histograms** bucket a distribution against *fixed* upper bounds
  chosen at creation time (granted chunk sizes), so two runs that observe
  the same values produce byte-identical snapshots.

Instruments are keyed by ``(name, labels)``; asking for the same key
twice returns the same instrument, so call sites never need to cache.
The :class:`NullRegistry` subclass hands out shared no-op instruments —
the default everywhere in the runtime, so uninstrumented runs pay only
an attribute check per hook.

:meth:`MetricsRegistry.merge_doc` folds *serialized* instruments (the
cross-process merge of :mod:`repro.obs.merge`). A key seen for the first
time keeps the incoming document, normalized to what the fold would
write, instead of rebuilding a live instrument from it; the document
becomes a live instrument only when a second one lands on the same key
or an accessor asks for it.
"""

from __future__ import annotations

import bisect
import math
from operator import itemgetter
from typing import Mapping, Sequence

from repro.errors import ObsError
from repro.obs.timeseries import (
    DEFAULT_CAPACITY,
    DEFAULT_GAMMA,
    DEFAULT_WINDOW,
    QuantileDigest,
    TimeSeries,
)

#: Canonical label key: sorted (key, stringified value) pairs.
LabelKey = tuple[tuple[str, str], ...]

#: Snapshot key per instrument kind ("timeseries" is its own plural).
KIND_PLURALS = {
    "counter": "counters",
    "gauge": "gauges",
    "histogram": "histograms",
    "timeseries": "timeseries",
    "digest": "digests",
}

#: Default histogram buckets: powers of two covering chunk sizes from a
#: single iteration up to the largest AID allotments seen in practice.
POW2_BUCKETS = tuple(float(2**i) for i in range(13))  # 1 .. 4096


def label_key(labels: Mapping[str, object]) -> LabelKey:
    """Canonical, hashable, deterministic form of a label set."""
    items = [(k, str(v)) for k, v in labels.items()]
    if len(items) > 1:
        items.sort()
    return tuple(items)


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0: counters never decrease)."""
        if amount < 0:
            raise ObsError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        self.value += amount

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge:
    """Last-value-wins instrument."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Histogram:
    """Fixed-bucket histogram (cumulative-style export).

    ``buckets`` are the finite upper bounds, strictly increasing; an
    implicit ``+Inf`` bucket catches everything above the last bound.
    An observation lands in the first bucket whose bound is >= value.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "sum", "count")
    kind = "histogram"

    def __init__(
        self, name: str, labels: LabelKey, buckets: Sequence[float]
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ObsError(f"histogram {name!r} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ObsError(
                f"histogram {name!r} buckets must be strictly increasing: {bounds}"
            )
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # + the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, values) -> None:
        """Fold a whole column of observations at once.

        Bucket counts and the running sum land exactly where per-element
        :meth:`observe` calls would put them (``np.searchsorted`` with
        ``side="left"`` is ``bisect_left``; the sum accumulates through a
        cumsum, which rounds in the same left-to-right order as repeated
        ``+=``).
        """
        import numpy as np

        v = np.asarray(values, dtype=float)
        if v.size == 0:
            return
        idx = np.searchsorted(self.bounds, v, side="left")
        folded = np.bincount(idx, minlength=len(self.counts))
        counts = self.counts
        for i, c in enumerate(folded.tolist()):
            if c:
                counts[i] += c
        chain = np.empty(v.size + 1)
        chain[0] = self.sum
        chain[1:] = v
        self.sum = float(np.cumsum(chain)[-1])
        self.count += int(v.size)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "buckets": [
                {"le": le, "count": c}
                for le, c in zip(list(self.bounds) + ["+Inf"], self.counts)
            ],
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Get-or-create store of instruments, keyed by (name, labels).

    The same metric name must always be used with the same instrument
    kind; mixing kinds is a programming error and raises
    :class:`~repro.errors.ObsError`.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelKey], object] = {}

    # -- instrument accessors ------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(Counter, (name, label_key(labels)))

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(Gauge, (name, label_key(labels)))

    def histogram(
        self, name: str, buckets: Sequence[float] = POW2_BUCKETS, **labels: object
    ) -> Histogram:
        return self._get(Histogram, (name, label_key(labels)), buckets)

    def timeseries(
        self,
        name: str,
        mode: str = "sample",
        window: float = DEFAULT_WINDOW,
        capacity: int = DEFAULT_CAPACITY,
        norm: float = 1.0,
        **labels: object,
    ) -> TimeSeries:
        return self._get(
            TimeSeries, (name, label_key(labels)), mode, window, capacity, norm
        )

    def digest(
        self, name: str, gamma: float = DEFAULT_GAMMA, **labels: object
    ) -> QuantileDigest:
        return self._get(QuantileDigest, (name, label_key(labels)), gamma)

    def _get(self, cls, key: tuple[str, LabelKey], *args):
        """Get-or-create the live ``cls`` at ``key``; ``args`` follow
        ``(name, labels)`` in its constructor and only apply on create."""
        inst = self._metrics.get(key)
        if inst is None:
            inst = cls(key[0], key[1], *args)
            self._metrics[key] = inst
        elif not isinstance(inst, cls):
            if type(inst) is _Kept:
                inst = self._realize(key, inst)
            if not isinstance(inst, cls):
                raise ObsError(
                    f"metric {key[0]!r} already registered as a {inst.kind}"
                )
        return inst

    # -- merging serialized instruments --------------------------------------

    def merge_doc(
        self, kind: str, doc: Mapping, labels: Mapping[str, object]
    ) -> None:
        """Fold one serialized instrument (``as_dict`` form) of ``kind``
        into the registry under ``labels`` (which replace the document's
        own).

        The merge rules: counters and histogram buckets sum, gauges are
        last-wins, series rescale to the coarser window and add, digests
        add; kind and bucket mismatches raise
        :class:`~repro.errors.ObsError`. A key the registry has not seen
        keeps the document itself, normalized to the bytes the fold
        would write (with no per-point work) and checked as the fold
        checks it (a document the checks reject, or a series holding
        more points than its capacity, takes the fold instead). A second
        document on the key, or an accessor asking for it, converts the
        kept document through the fold into a live instrument.

        Precondition: the nested ``points`` (series) and ``buckets``
        (digest) maps are in ``as_dict`` form — canonical integer-string
        keys, float windows, integer counts — as every
        :func:`~repro.obs.merge.job_snapshot_json` text is. They are kept
        by reference and emitted by :meth:`snapshot` as they are; the
        registry never mutates them, and the caller must not either.
        """
        key = (doc["name"], label_key(labels))
        inst = self._metrics.get(key)
        if inst is None:
            kept = _KEEP[kind](key, doc)
            if kept is not None:
                self._metrics[key] = _Kept(kind, kept)
                return
        elif type(inst) is _Kept:
            self._realize(key, inst)
        _FOLD[kind](self, key, doc)

    def realize(self) -> None:
        """Convert every kept document into a live instrument (snapshot
        bytes do not change; the conformance fuzz checks exactly that)."""
        for key, inst in list(self._metrics.items()):
            if type(inst) is _Kept:
                self._realize(key, inst)

    def _realize(self, key: tuple[str, LabelKey], kept: "_Kept"):
        """Replace the kept document at ``key`` by a fresh live
        instrument folded from it; returns that instrument."""
        del self._metrics[key]
        _FOLD[kept.kind](self, key, kept.doc)
        return self._metrics[key]

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def value(self, name: str, **labels: object) -> float:
        """Current value of a counter/gauge (test & report convenience)."""
        key = (name, label_key(labels))
        inst = self._metrics.get(key)
        if inst is None:
            raise ObsError(f"no metric {name!r} with labels {labels!r}")
        if type(inst) is _Kept:
            inst = self._realize(key, inst)
        if not isinstance(inst, (Counter, Gauge)):
            raise ObsError(f"{name!r} is a {inst.kind}; read its structure")
        return inst.value

    def snapshot(self) -> dict:
        """Deterministic, JSON-ready dump of every instrument.

        Instruments are sorted by (name, labels), so two registries fed
        the same observations serialize identically regardless of
        creation order. Kept documents (see :meth:`merge_doc`) are
        emitted as they are, shared with the registry: treat the result
        as read-only.
        """
        out: dict[str, list] = {plural: [] for plural in KIND_PLURALS.values()}
        # Keys are unique: ordering by the key alone skips comparing
        # (key, instrument) pairs, which tests the keys for equality
        # before ordering them.
        for _, inst in sorted(self._metrics.items(), key=itemgetter(0)):
            out[KIND_PLURALS[inst.kind]].append(inst.as_dict())
        return out


class _Kept:
    """A merged instrument still in its serialized form (see
    :meth:`MetricsRegistry.merge_doc`)."""

    __slots__ = ("kind", "doc")

    def __init__(self, kind: str, doc: dict) -> None:
        self.kind = kind
        self.doc = doc

    def as_dict(self) -> dict:
        return self.doc


# -- the fold: a serialized instrument into a live one ------------------------


def _fold_counter(reg: MetricsRegistry, key, m: Mapping) -> None:
    reg._get(Counter, key).inc(float(m["value"]))


def _fold_gauge(reg: MetricsRegistry, key, m: Mapping) -> None:
    reg._get(Gauge, key).set(float(m["value"]))


def _fold_histogram(reg: MetricsRegistry, key, m: Mapping) -> None:
    bounds = tuple(float(b["le"]) for b in m["buckets"] if b["le"] != "+Inf")
    hist = reg._get(Histogram, key, bounds or (1.0,))
    if hist.bounds != (bounds or (1.0,)):
        raise ObsError(
            f"histogram {key[0]!r} bucket mismatch while merging: "
            f"{hist.bounds} vs {bounds}"
        )
    counts = [int(b["count"]) for b in m["buckets"]]
    if len(counts) != len(hist.counts):
        raise ObsError(
            f"histogram {key[0]!r} has {len(counts)} buckets, "
            f"expected {len(hist.counts)}"
        )
    for i, c in enumerate(counts):
        hist.counts[i] += c
    hist.sum += float(m["sum"])
    hist.count += int(m["count"])


def _series_params(m: Mapping) -> tuple[str, float, int, float]:
    """The ``mode, window, capacity, norm`` a merged series takes from
    its document."""
    return (
        m.get("mode", "sample"),
        float(m.get("window0", m.get("window", 1.0))),
        int(m.get("capacity", 256)),
        float(m.get("norm", 1.0)),
    )


def _fold_series(reg: MetricsRegistry, key, m: Mapping) -> None:
    reg._get(TimeSeries, key, *_series_params(m)).merge_doc(m)


def _fold_digest(reg: MetricsRegistry, key, m: Mapping) -> None:
    reg._get(QuantileDigest, key, float(m["gamma"])).merge_doc(m)


# -- the keep: a first-seen document as the fold would write it ---------------
#
# Each returns the normalized document, or None when the fold would
# raise or reshape it (the caller then runs the fold, which does).


def _keep_counter(key, m: Mapping) -> dict | None:
    value = float(m["value"])
    if value < 0:
        return None
    return {"name": key[0], "labels": dict(key[1]), "value": 0.0 + value}


def _keep_gauge(key, m: Mapping) -> dict | None:
    return {"name": key[0], "labels": dict(key[1]), "value": float(m["value"])}


def _keep_histogram(key, m: Mapping) -> dict | None:
    buckets = m["buckets"]
    bounds = tuple(float(b["le"]) for b in buckets if b["le"] != "+Inf")
    if (
        not bounds
        or len(buckets) != len(bounds) + 1
        or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))
    ):
        return None
    return {
        "name": key[0],
        "labels": dict(key[1]),
        "buckets": [
            {"le": le, "count": int(b["count"])}
            for le, b in zip(bounds + ("+Inf",), buckets)
        ],
        "sum": 0.0 + float(m["sum"]),
        "count": int(m["count"]),
    }


def _keep_series(key, m: Mapping) -> dict | None:
    mode, window0, capacity, norm = _series_params(m)
    level = int(m.get("level", 0))
    points = m.get("points") or {}
    if (
        m.get("mode") not in ("sample", "busy")
        or not window0 > 0.0
        or capacity < 2
        or norm != norm  # NaN: the fold's norm check rejects it
        or level < 0
        or len(points) > capacity
    ):
        return None
    return {
        "name": key[0],
        "labels": dict(key[1]),
        "mode": mode,
        "window0": window0,
        "window": window0 * 2.0 ** level,
        "level": level,
        "capacity": capacity,
        "norm": norm,
        "points": points,
    }


def _keep_digest(key, m: Mapping) -> dict | None:
    gamma = float(m["gamma"])
    count = int(m.get("count", 0))
    if not gamma > 1.0 or count < 0:
        return None
    return {
        "name": key[0],
        "labels": dict(key[1]),
        "gamma": gamma,
        "zero": int(m.get("zero", 0)),
        "buckets": m.get("buckets") or {},
        "sum": 0.0 + float(m.get("sum", 0.0)),
        "count": count,
        # Folded against an empty digest's +/-inf extrema, as the fold
        # does (a NaN extremum stays infinite there too).
        "min": min(math.inf, float(m["min"])) if count else 0.0,
        "max": max(-math.inf, float(m["max"])) if count else 0.0,
    }


_FOLD = {
    "counter": _fold_counter,
    "gauge": _fold_gauge,
    "histogram": _fold_histogram,
    "timeseries": _fold_series,
    "digest": _fold_digest,
}

_KEEP = {
    "counter": _keep_counter,
    "gauge": _keep_gauge,
    "histogram": _keep_histogram,
    "timeseries": _keep_series,
    "digest": _keep_digest,
}


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram/timeseries/digest."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass

    def observe(self, *args: float) -> None:
        pass

    def observe_span(self, t0: float, t1: float) -> None:
        pass

    def observe_many(self, *columns) -> None:
        pass

    def observe_spans(self, t0s, t1s) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """The zero-overhead sink: every accessor returns a shared no-op.

    ``enabled`` is False so hot paths can skip metric *computation*
    entirely (building label dicts, iterating ranges) with one check.
    """

    enabled = False

    def counter(self, name: str, **labels: object):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: object):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def histogram(self, name, buckets=POW2_BUCKETS, **labels):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def timeseries(self, name, **kwargs):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def digest(self, name, gamma=DEFAULT_GAMMA, **labels):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def merge_doc(self, kind, doc, labels) -> None:  # type: ignore[override]
        pass

    def snapshot(self) -> dict:
        return {plural: [] for plural in KIND_PLURALS.values()}
