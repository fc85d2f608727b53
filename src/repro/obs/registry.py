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

The cross-process merge of :mod:`repro.obs.merge` lands here in two
forms. :meth:`MetricsRegistry.merge_doc` folds one *decoded* instrument
document into a live instrument. :meth:`MetricsRegistry.keep_texts`
holds instruments as the canonical JSON text a fleet worker wrote: a
key seen for the first time keeps its text, which
:meth:`MetricsRegistry.snapshot_fragments` writes back as it is, and
the text becomes a live instrument (decoded and folded) only when a
second instrument lands on the same key or an accessor asks for it.

Every instrument also has a *text key*, :func:`text_key`: its name and
label pairs joined with NUL. Text keys sort exactly like the
``(name, labels)`` tuples, so snapshots order instruments by them; a
name, label key or label value holding a NUL is rejected.
"""

from __future__ import annotations

import bisect
import json
from typing import Iterable, Mapping, Sequence

from repro.errors import ObsError
from repro.obs.snapshot import canonical_json, json_array_fragments
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

#: The snapshot's kinds in canonical (sorted) key order.
_PLURAL_ORDER = tuple(sorted(KIND_PLURALS.values()))

#: Default histogram buckets: powers of two covering chunk sizes from a
#: single iteration up to the largest AID allotments seen in practice.
POW2_BUCKETS = tuple(float(2**i) for i in range(13))  # 1 .. 4096


def label_key(labels: Mapping[str, object]) -> LabelKey:
    """Canonical, hashable, deterministic form of a label set."""
    items = [(k, str(v)) for k, v in labels.items()]
    if len(items) > 1:
        items.sort()
    return tuple(items)


def text_key(key: tuple[str, LabelKey]) -> str:
    """The ``(name, labels)`` key as one string: the name and every
    label key and value, joined with NUL.

    NUL sorts before every other character, so text keys sort exactly
    like the tuples as long as no part holds a NUL; one that does
    raises :class:`~repro.errors.ObsError`.
    """
    name, labels = key
    text = "\0".join([name, *[part for pair in labels for part in pair]])
    if text.count("\0") != 2 * len(labels):
        raise ObsError(
            f"metric {name!r} {dict(labels)!r}: names and labels must not "
            "contain NUL"
        )
    return text


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
        # Live instruments by (name, labels), and every instrument, live
        # or a kept ``(kind, text)`` pair, by its text key.
        self._metrics: dict[tuple[str, LabelKey], object] = {}
        self._entries: dict[str, object] = {}

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
        ``(name, labels)`` in its constructor and only apply on create.
        A text kept at ``key`` becomes the live instrument first."""
        inst = self._metrics.get(key)
        if inst is None:
            tkey = text_key(key)
            kept = self._entries.get(tkey)
            if kept is None:
                inst = cls(key[0], key[1], *args)
                self._metrics[key] = self._entries[tkey] = inst
                return inst
            inst = self._realize(tkey, kept)
        if not isinstance(inst, cls):
            raise ObsError(
                f"metric {key[0]!r} already registered as a {inst.kind}"
            )
        return inst

    # -- merging serialized instruments --------------------------------------

    def merge_doc(
        self, kind: str, doc: Mapping, labels: Mapping[str, object]
    ) -> None:
        """Fold one decoded instrument document (``as_dict`` form) of
        ``kind`` into the registry under ``labels`` (which replace the
        document's own).

        The merge rules: counters and histogram buckets sum, gauges are
        last-wins, series rescale to the coarser window and add, digests
        add; kind and bucket mismatches raise
        :class:`~repro.errors.ObsError`. The document always folds into
        a live instrument (a text kept at the key is folded first), and
        the registry keeps no reference to it.
        """
        _FOLD[kind](self, (doc["name"], label_key(labels)), doc)

    def keep_texts(
        self, kind: str, keys: Iterable[str], texts: Iterable[str]
    ) -> None:
        """Hold instruments of ``kind`` as their canonical JSON texts.

        Each text is one instrument document (``as_dict`` form, labels
        final) as :func:`~repro.obs.merge.job_snapshot_json` writes it,
        and the matching entry of ``keys`` its :func:`text_key`. A key
        the registry has not seen keeps the text as it is:
        :meth:`snapshot_fragments` writes it back unchanged and
        :meth:`snapshot` decodes it. A key already held, live or as
        text, decodes the incoming document and folds it in through
        :meth:`merge_doc`.
        """
        entries = self._entries
        for tkey, text in zip(keys, texts):
            if tkey in entries:
                doc = json.loads(text)
                _FOLD[kind](self, _filed_key(tkey, doc), doc)
            else:
                entries[tkey] = (kind, text)

    def realize(self) -> None:
        """Convert every kept text into a live instrument (snapshot
        bytes do not change; the conformance fuzz checks exactly that)."""
        for tkey, inst in list(self._entries.items()):
            if type(inst) is tuple:
                self._realize(tkey, inst)

    def _realize(self, tkey: str, kept: tuple[str, str]):
        """Replace the text kept under ``tkey`` by a fresh live
        instrument folded from its decoded document; returns that
        instrument."""
        kind, text = kept
        del self._entries[tkey]
        doc = json.loads(text)
        key = _filed_key(tkey, doc)
        _FOLD[kind](self, key, doc)
        return self._metrics[key]

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def value(self, name: str, **labels: object) -> float:
        """Current value of a counter/gauge (test & report convenience)."""
        key = (name, label_key(labels))
        inst = self._metrics.get(key)
        if inst is None:
            tkey = text_key(key)
            kept = self._entries.get(tkey)
            if kept is None:
                raise ObsError(f"no metric {name!r} with labels {labels!r}")
            inst = self._realize(tkey, kept)
        if not isinstance(inst, (Counter, Gauge)):
            raise ObsError(f"{name!r} is a {inst.kind}; read its structure")
        return inst.value

    def snapshot(self) -> dict:
        """Deterministic, JSON-ready dump of every instrument.

        Instruments are sorted by (name, labels), so two registries fed
        the same observations serialize identically regardless of
        creation order. Kept texts are decoded; every call builds new
        documents.
        """
        out: dict[str, list] = {plural: [] for plural in KIND_PLURALS.values()}
        entries = self._entries
        for tkey in sorted(entries):
            inst = entries[tkey]
            if type(inst) is tuple:
                out[KIND_PLURALS[inst[0]]].append(json.loads(inst[1]))
            else:
                out[KIND_PLURALS[inst.kind]].append(inst.as_dict())
        return out

    def snapshot_fragments(self) -> list[str]:
        """:meth:`snapshot` as canonical JSON, in pieces:
        ``"".join(fragments) == canonical_json(self.snapshot())``.

        A kept text is a fragment as it is, and a live instrument the
        canonical JSON of its ``as_dict``. The caller joins the
        fragments once, with whatever surrounds them, so no part of a
        large snapshot is copied twice.
        """
        texts: dict[str, list[str]] = {plural: [] for plural in _PLURAL_ORDER}
        entries = self._entries
        for tkey in sorted(entries):
            inst = entries[tkey]
            if type(inst) is tuple:
                texts[KIND_PLURALS[inst[0]]].append(inst[1])
            else:
                texts[KIND_PLURALS[inst.kind]].append(
                    canonical_json(inst.as_dict())
                )
        out: list[str] = []
        sep = '{"'
        for plural, items in texts.items():
            out.append(f'{sep}{plural}":')
            out += json_array_fragments(items)
            sep = ',"'
        out.append("}")
        return out


def _filed_key(tkey: str, doc: Mapping) -> tuple[str, LabelKey]:
    """The ``(name, labels)`` key of a decoded instrument text, which
    must be the key ``tkey`` names."""
    key = (doc["name"], label_key(doc["labels"]))
    if text_key(key) != tkey:
        raise ObsError(f"instrument text filed under {tkey!r} holds {key!r}")
    return key


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


_FOLD = {
    "counter": _fold_counter,
    "gauge": _fold_gauge,
    "histogram": _fold_histogram,
    "timeseries": _fold_series,
    "digest": _fold_digest,
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

    def observe_many(self, values) -> None:
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

    def keep_texts(self, kind, keys, texts) -> None:  # type: ignore[override]
        pass

    def snapshot(self) -> dict:
        return {plural: [] for plural in KIND_PLURALS.values()}
