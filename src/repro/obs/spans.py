"""Causal span tracing: the hierarchical span model of one run.

The metrics registry answers *how much*; spans answer *why*. A
:class:`SpanRecorder` captures one run as a deterministic tree of timed
spans — program → serial/loop → phase[sampling/steady/endgame] →
chunk, plus per-thread wake/dispatch/idle spans, worker-lifetime spans
from the real-thread team, and fault windows from the sim fault engine —
linked by parent/child containment and explicit causal edges (steal
victim→thief, fault→resample; fetch-and-add ordering is derivable from
the chunk spans' dispatch order and deliberately not materialized).

Design constraints, in priority order:

* **Determinism.** Span ids are content-derived hierarchical paths
  (``loop:ep.work#0/t3/c5``), never object identities, and
  :meth:`SpanRecorder.as_doc` canonically sorts spans and edges. Loop
  spans come from one projection of the engines' dispatch log
  (:func:`repro.backends.common.publish_log`), so every simulated
  backend serializes byte-identical documents, and merged fleet
  snapshots inherit the jobs=1 ≡ jobs=N equality contract.
* **Exact tiling.** Within a runtime-scheduled loop, each thread's
  spans tile its busy window ``[entry, finish]`` with no gaps: wake →
  (dispatch → compute)* → final empty take, then the barrier idle span.
  The critical-path extractor (:mod:`repro.obs.critpath`) walks this
  tiling backward from program completion, so the path's category
  attribution sums to the makespan exactly.
* **Zero cost when off.** The recorder is an opt-in third member of
  :class:`~repro.obs.Observability` (``spans=None`` by default); every
  emission site gates on one ``is not None`` check.

Categories carried by spans (``cat``):

``compute-big``/``compute-small``
    chunk compute time, split by the executing core's type (the fastest
    core type of the platform is "big", everything else "small").
``dispatch``
    runtime overhead: wake/loop-start cost, scheduler calls, pool
    serialization, the final empty take.
``sampling``
    dispatch overhead inside the loop's sampling phase — the price of
    learning SF at runtime (reclassified from ``dispatch`` at loop end
    using the decision log's SF publication times).
``idle``
    barrier waits and workers idling through serial phases.
``serial``
    the master thread executing a serial phase.
``fault``
    fault-engine windows (throttle/offline/stall/spike); annotation
    spans, not part of the busy tiling.
``worker``
    real-thread worker lifetimes (wall clock; real backend only).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

#: Span document schema identifier.
SPANS_SCHEMA = "repro.obs.spans/v1"

#: Categories that participate in the busy-time tiling (everything a
#: critical path may traverse). Structural spans (program/loop/phase)
#: and annotations (fault/worker) are excluded.
TILING_CATS = frozenset(
    {"compute-big", "compute-small", "dispatch", "sampling", "idle",
     "serial", "stall"}
)

#: Causal edge kinds with explicit materialization.
EDGE_KINDS = ("steal", "fault_resample")


@dataclass
class Span:
    """One timed interval in the run's span tree."""

    span_id: str
    parent: str | None
    name: str
    cat: str
    t0: float
    t1: float
    tid: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> dict:
        doc = {
            "id": self.span_id,
            "parent": self.parent,
            "name": self.name,
            "cat": self.cat,
            "t0": self.t0,
            "t1": self.t1,
            "tid": self.tid,
        }
        if self.attrs:
            doc["attrs"] = {k: self.attrs[k] for k in sorted(self.attrs)}
        return doc


@dataclass(frozen=True)
class CausalEdge:
    """A causal (not containment) link between two spans."""

    src: str
    dst: str
    kind: str
    t: float

    def as_dict(self) -> dict:
        return {"src": self.src, "dst": self.dst, "kind": self.kind,
                "t": self.t}


class SpanRecorder:
    """Collects one run's spans; opt-in member of ``Observability``.

    Attributes:
        context: free-form trace-context label (propagated through fleet
            ``JobSpec.trace_context`` so span-capturing jobs occupy
            distinct cache entries).
        spans: recorded spans, in emission order (canonicalized by
            :meth:`as_doc`).
        edges: explicit causal edges.
    """

    enabled = True

    def __init__(self, context: str = "trace") -> None:
        self.context = context
        self.spans: list[Span] = []
        self.edges: list[CausalEdge] = []
        self._loop_inv: dict[str, int] = {}
        self._serial_inv: dict[str, int] = {}
        self._program: str | None = None
        self._current_loop: str | None = None
        self._last_loop: str | None = None
        #: (loop_path, tid) -> next chunk ordinal; gives chunk spans
        #: backend-stable ids (per-tid dispatch order).
        self._chunk_seq: dict[tuple[str, int], int] = {}
        #: loop_path -> index of first span emitted for that loop.
        self._loop_mark: dict[str, int] = {}

    # -- program level ------------------------------------------------------

    @property
    def current_loop(self) -> str | None:
        """The loop span currently open (fault engine parents here)."""
        return self._current_loop

    def begin_program(self, name: str) -> str:
        self._program = f"program:{name}"
        return self._program

    def end_program(self, t0: float, t1: float) -> None:
        if self._program is None:
            return
        self.spans.append(
            Span(self._program, None, self._program.split(":", 1)[1],
                 "program", t0, t1, -1)
        )
        self._program = None

    def record_serial(
        self, phase_name: str, t0: float, t1: float, n_threads: int
    ) -> None:
        """Master executes the phase (cat ``serial``); workers idle."""
        k = self._serial_inv.get(phase_name, 0)
        self._serial_inv[phase_name] = k + 1
        base = f"serial:{phase_name}#{k}"
        if self._program is not None:
            base = f"{self._program}/{base}"
        parent = self._program
        self.spans.append(Span(base, parent, phase_name, "serial", t0, t1, 0))
        for tid in range(1, n_threads):
            self.spans.append(
                Span(f"{base}/t{tid}", base, phase_name, "idle", t0, t1, tid)
            )

    def record_barrier(self, tid: int, t0: float, t1: float) -> None:
        """Barrier wait of one thread after the most recent loop.

        The barrier interval extends past the loop span (it includes the
        barrier overhead charged after loop completion), so the span is
        parented to the program, not the loop.
        """
        loop = self._last_loop
        if loop is None:
            return
        self.spans.append(
            Span(f"{loop}/t{tid}/barrier", self._program, "barrier", "idle",
                 t0, t1, tid)
        )

    # -- loop level (backends) ----------------------------------------------

    def begin_loop(self, loop_name: str) -> str:
        k = self._loop_inv.get(loop_name, 0)
        self._loop_inv[loop_name] = k + 1
        path = f"loop:{loop_name}#{k}"
        if self._program is not None:
            path = f"{self._program}/{path}"
        self._current_loop = path
        self._loop_mark[path] = len(self.spans)
        return path

    def record_wake(self, loop: str, tid: int, t0: float, t1: float) -> None:
        self.spans.append(
            Span(f"{loop}/t{tid}/wake", loop, "wake", "dispatch", t0, t1, tid)
        )

    def record_dispatches(
        self,
        loop: str,
        tid: int,
        t_dispatch: Sequence[float],
        t_overhead_end: Sequence[float],
        t_done: Sequence[float],
        los: Sequence[int],
        his: Sequence[int],
        big: bool,
    ) -> None:
        """One thread's dispatches, in dispatch order.

        ``lo < 0`` marks an empty take (one ``empty_take`` span);
        anything else is a dispatch span plus a compute span, except for
        a range a fault cut before it computed. Empty takes share the
        per-(loop, tid) ordinal sequence with chunks, so a thread's
        final (or, under faults, repeated) empty take slots into its
        dispatch order.
        """
        key = (loop, tid)
        k = self._chunk_seq.get(key, 0)
        base = f"{loop}/t{tid}"
        cat = "compute-big" if big else "compute-small"
        append = self.spans.append
        for t0, t_oe, t1, lo, hi in zip(
            t_dispatch, t_overhead_end, t_done, los, his
        ):
            if lo < 0:
                append(
                    Span(f"{base}/e{k}", loop, "empty_take", "dispatch",
                         t0, t1, tid)
                )
            else:
                append(
                    Span(f"{base}/d{k}", loop, "dispatch", "dispatch",
                         t0, t_oe, tid, {"lo": lo, "hi": hi})
                )
                if t1 > t_oe or hi > lo:
                    append(
                        Span(f"{base}/c{k}", loop, "chunk", cat,
                             t_oe, t1, tid, {"lo": lo, "hi": hi})
                    )
            k += 1
        self._chunk_seq[key] = k

    def end_loop(
        self,
        loop: str,
        t0: float,
        t1: float,
        decisions: Iterable[Mapping] = (),
        loop_name: str | None = None,
    ) -> None:
        """Close a loop: emit the loop span, derive phase spans from the
        run's decision-record slice, and reclassify sampling overhead.

        Phases: *sampling* ends at the last SF publication this run (if
        any); *endgame* starts at the first endgame/steal/drain decision
        after sampling; *steady* is the remainder. Dispatch spans whose
        interval falls inside the sampling window are reclassified to
        cat ``sampling`` — the runtime price of learning SF.
        """
        from repro.obs.decisions import SF_EVENTS

        name = loop_name if loop_name is not None else loop.rsplit(
            ":", 1)[-1].rsplit("#", 1)[0]
        self.spans.append(
            Span(loop, self._program, name, "loop", t0, t1, -1)
        )
        sampling_end = None
        endgame_start = None
        for rec in decisions:
            if rec.get("loop") != name:
                continue
            ev = rec.get("event")
            t = rec.get("t")
            if t is None:
                continue
            t = float(t)
            if ev in SF_EVENTS and rec.get("sf"):
                if sampling_end is None or t > sampling_end:
                    sampling_end = t
            elif ev in ("endgame", "steal", "wait_steal", "drain", "serve_pool"):
                if endgame_start is None or t < endgame_start:
                    endgame_start = t
        bounds: list[tuple[str, float, float]] = []
        lo = t0
        if sampling_end is not None and t0 < sampling_end < t1:
            bounds.append(("sampling", t0, sampling_end))
            lo = sampling_end
        if endgame_start is not None and lo < endgame_start < t1:
            bounds.append(("steady", lo, endgame_start))
            bounds.append(("endgame", endgame_start, t1))
        elif lo < t1:
            bounds.append(("steady", lo, t1))
        phase_ids = []
        for pname, p0, p1 in bounds:
            pid = f"{loop}/phase:{pname}"
            phase_ids.append((pid, p0, p1, pname))
            self.spans.append(Span(pid, loop, pname, "phase", p0, p1, -1))
        # Reparent chunk/dispatch spans into their containing phase and
        # reclassify sampling-phase dispatch overhead. A span straddling
        # a phase boundary stays a direct child of the loop.
        if phase_ids:
            mark = self._loop_mark.get(loop, 0)
            for span in self.spans[mark:]:
                if span.parent != loop or span.cat not in (
                    "dispatch", "compute-big", "compute-small"
                ):
                    continue
                for pid, p0, p1, pname in phase_ids:
                    if p0 <= span.t0 and span.t1 <= p1:
                        span.parent = pid
                        if pname == "sampling" and span.cat == "dispatch":
                            span.cat = "sampling"
                        break
        # Steal causal edges, derived from the decision slice: the
        # victim's range feeds the thief's next chunks.
        for rec in decisions:
            if rec.get("event") != "steal" or rec.get("loop") != name:
                continue
            victim = rec.get("victim")
            thief = rec.get("tid")
            if victim is None or thief is None:
                continue
            self.edges.append(
                CausalEdge(
                    f"{loop}/t{victim}", f"{loop}/t{thief}", "steal",
                    float(rec.get("t", t1)),
                )
            )
        self._last_loop = loop
        self._current_loop = None

    def record_inline_loop(
        self,
        loop: str,
        t0: float,
        finishes: Sequence[float],
        bigs: Sequence[bool],
        loop_name: str,
    ) -> None:
        """Inline-static lowering: one compute span per thread, no
        dispatches (vanilla GCC's clause-less loop)."""
        self.spans.append(
            Span(loop, self._program, loop_name, "loop",
                 t0, max(finishes), -1)
        )
        for tid, t1 in enumerate(finishes):
            self.spans.append(
                Span(f"{loop}/t{tid}/c0", loop, "chunk",
                     "compute-big" if bigs[tid] else "compute-small",
                     t0, t1, tid)
            )
        self._last_loop = loop
        self._current_loop = None

    # -- faults & workers ---------------------------------------------------

    def record_fault(
        self, name: str, t0: float, t1: float,
        tid: int = -1, **attrs: object,
    ) -> str:
        """A fault-engine window, parented to the open loop span."""
        loop = self._current_loop or self._last_loop
        prefix = f"{loop}/" if loop else ""
        k = sum(
            1 for s in self.spans
            if s.cat == "fault" and s.name == name
        )
        sid = f"{prefix}fault:{name}#{k}"
        self.spans.append(
            Span(sid, loop, name, "fault", t0, t1, tid, dict(attrs))
        )
        return sid

    def record_worker(
        self, tid: int, t0: float, t1: float, **attrs: object
    ) -> None:
        """Real-thread worker lifetime (wall-clock seconds)."""
        loop = self._current_loop or self._last_loop
        prefix = f"{loop}/" if loop else ""
        k = sum(1 for s in self.spans if s.cat == "worker" and s.tid == tid)
        self.spans.append(
            Span(f"{prefix}worker:t{tid}#{k}", loop, f"worker-{tid}",
                 "worker", t0, t1, tid, dict(attrs))
        )

    def edge(self, src: str, dst: str, kind: str, t: float) -> None:
        self.edges.append(CausalEdge(src, dst, kind, t))

    # -- serialization ------------------------------------------------------

    def as_doc(self) -> dict:
        """Canonical document: spans sorted by (t0, t1, id), edges by
        (t, kind, src, dst). Emission order (loop spans land per thread
        at loop end, fault spans as they fire) never reaches the
        wire."""
        return {
            "schema": SPANS_SCHEMA,
            "context": self.context,
            "spans": [
                s.as_dict()
                for s in sorted(
                    self.spans, key=lambda s: (s.t0, s.t1, s.span_id)
                )
            ],
            "edges": [
                e.as_dict()
                for e in sorted(
                    self.edges, key=lambda e: (e.t, e.kind, e.src, e.dst)
                )
            ],
        }

    def as_json(self) -> str:
        return json.dumps(self.as_doc(), sort_keys=True,
                          separators=(",", ":"))


def load_span_doc(doc: Mapping) -> list[Span]:
    """Rehydrate spans from a serialized document."""
    return [
        Span(
            span_id=str(s["id"]),
            parent=s.get("parent"),
            name=str(s.get("name", "")),
            cat=str(s.get("cat", "")),
            t0=float(s["t0"]),
            t1=float(s["t1"]),
            tid=int(s.get("tid", -1)),
            attrs=dict(s.get("attrs") or {}),
        )
        for s in doc.get("spans", [])
    ]


def span_violations(doc: Mapping, eps: float = 1e-9) -> list[str]:
    """Well-formedness invariants over one span document.

    * every non-null parent id names a span in the document;
    * parent chains terminate (no cycles);
    * every child interval nests inside its parent's (within ``eps``);
    * every span has ``t1 >= t0``;
    * at most one ``program`` root; structural roots are program or
      loop spans only.
    """
    spans = load_span_doc(doc)
    out: list[str] = []
    by_id: dict[str, Span] = {}
    for s in spans:
        if s.span_id in by_id:
            out.append(f"spans: duplicate span id {s.span_id!r}")
        by_id[s.span_id] = s
    programs = [s for s in spans if s.cat == "program"]
    if len(programs) > 1:
        out.append(
            f"spans: {len(programs)} program roots (expected at most 1)"
        )
    for s in spans:
        if s.t1 < s.t0 - eps:
            out.append(
                f"spans: {s.span_id} ends before it starts "
                f"({s.t0!r} -> {s.t1!r})"
            )
        if s.parent is None:
            if s.cat not in ("program", "loop", "fault", "worker"):
                out.append(
                    f"spans: root {s.span_id} has category {s.cat!r} "
                    "(roots must be program/loop spans)"
                )
            continue
        parent = by_id.get(s.parent)
        if parent is None:
            out.append(f"spans: {s.span_id} has unknown parent {s.parent!r}")
            continue
        if s.cat in ("fault", "worker"):
            continue  # annotations may extend past the loop window
        if s.t0 < parent.t0 - eps or s.t1 > parent.t1 + eps:
            out.append(
                f"spans: {s.span_id} [{s.t0!r}, {s.t1!r}] escapes parent "
                f"{parent.span_id} [{parent.t0!r}, {parent.t1!r}]"
            )
    # Cycle check: walk every parent chain with a visited set.
    for s in spans:
        seen = set()
        cur = s
        while cur.parent is not None:
            if cur.parent in seen:
                out.append(f"spans: parent cycle through {cur.parent!r}")
                break
            seen.add(cur.parent)
            nxt = by_id.get(cur.parent)
            if nxt is None:
                break
            cur = nxt
    return out
