"""The invariant catalog the schedule-conformance oracle runs.

Each invariant is a pure function over a recorded
:class:`~repro.check.recording.CheckContext` returning
:class:`Violation` objects (empty list = holds). They fall into three
groups, mirroring what the paper's correctness argument rests on:

**Work-share semantics** (libgomp Sec. 4.2):

* ``workshare-replay`` — replaying the fetch-and-add log reproduces the
  pool pointer exactly: each ``take`` observes the pointer the previous
  one left, advances it by the requested size, and its granted range is
  the clamp of ``[before, before+requested)`` against ``end``.
* ``exact-once`` — the dispatched ranges partition ``[0, NI)``: every
  iteration executed by exactly one worker.
* ``dispatch-pool-consistency`` — every dispatched iteration was first
  removed from the shared pool (AID-steal's local serves live inside its
  one ``take_all`` range).

**Execution sanity**:

* ``clock-monotone`` — each worker's dispatch timestamps never go
  backwards.
* ``result-consistency`` — the reported per-thread iteration counts and
  range list agree with the ground-truth dispatch log.
* ``state-machine`` — per-thread scheduler states follow the legal
  transitions of the paper's Figs. 3/5 automata and end in ``DONE``.
* ``sampling-single`` — no thread samples more than one chunk per
  scheduler instance.

**Per-variant AID properties**:

* ``aid-targets`` — a published big/small split exactly matches the
  SF-derived partition ``aid_targets(frac*NI, SF, type_counts)``, and
  each AID allotment asks for ``target - delta``.
* ``one-shot-phase-order`` — drain/dynamic-tail steals only after the
  one-shot targets are published (AID-hybrid's dynamic phase cannot
  start before the static region is distributed).
* ``dynamic-endgame`` — AID-dynamic's switch to dynamic(m) happens at or
  below the ``M*NT`` threshold and no phase joins follow it.
* ``steal-partition`` — AID-steal's partition is contiguous and
  in-bounds, and every steal splits the victim's range exactly in two.

**Fault recovery** (active only when fault records are present):

* ``fault-requeue-conservation`` — iterations served from the
  work-share requeue deque were first returned by a fault preempt or a
  watchdog redistribution, at most as often as they were returned.
* ``offline-no-dispatch`` — a worker parked by a core-offline fault
  takes no new chunk inside its offline window.
* ``watchdog-redistributes`` — with the watchdog armed, a stall well
  past the timeout must be answered by a redistribution (this is the
  invariant that catches a disabled/broken watchdog).

Fault records also *relax* the base catalog exactly where recovery is
legal: requeued takes are excluded from the pool-pointer replay,
duplicate execution is allowed inside watchdog-redistributed ranges
(exact-once and the result count weaken to coverage), the state
machines admit the restart edges resampling introduces, and a parked
worker may end in a non-DONE state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.sched import aid_common as ac
from repro.sched.aid_dynamic import ENDGAME
from repro.sched.aid_steal import SERVING
from repro.check.recording import CheckContext

#: Cap on violations reported per invariant (the rest are summarized).
_MAX_PER_INVARIANT = 5


@dataclass(frozen=True)
class Violation:
    """One invariant breach, anchored to an event where possible."""

    invariant: str
    message: str
    tid: int | None = None
    seq: int | None = None

    def render(self) -> str:
        where = ""
        if self.tid is not None:
            where += f" tid={self.tid}"
        if self.seq is not None:
            where += f" seq={self.seq}"
        return f"[{self.invariant}]{where}: {self.message}"


@dataclass(frozen=True)
class Invariant:
    """A named, documented entry of the catalog."""

    name: str
    description: str
    check: Callable[[CheckContext], list]


def _cap(name: str, violations: list[Violation]) -> list[Violation]:
    if len(violations) <= _MAX_PER_INVARIANT:
        return violations
    kept = violations[:_MAX_PER_INVARIANT]
    kept.append(
        Violation(name, f"... and {len(violations) - _MAX_PER_INVARIANT} more")
    )
    return kept


# -- work-share semantics -----------------------------------------------------


def check_workshare_replay(obs: CheckContext) -> list[Violation]:
    out: list[Violation] = []
    ni = obs.n_iterations
    if ni is None or not obs.takes:
        return out
    # The fetch-and-add's returned value IS the serialization order, so
    # replay in that order (append order matches it on both backends:
    # scheduler calls never overlap). Takes served from the
    # fault-requeue deque never touch the pool pointer; they are
    # validated by fault-requeue-conservation instead.
    takes = sorted(
        (e for e in obs.takes if not e.requeued), key=lambda e: e.before
    )
    if not takes:
        return out
    pointer = 0
    for ev in takes:
        if ev.before != pointer:
            out.append(
                Violation(
                    "workshare-replay",
                    f"pool pointer is {ev.before} but the preceding takes "
                    f"advanced it to {pointer} (requested={ev.requested})",
                    seq=ev.seq,
                )
            )
            pointer = ev.before  # resynchronize to keep later messages useful
        expected = None
        if ev.before < ni:
            expected = (ev.before, min(ev.before + ev.requested, ni))
        if ev.granted != expected:
            out.append(
                Violation(
                    "workshare-replay",
                    f"take(requested={ev.requested}) at pointer {ev.before} "
                    f"granted {ev.granted}, fetch-and-add semantics give "
                    f"{expected}",
                    seq=ev.seq,
                )
            )
        if ev.granted is not None:
            lo, hi = ev.granted
            if not (0 <= lo < hi <= ni):
                out.append(
                    Violation(
                        "workshare-replay",
                        f"granted range [{lo}, {hi}) outside loop bounds "
                        f"[0, {ni})",
                        seq=ev.seq,
                    )
                )
        pointer += ev.requested
    return _cap("workshare-replay", out)


def _intervals(indices: list[int]) -> str:
    """Compress sorted iteration indices into ``a-b`` interval text."""
    if not indices:
        return "(none)"
    parts: list[str] = []
    start = prev = indices[0]
    for i in indices[1:]:
        if i == prev + 1:
            prev = i
            continue
        parts.append(f"{start}-{prev}" if prev > start else f"{start}")
        start = prev = i
    parts.append(f"{start}-{prev}" if prev > start else f"{start}")
    return ", ".join(parts[:8]) + (" ..." if len(parts) > 8 else "")


def check_exact_once(obs: CheckContext) -> list[Violation]:
    ni = obs.n_iterations
    if ni is None or not obs.dispatches:
        return []
    out: list[Violation] = []
    counts = [0] * ni
    for ev in obs.dispatches:
        if ev.granted is None:
            continue
        lo, hi = ev.granted
        if not (0 <= lo < hi <= ni):
            out.append(
                Violation(
                    "exact-once",
                    f"dispatched range [{lo}, {hi}) outside [0, {ni})",
                    tid=ev.tid,
                    seq=ev.seq,
                )
            )
            continue
        for i in range(lo, hi):
            counts[i] += 1
    # Watchdog redistribution legitimately double-executes: the stalled
    # owner may finish a chunk whose range was already handed back to
    # the survivors. Duplicates are legal only inside those ranges.
    dup_ok = [False] * ni
    for rec in obs.fault_records("watchdog_redistribute"):
        lo, hi = rec["range"]
        for i in range(max(0, lo), min(ni, hi)):
            dup_ok[i] = True
    missed = [i for i, c in enumerate(counts) if c == 0]
    duped = [i for i, c in enumerate(counts) if c > 1 and not dup_ok[i]]
    if missed:
        out.append(
            Violation(
                "exact-once",
                f"{len(missed)} iterations never executed: {_intervals(missed)}",
            )
        )
    if duped:
        out.append(
            Violation(
                "exact-once",
                f"{len(duped)} iterations executed more than once: "
                f"{_intervals(duped)}",
            )
        )
    return _cap("exact-once", out)


def check_dispatch_pool_consistency(obs: CheckContext) -> list[Violation]:
    ni = obs.n_iterations
    if ni is None or not obs.dispatches or not obs.takes:
        return []
    removed = [False] * ni
    for ev in obs.takes:
        if ev.granted is None:
            continue
        lo, hi = ev.granted
        for i in range(max(0, lo), min(ni, hi)):
            removed[i] = True
    out: list[Violation] = []
    for ev in obs.dispatches:
        if ev.granted is None:
            continue
        lo, hi = ev.granted
        bad = [i for i in range(max(0, lo), min(ni, hi)) if not removed[i]]
        if bad:
            out.append(
                Violation(
                    "dispatch-pool-consistency",
                    f"dispatched range [{lo}, {hi}) contains iterations never "
                    f"removed from the pool: {_intervals(bad)}",
                    tid=ev.tid,
                    seq=ev.seq,
                )
            )
        elif lo < 0 or hi > ni:
            out.append(
                Violation(
                    "dispatch-pool-consistency",
                    f"dispatched range [{lo}, {hi}) outside loop bounds "
                    f"[0, {ni})",
                    tid=ev.tid,
                    seq=ev.seq,
                )
            )
    return _cap("dispatch-pool-consistency", out)


# -- execution sanity ---------------------------------------------------------


def check_clock_monotone(obs: CheckContext) -> list[Violation]:
    out: list[Violation] = []
    last: dict[int, float] = {}
    for ev in obs.dispatches:
        prev = last.get(ev.tid)
        if prev is not None and ev.t < prev:
            out.append(
                Violation(
                    "clock-monotone",
                    f"dispatch at t={ev.t} after one at t={prev}",
                    tid=ev.tid,
                    seq=ev.seq,
                )
            )
        last[ev.tid] = ev.t
    return _cap("clock-monotone", out)


def check_result_consistency(obs: CheckContext) -> list[Violation]:
    result = obs.result
    ni = obs.n_iterations
    if result is None or ni is None:
        return []
    out: list[Violation] = []
    # Simulator LoopResult vs real-thread RealLoopStats field names.
    per_tid = getattr(result, "iterations", None)
    if per_tid is None:
        per_tid = getattr(result, "iterations_per_thread", None)
    redistributed = bool(obs.fault_records("watchdog_redistribute"))
    if per_tid is not None:
        # Under watchdog redistribution iterations may legally run twice
        # (exact-once bounds where); the count check weakens to coverage.
        if (sum(per_tid) < ni) if redistributed else (sum(per_tid) != ni):
            out.append(
                Violation(
                    "result-consistency",
                    f"result reports {sum(per_tid)} iterations for a "
                    f"{ni}-iteration loop",
                )
            )
        observed = [0] * len(per_tid)
        for ev in obs.dispatches:
            if ev.granted is not None and 0 <= ev.tid < len(observed):
                observed[ev.tid] += ev.granted[1] - ev.granted[0]
        if obs.dispatches and list(per_tid) != observed:
            out.append(
                Violation(
                    "result-consistency",
                    f"per-thread counts {list(per_tid)} disagree with the "
                    f"dispatch log {observed}",
                )
            )
    ranges = getattr(result, "ranges", None)
    if ranges is not None and obs.dispatches:
        if sorted(ranges) != sorted(obs.executed_ranges()):
            out.append(
                Violation(
                    "result-consistency",
                    "result.ranges disagrees with the dispatch log",
                )
            )
    return _cap("result-consistency", out)


#: Legal state transitions per scheduler label. Keys are source states,
#: values the states one ``next_range`` call may move to. ``START``
#: itself is never recorded — it is the implicit initial state — and no
#: state follows itself: the recorder sees only changes.
_ONE_SHOT_TRANSITIONS = {
    ac.START: {ac.SAMPLING, ac.AID, ac.DONE},
    ac.SAMPLING: {ac.SAMPLING_WAIT, ac.AID, ac.DONE},
    ac.SAMPLING_WAIT: {ac.AID, ac.DONE},
    ac.AID: {ac.DRAIN, ac.DONE},
    ac.DRAIN: {ac.DONE},
    ac.DONE: set(),
}

_DYNAMIC_DISPATCH = {ac.SAMPLING_WAIT, ac.AID, ac.AID_WAIT, ENDGAME, ac.DONE}

TRANSITIONS: dict[str, dict[str, set[str]]] = {
    "aid_static": _ONE_SHOT_TRANSITIONS,
    "aid_hybrid": _ONE_SHOT_TRANSITIONS,
    "aid_auto": _ONE_SHOT_TRANSITIONS,
    "aid_dynamic": {
        ac.START: {ac.SAMPLING, ac.DONE},
        ac.SAMPLING: _DYNAMIC_DISPATCH,
        ac.SAMPLING_WAIT: _DYNAMIC_DISPATCH - {ac.SAMPLING_WAIT},
        ac.AID: _DYNAMIC_DISPATCH - {ac.AID},
        ac.AID_WAIT: _DYNAMIC_DISPATCH - {ac.AID_WAIT},
        ENDGAME: {ac.DONE},
        ac.DONE: set(),
    },
    "aid_steal": {
        ac.START: {ac.SAMPLING, SERVING, ac.DONE},
        ac.SAMPLING: {SERVING, ac.SAMPLING_WAIT, ac.DONE},
        ac.SAMPLING_WAIT: {SERVING, ac.DONE},
        SERVING: {ac.DONE},
        ac.DONE: set(),
    },
}

#: Extra legal *initial* states when aid_auto seeds its inner phase
#: engine mid-loop (threads jump straight past sampling).
_SEEDED_INITIAL = {"aid_dynamic": {ac.SAMPLING_WAIT, ac.DONE}}


def check_state_machine(obs: CheckContext) -> list[Violation]:
    if not obs.states:
        return []
    out: list[Violation] = []
    # Fault recovery re-enters the automaton from places the fault-free
    # design never visits: aid_auto's resample rewinds non-DONE threads
    # to START, offline/online parks and revives workers mid-phase. With
    # fault records present, any restart-from-START transition (and the
    # SAMPLING re-entry it leads to) is additionally legal, and a parked
    # worker may legitimately end in a non-DONE state.
    faulted = obs.has_faults
    by_tid: dict[int, list] = {}
    for ev in obs.states:
        by_tid.setdefault(ev.tid, []).append(ev)
    for tid, events in sorted(by_tid.items()):
        label = None
        state = ac.START
        for ev in events:
            table = TRANSITIONS.get(ev.scheduler)
            if table is None:
                continue
            if ev.scheduler != label:
                # Entering a (possibly inner) scheduler: implicit START,
                # plus the seeded fast-forward states aid_auto uses.
                legal = table[ac.START] | _SEEDED_INITIAL.get(
                    ev.scheduler, set()
                )
            else:
                legal = table.get(state, set())
            if faulted:
                legal = legal | table[ac.START] | {ac.SAMPLING}
            if ev.state not in legal:
                out.append(
                    Violation(
                        "state-machine",
                        f"{ev.scheduler}: illegal transition "
                        f"{state} -> {ev.state}",
                        tid=tid,
                        seq=ev.seq,
                    )
                )
            label, state = ev.scheduler, ev.state
        if (
            obs.result is not None
            and obs.error is None
            and state != ac.DONE
            and not faulted
        ):
            out.append(
                Violation(
                    "state-machine",
                    f"loop completed but the thread's final state is {state}",
                    tid=tid,
                )
            )
    return _cap("state-machine", out)


def check_sampling_single(obs: CheckContext) -> list[Violation]:
    out: list[Violation] = []
    seen: dict[tuple[str, str, int, int], int] = {}
    for rec in obs.decisions.records:
        if rec["event"] not in ("sample_start", "sample_complete"):
            continue
        # aid_auto's fault-adaptive resample opens a fresh sampling epoch
        # (stamped on its records) and a sampler preempted by a fault
        # re-takes its chunk with a bumped ``retake`` marker; one sample
        # per thread *per epoch per retake*.
        key = (
            rec["scheduler"], rec["event"], rec["tid"],
            rec.get("epoch", 0), rec.get("retake", 0),
        )
        seen[key] = seen.get(key, 0) + 1
        if seen[key] == 2:
            out.append(
                Violation(
                    "sampling-single",
                    f"{rec['scheduler']}: thread emitted "
                    f"{rec['event']} more than once",
                    tid=rec["tid"],
                    seq=rec["seq"],
                )
            )
    return _cap("sampling-single", out)


# -- per-variant AID properties -----------------------------------------------


def _target_publications(obs: CheckContext) -> list[tuple[int, list[int]]]:
    """Every one-shot targets publication as ``(seq, targets)``, in
    order — publish_targets events plus aid_auto static-mode decide
    records. Fault-adaptive resampling may publish more than once; an
    allotment is validated against the latest publication preceding it.
    """
    out: list[tuple[int, list[int]]] = []
    for rec in obs.decisions.records:
        if rec["event"] == "publish_targets" or (
            rec["event"] == "decide" and rec.get("mode") == "static"
        ):
            out.append((rec["seq"], list(rec["targets"])))
    return out


def _published_targets(obs: CheckContext) -> tuple[list[int] | None, int | None]:
    """The first one-shot targets publication (phase-order anchor)."""
    pubs = _target_publications(obs)
    if not pubs:
        return None, None
    seq, targets = pubs[0]
    return targets, seq


def check_aid_targets(obs: CheckContext) -> list[Violation]:
    ni = obs.n_iterations
    info = obs.team_info
    if ni is None or info is None:
        return []
    out: list[Violation] = []
    type_counts = tuple(info["type_counts"])
    type_of_tid = list(info["type_of_tid"])
    for rec in obs.decisions.records:
        if rec["event"] != "publish_targets":
            continue
        sf = {int(k): float(v) for k, v in (rec.get("sf") or {}).items()}
        frac = float(rec.get("aid_fraction", 1.0))
        expected = ac.aid_targets(int(frac * ni), sf, type_counts)
        if list(rec["targets"]) != expected:
            out.append(
                Violation(
                    "aid-targets",
                    f"published targets {rec['targets']} != SF-derived "
                    f"partition {expected} "
                    f"(sf={sf}, fraction={frac}, counts={type_counts})",
                    tid=rec["tid"],
                    seq=rec["seq"],
                )
            )
    pubs = _target_publications(obs)
    if pubs:
        for rec in obs.decisions.records:
            if rec["event"] != "aid_allotment":
                continue
            tid = rec["tid"]
            if tid < 0 or tid >= len(type_of_tid):
                continue
            targets = None
            for seq, t in pubs:
                if seq < rec["seq"]:
                    targets = t
            if targets is None:
                continue
            want = targets[type_of_tid[tid]]
            if rec.get("target") != want:
                out.append(
                    Violation(
                        "aid-targets",
                        f"allotment used target {rec.get('target')} but the "
                        f"published per-type target is {want}",
                        tid=tid,
                        seq=rec["seq"],
                    )
                )
            lo, hi = rec["range"]
            if hi - lo > rec["chunk_target"]:
                out.append(
                    Violation(
                        "aid-targets",
                        f"allotment granted {hi - lo} iterations for a "
                        f"request of {rec['chunk_target']}",
                        tid=tid,
                        seq=rec["seq"],
                    )
                )
    return _cap("aid-targets", out)


def check_one_shot_phase_order(obs: CheckContext) -> list[Violation]:
    targets, publish_seq = _published_targets(obs)
    out: list[Violation] = []
    for rec in obs.decisions.records:
        if rec["event"] not in ("drain_steal", "aid_allotment"):
            continue
        if targets is None:
            out.append(
                Violation(
                    "one-shot-phase-order",
                    f"{rec['event']} emitted but no targets were ever "
                    f"published",
                    tid=rec["tid"],
                    seq=rec["seq"],
                )
            )
        elif rec["seq"] < publish_seq:
            out.append(
                Violation(
                    "one-shot-phase-order",
                    f"{rec['event']} at seq {rec['seq']} precedes the "
                    f"targets publication at seq {publish_seq} — the "
                    f"dynamic tail ran before the static region was "
                    f"distributed",
                    tid=rec["tid"],
                    seq=rec["seq"],
                )
            )
    return _cap("one-shot-phase-order", out)


def check_dynamic_endgame(obs: CheckContext) -> list[Violation]:
    out: list[Violation] = []
    endgame_seq: int | None = None
    for rec in obs.decisions.records:
        if rec["scheduler"] != "aid_dynamic":
            continue
        ev = rec["event"]
        if ev == "endgame":
            if rec["remaining"] > rec["threshold"]:
                out.append(
                    Violation(
                        "dynamic-endgame",
                        f"endgame switch with {rec['remaining']} iterations "
                        f"remaining, above the threshold {rec['threshold']}",
                        tid=rec["tid"],
                        seq=rec["seq"],
                    )
                )
            if endgame_seq is None:
                endgame_seq = rec["seq"]
        elif ev == "phase_join" and endgame_seq is not None:
            out.append(
                Violation(
                    "dynamic-endgame",
                    f"phase join at seq {rec['seq']} after the endgame "
                    f"switch at seq {endgame_seq}",
                    tid=rec["tid"],
                    seq=rec["seq"],
                )
            )
        elif ev == "endgame_steal" and endgame_seq is None:
            out.append(
                Violation(
                    "dynamic-endgame",
                    "endgame steal before any endgame switch was announced",
                    tid=rec["tid"],
                    seq=rec["seq"],
                )
            )
    return _cap("dynamic-endgame", out)


def check_steal_partition(obs: CheckContext) -> list[Violation]:
    ni = obs.n_iterations
    if ni is None:
        return []
    out: list[Violation] = []
    for rec in obs.decisions.records:
        if rec["event"] == "partition":
            ranges = [tuple(r) for r in rec["ranges"]]
            for (lo, hi) in ranges:
                if not (0 <= lo <= hi <= ni):
                    out.append(
                        Violation(
                            "steal-partition",
                            f"partition range [{lo}, {hi}) outside [0, {ni})",
                            seq=rec["seq"],
                        )
                    )
            for (a_lo, a_hi), (b_lo, b_hi) in zip(ranges, ranges[1:]):
                if b_lo != a_hi:
                    out.append(
                        Violation(
                            "steal-partition",
                            f"partition not contiguous: [{a_lo}, {a_hi}) "
                            f"then [{b_lo}, {b_hi})",
                            seq=rec["seq"],
                        )
                    )
        elif rec["event"] == "steal":
            (s_lo, s_hi) = rec["range"]
            (v_lo, v_hi) = rec["victim_left"]
            if v_hi != s_lo or not (v_lo <= v_hi <= s_hi):
                out.append(
                    Violation(
                        "steal-partition",
                        f"steal split victim [{v_lo}, {v_hi}) / stolen "
                        f"[{s_lo}, {s_hi}) is not a contiguous two-way cut",
                        tid=rec["tid"],
                        seq=rec["seq"],
                    )
                )
            if not (0 <= s_lo <= s_hi <= ni):
                out.append(
                    Violation(
                        "steal-partition",
                        f"stolen range [{s_lo}, {s_hi}) outside [0, {ni})",
                        tid=rec["tid"],
                        seq=rec["seq"],
                    )
                )
    return _cap("steal-partition", out)


# -- fault-recovery properties ------------------------------------------------


def check_fault_requeue_conservation(obs: CheckContext) -> list[Violation]:
    ni = obs.n_iterations
    if ni is None or not obs.has_faults:
        return []
    out: list[Violation] = []
    requeued = [0] * ni
    for rec in obs.fault_records():
        if rec["event"] in ("requeue", "watchdog_redistribute"):
            lo, hi = rec["range"]
            for i in range(max(0, lo), min(ni, hi)):
                requeued[i] += 1
    served = [0] * ni
    for ev in obs.takes:
        if not ev.requeued or ev.granted is None:
            continue
        lo, hi = ev.granted
        if not (0 <= lo < hi <= ni):
            out.append(
                Violation(
                    "fault-requeue-conservation",
                    f"requeue-served range [{lo}, {hi}) outside [0, {ni})",
                    seq=ev.seq,
                )
            )
            continue
        for i in range(lo, hi):
            served[i] += 1
    over = [i for i in range(ni) if served[i] > requeued[i]]
    if over:
        out.append(
            Violation(
                "fault-requeue-conservation",
                f"{len(over)} iterations served from the requeue deque "
                f"more often than fault recovery returned them: "
                f"{_intervals(over)}",
            )
        )
    return _cap("fault-requeue-conservation", out)


def check_offline_no_dispatch(obs: CheckContext) -> list[Violation]:
    if not obs.has_faults or obs.n_iterations is None:
        return []
    # Build each worker's offline windows from the fault log. A window
    # that never closes extends to the end of the run. Workers whose
    # offlining was deferred (last live core) keep dispatching.
    windows: dict[int, list[tuple[float, float]]] = {}
    open_at: dict[int, float] = {}
    for rec in obs.fault_records():
        if rec["event"] == "offline":
            open_at.setdefault(rec["tid"], rec["t"])
        elif rec["event"] == "online":
            t0 = open_at.pop(rec["tid"], None)
            if t0 is not None:
                windows.setdefault(rec["tid"], []).append((t0, rec["t"]))
    for tid, t0 in open_at.items():
        windows.setdefault(tid, []).append((t0, float("inf")))
    out: list[Violation] = []
    for ev in obs.dispatches:
        if ev.granted is None:
            continue
        for a, b in windows.get(ev.tid, ()):
            if a < ev.t < b:
                out.append(
                    Violation(
                        "offline-no-dispatch",
                        f"dispatch at t={ev.t} inside the worker's "
                        f"offline window [{a}, {b})",
                        tid=ev.tid,
                        seq=ev.seq,
                    )
                )
                break
    return _cap("offline-no-dispatch", out)


def check_watchdog_redistributes(obs: CheckContext) -> list[Violation]:
    info = obs.team_info or {}
    timeout = info.get("watchdog_timeout")
    if timeout is None:
        return []
    long_stalls = [
        rec
        for rec in obs.fault_records("stall_injected")
        if rec.get("seconds", 0.0) >= 2.0 * timeout
    ]
    if not long_stalls or obs.fault_records("watchdog_redistribute"):
        return []
    rec = long_stalls[0]
    return [
        Violation(
            "watchdog-redistributes",
            f"a worker stalled {rec['seconds']:.3g}s with a "
            f"{timeout:.3g}s watchdog armed, yet no redistribution was "
            "logged",
            tid=rec["tid"],
            seq=rec["seq"],
        )
    ]


#: The catalog, in reporting order. docs/testing.md renders this table.
INVARIANTS: tuple[Invariant, ...] = (
    Invariant(
        "workshare-replay",
        "Replaying the fetch-and-add log reproduces the pool pointer; "
        "grants are exact clamps of [next, next+n) against end.",
        check_workshare_replay,
    ),
    Invariant(
        "exact-once",
        "Dispatched ranges partition [0, NI): every iteration executed "
        "exactly once by exactly one worker.",
        check_exact_once,
    ),
    Invariant(
        "dispatch-pool-consistency",
        "Every dispatched iteration was first removed from the shared "
        "pool.",
        check_dispatch_pool_consistency,
    ),
    Invariant(
        "clock-monotone",
        "Per-worker dispatch timestamps never decrease.",
        check_clock_monotone,
    ),
    Invariant(
        "result-consistency",
        "Reported per-thread counts and ranges agree with the dispatch "
        "log.",
        check_result_consistency,
    ),
    Invariant(
        "state-machine",
        "Per-thread scheduler states follow the Figs. 3/5 automata and "
        "end in DONE.",
        check_state_machine,
    ),
    Invariant(
        "sampling-single",
        "No thread samples more than one chunk per scheduler instance.",
        check_sampling_single,
    ),
    Invariant(
        "aid-targets",
        "Published one-shot splits match the SF-derived partition; "
        "allotments honour the per-type target.",
        check_aid_targets,
    ),
    Invariant(
        "one-shot-phase-order",
        "Drain/dynamic-tail steals happen only after targets are "
        "published.",
        check_one_shot_phase_order,
    ),
    Invariant(
        "dynamic-endgame",
        "AID-dynamic switches to dynamic(m) at or below M*NT remaining; "
        "no phase joins afterwards.",
        check_dynamic_endgame,
    ),
    Invariant(
        "steal-partition",
        "AID-steal partitions contiguously in-bounds; steals are exact "
        "two-way cuts of the victim's range.",
        check_steal_partition,
    ),
    Invariant(
        "fault-requeue-conservation",
        "Iterations served from the requeue deque were first returned "
        "by fault recovery, at most as often as they were returned.",
        check_fault_requeue_conservation,
    ),
    Invariant(
        "offline-no-dispatch",
        "A worker parked by a core-offline fault takes no new chunk "
        "until its core comes back online.",
        check_offline_no_dispatch,
    ),
    Invariant(
        "watchdog-redistributes",
        "With the watchdog armed, a stall well past the timeout must "
        "produce at least one redistribution.",
        check_watchdog_redistributes,
    ),
)


def run_invariants(obs: CheckContext) -> list[Violation]:
    """Run the whole catalog over one observation."""
    out: list[Violation] = []
    for inv in INVARIANTS:
        out.extend(inv.check(obs))
    return out
