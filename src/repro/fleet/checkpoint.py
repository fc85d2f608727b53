"""Resumable sweeps: an append-only JSONL checkpoint journal.

A paper-scale sweep is thousands of independent jobs; a killed process
must not cost the completed ones. The content-addressed cache already
records every finished job — its entry is written the moment the job
completes, and nothing else is. What the cache cannot answer is "which
sweep was running, over which jobs, and why did some of them fail?".
The :class:`SweepCheckpoint` journal records exactly that:

* ``begin`` — sweep metadata (grid names, seed, backend, worker count),
  written once per CLI invocation so ``python -m repro.fleet --resume``
  can reconstruct the command;
* ``plan`` — the digest universe of one ``run_jobs`` batch;
* ``job`` — one digest that ended ``failed`` (retries exhausted) or
  ``poisoned`` (quarantined by the supervisor: its failures repeatedly
  broke the worker pool), with the last error reason, so a resume can
  print *why* each cell failed, not just that it did;
* ``end`` — the sweep completed.

Finished jobs get no record: :meth:`SweepCheckpoint.load` derives
``done`` by checking the plan against the cache, so the fact "this cell
finished" lives in one place.

The journal is **append-only JSONL, flushed and fsynced per record**: a
SIGKILL can tear at most the final line, and :meth:`SweepCheckpoint.load`
tolerates a torn tail. On resume the journal simply grows — a second
``begin`` with the same metadata, the same plans again, fresh failure
records — so the file is the sweep's history.

Determinism contract: a checkpoint changes *what is recomputed*, never
what is computed. A killed-and-resumed sweep produces byte-identical
grid payloads and merged observability snapshots to an uninterrupted
run (modulo cache-temperature counters), because done cells replay from
the cache with their stored per-job snapshots and the merge is in
submission order either way.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.errors import FleetError

#: Checkpoint journal format identifier.
CHECKPOINT_SCHEMA = "repro.fleet.checkpoint/v1"

#: Default journal file name, beside the cache's manifest.
DEFAULT_NAME = "checkpoint.jsonl"

#: The terminal states a ``job`` record carries.
STATUSES = ("failed", "poisoned")


@dataclass
class CheckpointState:
    """The journal folded into one queryable snapshot."""

    path: str
    meta: dict = field(default_factory=dict)  #: last ``begin``'s metadata
    planned: tuple[str, ...] = ()  #: digest universe (union of plans)
    done: tuple[str, ...] = ()  #: planned digests with a cache entry
    statuses: dict[str, str] = field(default_factory=dict)  #: digest ->
    #: last recorded status, for digests that are not done
    errors: dict[str, str] = field(default_factory=dict)  #: digest -> last
    #: recorded failure/quarantine reason
    ended: bool = False  #: an ``end`` record follows the last ``begin``
    torn_lines: int = 0  #: unparseable (crash-torn) lines skipped

    @property
    def failed(self) -> tuple[str, ...]:
        return tuple(
            d for d in self.planned if self.statuses.get(d) == "failed"
        )

    @property
    def poisoned(self) -> tuple[str, ...]:
        return tuple(
            d for d in self.planned if self.statuses.get(d) == "poisoned"
        )

    @property
    def pending(self) -> tuple[str, ...]:
        # Failed cells stay pending (a resume retries them); poisoned
        # cells do not — quarantine means "stop feeding this job pools".
        done = set(self.done)
        return tuple(
            d for d in self.planned
            if d not in done and self.statuses.get(d) != "poisoned"
        )

    def summary(self) -> dict:
        return {
            "planned": len(self.planned),
            "done": len(self.done),
            "failed": len(self.failed),
            "poisoned": len(self.poisoned),
            "pending": len(self.pending),
            "ended": self.ended,
        }

    def failure_table(self) -> str:
        """A "previously failed: reason" table for the resume banner —
        one line per failed/poisoned digest with its recorded reason."""
        rows = []
        for digest in self.planned:
            status = self.statuses.get(digest)
            if status is None:
                continue
            reason = self.errors.get(digest, "(no reason recorded)")
            rows.append(f"  {digest[:12]}  {status:<9s} {reason}")
        return "\n".join(rows)


class SweepCheckpoint:
    """Append-only journal of one (possibly resumed) sweep."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh = None

    # -- writing -----------------------------------------------------------

    def begin(self, meta: Mapping) -> None:
        """Open a sweep: record its reconstructable metadata."""
        self._append(
            {
                "schema": CHECKPOINT_SCHEMA,
                "event": "begin",
                "meta": dict(meta),
            }
        )

    def plan(self, digests) -> None:
        """Declare one batch's digest universe."""
        self._append({"event": "plan", "digests": list(digests)})

    def record(
        self, digest: str, status: str, *, error: str | None = None
    ) -> None:
        """Journal one job that ended unfinished for this sweep."""
        if status not in STATUSES:
            raise FleetError(
                f"checkpoint status must be failed or poisoned, got {status!r}"
            )
        rec: dict = {"event": "job", "digest": digest, "status": status}
        if error is not None:
            rec["error"] = error
        self._append(rec)

    def finish(self) -> None:
        """Mark the sweep complete and release the journal handle."""
        self._append({"event": "end"})
        self.close()

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            finally:
                self._fh = None

    def _append(self, rec: Mapping) -> None:
        """One record, durably: flush + fsync so a SIGKILL immediately
        after a record cannot lose it."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", encoding="utf-8")
        self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    # -- reading -----------------------------------------------------------

    @classmethod
    def load(cls, path: str | Path, cache=None) -> CheckpointState:
        """Fold the journal into a :class:`CheckpointState`.

        A planned digest is done when ``cache`` (a
        :class:`~repro.fleet.cache.ResultCache`) holds an entry file for
        it, whatever the journal says; with no cache, nothing is done.
        The resumed sweep's own ``get`` still validates each entry.
        ``job`` records with a status other than ``failed`` or
        ``poisoned`` are skipped.

        Tolerant by design: a torn final line (the record a crash
        interrupted mid-write) is skipped and counted, never fatal.
        Raises :class:`~repro.errors.FleetError` only when the journal
        does not exist at all.
        """
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise FleetError(f"no checkpoint journal at {path}: {exc}") from exc
        state = CheckpointState(path=str(path))
        planned: dict[str, None] = {}
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                state.torn_lines += 1
                continue
            if not isinstance(rec, dict):
                state.torn_lines += 1
                continue
            event = rec.get("event")
            if event == "begin":
                meta = rec.get("meta")
                state.meta = dict(meta) if isinstance(meta, Mapping) else {}
                state.ended = False
            elif event == "plan":
                planned.update(dict.fromkeys(map(str, rec.get("digests", []))))
            elif event == "job" and rec.get("status") in STATUSES:
                digest = str(rec.get("digest", ""))
                state.statuses[digest] = rec["status"]
                if "error" in rec:
                    state.errors[digest] = str(rec["error"])
            elif event == "end":
                state.ended = True
        state.planned = tuple(planned)
        if cache is not None:
            state.done = tuple(
                d for d in state.planned if cache.path_for(d).is_file()
            )
        for digest in state.done:
            state.statuses.pop(digest, None)
        return state
