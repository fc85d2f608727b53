"""``fsck`` for the fleet cache: verify, quarantine, repair.

:func:`scrub_cache` walks every shard of a
:class:`~repro.fleet.cache.ResultCache` and checks each entry against
the full integrity contract:

* the file name is a well-formed ``<64-hex-digest>.json``;
* the entry sits in the shard its digest prefix names;
* the bytes parse as JSON into a cache-entry document
  (:data:`~repro.fleet.cache.ENTRY_SCHEMA`);
* the document's digest field, and the digest recorded inside the
  result payload, both match the file name;
* the payload rehydrates into a valid
  :class:`~repro.fleet.jobs.JobResult`.

Anything that fails is **quarantined** — renamed to ``<entry>.corrupt``
in place, exactly like the read path's lazy quarantine — so the next
sweep misses, recomputes, and writes a fresh entry; the bad bytes stay
on disk for inspection and can never be read back as a result. Entries
whose code-version salt is stale are *not* corruption: they are counted
(and deleted only when ``prune_stale`` asks for garbage collection).

The scrub also repairs the store's metadata: a missing, unreadable or
out-of-date layout manifest is rewritten.

Every quarantine increments ``fleet_cache_corrupt_total`` (labelled by
reason) on the cache's observability registry, same as lazy read-path
quarantines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.fleet.cache import (
    ENTRY_SCHEMA,
    SHARD_WIDTH,
    ResultCache,
    _is_entry_name,
)
from repro.fleet.jobs import CODE_SALT, JobResult

#: Scrub report document identifier.
SCRUB_SCHEMA = "repro.fleet.scrub-report/v1"


@dataclass
class ScrubFinding:
    """One file the scrub acted on."""

    path: str  #: path relative to the cache root
    reason: str  #: name | misplaced | json | entry-schema | digest |
    #: payload | unreadable | stale-salt | tmp-leftover
    action: str  #: quarantined | pruned

    def to_payload(self) -> dict:
        return {"path": self.path, "reason": self.reason,
                "action": self.action}


@dataclass
class ScrubReport:
    """What one scrub pass saw and did."""

    root: str
    scanned: int = 0
    ok: int = 0
    stale: int = 0
    bytes_total: int = 0
    manifest_repaired: bool = False
    findings: list[ScrubFinding] = field(default_factory=list)

    @property
    def quarantined(self) -> int:
        return sum(1 for f in self.findings if f.action == "quarantined")

    @property
    def pruned(self) -> int:
        return sum(1 for f in self.findings if f.action == "pruned")

    @property
    def clean(self) -> bool:
        return not self.findings and not self.manifest_repaired

    def to_payload(self) -> dict:
        return {
            "schema": SCRUB_SCHEMA,
            "root": self.root,
            "scanned": self.scanned,
            "ok": self.ok,
            "stale": self.stale,
            "quarantined": self.quarantined,
            "pruned": self.pruned,
            "bytes_total": self.bytes_total,
            "manifest_repaired": self.manifest_repaired,
            "findings": [f.to_payload() for f in self.findings],
        }

    def format_text(self) -> str:
        lines = [
            f"scrub {self.root}: {self.scanned} scanned, {self.ok} ok, "
            f"{self.stale} stale, {self.quarantined} quarantined, "
            f"{self.pruned} pruned ({self.bytes_total} live bytes)"
        ]
        if self.manifest_repaired:
            lines.append("  manifest: repaired")
        for f in self.findings:
            lines.append(f"  {f.action}: {f.path} [{f.reason}]")
        return "\n".join(lines)


def _shard_dirs(root: Path) -> list[Path]:
    return sorted(
        p for p in root.iterdir()
        if p.is_dir() and len(p.name) == SHARD_WIDTH
        and all(c in "0123456789abcdef" for c in p.name)
    )


def scrub_cache(
    cache: ResultCache, prune_stale: bool = False
) -> ScrubReport:
    """Verify every entry of ``cache``; quarantine corruption and repair
    the manifest. Returns the :class:`ScrubReport`.

    ``prune_stale`` additionally garbage-collects entries carrying a
    stale code-version salt — they can never be hits again, so deleting
    them only frees space.
    """
    root = cache.root
    report = ScrubReport(root=str(root))
    if not root.is_dir():
        return report

    # Judge the manifest from its raw bytes *before* the cache's lazy
    # layout check rewrites it — a stale manifest must be reported.
    manifest_was_ok = cache.manifest_ok()
    cache._ensure_layout(create=True)
    if not cache.manifest_ok():
        cache.write_manifest()
    report.manifest_repaired = not manifest_was_ok

    def quarantine(path: Path, reason: str) -> None:
        cache._quarantine(path, reason)
        report.findings.append(
            ScrubFinding(
                path=str(path.relative_to(root)),
                reason=reason,
                action="quarantined",
            )
        )

    for shard in _shard_dirs(root):
        for path in sorted(shard.iterdir()):
            if not path.is_file() or path.name.endswith(
                (".corrupt", ".poison")
            ):
                # Quarantine files and poison markers are bookkeeping,
                # not entries — never scanned, never re-quarantined.
                continue
            if ".tmp-" in path.name:
                # An interrupted atomic write's leftover: the final
                # rename never happened, so the bytes are garbage by
                # construction. Prune, don't quarantine.
                path.unlink(missing_ok=True)
                report.findings.append(
                    ScrubFinding(
                        path=str(path.relative_to(root)),
                        reason="tmp-leftover",
                        action="pruned",
                    )
                )
                continue
            report.scanned += 1
            if not _is_entry_name(path.name):
                quarantine(path, "name")
                continue
            digest = path.name[: -len(".json")]
            if digest[:SHARD_WIDTH] != shard.name:
                quarantine(path, "misplaced")
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except OSError:
                quarantine(path, "unreadable")
                continue
            try:
                doc = json.loads(text)
            except json.JSONDecodeError:
                quarantine(path, "json")
                continue
            if not isinstance(doc, dict) or doc.get("schema") != ENTRY_SCHEMA:
                quarantine(path, "entry-schema")
                continue
            if doc.get("digest") != digest:
                quarantine(path, "digest")
                continue
            try:
                result = JobResult.from_payload(doc.get("result", {}))
            except Exception:
                quarantine(path, "payload")
                continue
            if result.digest != digest:
                quarantine(path, "digest")
                continue
            stale = doc.get("salt") != CODE_SALT
            if stale:
                # Staleness, not corruption: never a hit, optionally GC'd.
                report.stale += 1
                if prune_stale:
                    path.unlink(missing_ok=True)
                    report.findings.append(
                        ScrubFinding(
                            path=str(path.relative_to(root)),
                            reason="stale-salt",
                            action="pruned",
                        )
                    )
                    continue
            report.bytes_total += len(text.encode("utf-8"))
            if not stale:
                report.ok += 1
    return report
