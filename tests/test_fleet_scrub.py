"""Corruption-injection matrix for the cache integrity scrub: truncated
JSON, flipped digest bytes, flipped obs-snapshot bytes, wrong-shard
placement, stale manifests and stale salts — every injection detected,
quarantined (or pruned) and repaired."""

import json
import re

import pytest

from repro._version import __version__
from repro.amp.presets import odroid_xu4
from repro.fleet import FleetProgress, run_jobs
from repro.fleet.cache import LAYOUT_SCHEMA, ResultCache
from repro.fleet.cli import main as fleet_main
from repro.fleet.jobs import JobSpec
from repro.fleet.scrub import SCRUB_SCHEMA, scrub_cache
from repro.obs import Observability
from repro.obs.merge import comparable_snapshot
from repro.runtime.env import OmpEnv
from repro.workloads.registry import get_program

#: Counters that legitimately differ between a cold sweep and one that
#: replays most cells from the cache.
CACHE_TEMPERATURE = {
    "fleet_cache_hits", "fleet_cache_misses", "fleet_jobs_computed",
    "fleet_heartbeats_total",
}


def comparable_json(progress):
    doc = comparable_snapshot(progress.obs_snapshot())
    doc["metrics"]["counters"] = [
        c for c in doc["metrics"]["counters"]
        if c["name"] not in CACHE_TEMPERATURE
    ]
    return json.dumps(doc, sort_keys=True)


def make_spec(seed=0):
    return JobSpec(
        program=get_program("EP"),
        platform=odroid_xu4(),
        env=OmpEnv(schedule="static", affinity="BS"),
        root_seed=seed,
    )


@pytest.fixture()
def seeded_cache(tmp_path):
    """A cache holding three valid entries (plus their specs)."""
    cache = ResultCache(tmp_path / "cache", obs=Observability())
    specs = [make_spec(seed=i) for i in range(3)]
    for spec in specs:
        cache.put(spec.execute())
    return cache, specs


def test_scrub_clean_cache_reports_clean(seeded_cache):
    cache, specs = seeded_cache
    report = scrub_cache(cache)
    assert report.clean
    assert report.scanned == report.ok == len(specs)
    assert report.quarantined == report.pruned == report.stale == 0
    assert not report.manifest_repaired
    assert report.bytes_total == sum(
        cache.path_for(s.key).stat().st_size for s in specs
    ) > 0


def test_scrub_quarantines_truncated_json(seeded_cache):
    cache, specs = seeded_cache
    victim = cache.path_for(specs[0].key)
    text = victim.read_text(encoding="utf-8")
    victim.write_text(text[: len(text) // 2], encoding="utf-8")
    report = scrub_cache(cache)
    assert report.quarantined == 1 and report.ok == 2
    assert report.findings[0].reason == "json"
    assert victim.with_name(victim.name + ".corrupt").is_file()
    assert not victim.exists()
    # The other entries still hit; the quarantined one is a miss.
    assert cache.get(specs[0].key) is None
    assert cache.get(specs[1].key) is not None


def test_scrub_detects_flipped_digest_byte(seeded_cache):
    """An entry whose stored digest no longer matches its file name —
    one flipped hex digit — is corruption, not a different entry."""
    cache, specs = seeded_cache
    victim = cache.path_for(specs[0].key)
    doc = json.loads(victim.read_text(encoding="utf-8"))
    d = doc["digest"]
    doc["digest"] = ("0" if d[0] != "0" else "1") + d[1:]
    victim.write_text(json.dumps(doc), encoding="utf-8")
    report = scrub_cache(cache)
    assert report.quarantined == 1
    assert report.findings[0].reason == "digest"
    assert cache.obs.registry.counter(
        "fleet_cache_corrupt_total", reason="digest"
    ).value == 1


def flip_obs_digit(path):
    """Change the first digit of a metric value inside an entry's
    verbatim ``obs_json`` text. The entry and the embedded snapshot both
    stay valid JSON: only the ``obs_sha256`` checksum can notice."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    text = doc["result"]["obs_json"]
    i = re.search(r'"value":\d', text).end() - 1
    doc["result"]["obs_json"] = (
        text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
    )
    path.write_text(json.dumps(doc), encoding="utf-8")


def test_scrub_detects_flipped_obs_byte(seeded_cache):
    cache, specs = seeded_cache
    flip_obs_digit(cache.path_for(specs[0].key))
    report = scrub_cache(cache)
    assert report.quarantined == 1 and report.ok == 2
    assert report.findings[0].reason == "payload"
    assert cache.obs.registry.counter(
        "fleet_cache_corrupt_total", reason="payload"
    ).value == 1


def test_flipped_obs_byte_quarantined_on_get_then_recomputed(tmp_path):
    """The lazy read path catches the flipped obs byte too, and the next
    sweep recomputes the cell: its merged snapshot is byte-identical to
    the cold run's, modulo wall-clock fields and cache temperature."""
    specs = [make_spec(seed=i) for i in range(3)]
    cold = FleetProgress()
    run_jobs(specs, cache=ResultCache(tmp_path), progress=cold)
    victim = ResultCache(tmp_path).path_for(specs[1].key)
    flip_obs_digit(victim)

    cache = ResultCache(tmp_path, obs=Observability())
    assert cache.get(specs[1].key) is None
    assert not victim.exists()
    assert victim.with_name(victim.name + ".corrupt").is_file()
    assert cache.obs.registry.counter(
        "fleet_cache_corrupt_total", reason="payload"
    ).value == 1

    warm = FleetProgress()
    outcomes = run_jobs(specs, cache=cache, progress=warm)
    assert all(o.ok for o in outcomes)
    assert warm.count("fleet_jobs_computed") == 1
    assert warm.count("fleet_cache_hits") == 2
    assert comparable_json(warm) == comparable_json(cold)


def test_scrub_detects_wrong_shard_placement(seeded_cache):
    cache, specs = seeded_cache
    good = cache.path_for(specs[0].key)
    digest = specs[0].key
    wrong_shard = "00" if digest[:2] != "00" else "ff"
    misplaced = cache.root / wrong_shard / good.name
    misplaced.parent.mkdir(parents=True, exist_ok=True)
    misplaced.write_text(good.read_text(encoding="utf-8"), encoding="utf-8")
    report = scrub_cache(cache)
    assert report.quarantined == 1 and report.ok == 3
    assert report.findings[0].reason == "misplaced"
    assert misplaced.with_name(misplaced.name + ".corrupt").is_file()
    # The correctly-placed twin is untouched.
    assert cache.get(specs[0].key) is not None


def test_scrub_quarantines_garbage_file_names(seeded_cache):
    cache, specs = seeded_cache
    shard = cache.path_for(specs[0].key).parent
    (shard / "notes.txt").write_text("hello", encoding="utf-8")
    report = scrub_cache(cache)
    assert report.quarantined == 1
    assert report.findings[0].reason == "name"
    assert (shard / "notes.txt.corrupt").is_file()


def test_scrub_repairs_stale_manifest(seeded_cache):
    cache, specs = seeded_cache
    cache.manifest_path.write_text(
        json.dumps(
            {"schema": LAYOUT_SCHEMA, "layout": "flat/v0", "shard_width": 0}
        ),
        encoding="utf-8",
    )
    fresh = ResultCache(cache.root, obs=Observability())
    report = scrub_cache(fresh)
    assert report.manifest_repaired
    assert fresh.manifest_ok()
    assert report.ok == len(specs)
    # A second scrub is clean: repair converged.
    assert scrub_cache(ResultCache(cache.root)).clean


def test_scrub_counts_stale_salt_and_prunes_on_request(
    seeded_cache, monkeypatch
):
    cache, specs = seeded_cache
    monkeypatch.setattr("repro.fleet.jobs.CODE_SALT", "v999/other")
    monkeypatch.setattr("repro.fleet.scrub.CODE_SALT", "v999/other")
    report = scrub_cache(cache)
    assert report.stale == len(specs) and report.ok == 0
    assert report.quarantined == 0, "staleness is not corruption"
    # Stale entries still occupy budgeted space until pruned.
    assert report.bytes_total > 0
    report = scrub_cache(cache, prune_stale=True)
    assert report.pruned == len(specs)
    assert {f.reason for f in report.findings} == {"stale-salt"}
    assert report.bytes_total == 0
    assert len(cache) == 0


def test_scrub_counts_v4_layout_entries_as_stale(seeded_cache):
    """An entry from result schema v4, which embedded the obs snapshot
    as a document, is a stale-salt miss, not corruption: kept until
    ``--prune-stale`` deletes it."""
    cache, specs = seeded_cache
    path = cache.path_for(specs[0].key)
    doc = json.loads(path.read_text(encoding="utf-8"))
    result = doc["result"]
    result["obs"] = json.loads(result.pop("obs_json"))
    del result["obs_sha256"]
    doc["result_schema"] = "repro.fleet.result/v4"
    doc["salt"] = f"{__version__}/repro.fleet.result/v4"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    assert cache.get(specs[0].key) is None
    assert path.is_file()
    report = scrub_cache(cache)
    assert report.stale == 1 and report.ok == 2
    assert report.quarantined == 0
    report = scrub_cache(cache, prune_stale=True)
    assert report.pruned == 1 and not path.exists()


def test_scrub_report_payload_and_text(seeded_cache):
    cache, specs = seeded_cache
    cache.path_for(specs[0].key).write_text("junk", encoding="utf-8")
    report = scrub_cache(cache)
    payload = report.to_payload()
    assert payload["schema"] == SCRUB_SCHEMA
    assert payload["scanned"] == 3 and payload["quarantined"] == 1
    assert payload["findings"][0]["action"] == "quarantined"
    text = report.format_text()
    assert "3 scanned" in text and "quarantined" in text


def test_scrub_cli_writes_report_artifact(seeded_cache, tmp_path, capsys):
    cache, specs = seeded_cache
    cache.path_for(specs[0].key).write_text("junk", encoding="utf-8")
    out = tmp_path / "report.json"
    assert fleet_main([
        "scrub", "--cache-dir", str(cache.root), "--json", str(out),
    ]) == 0
    assert "scrub" in capsys.readouterr().out
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["schema"] == SCRUB_SCHEMA
    assert doc["quarantined"] == 1 and doc["ok"] == 2


def test_scrub_cli_requires_cache(capsys):
    assert fleet_main(["scrub", "--no-cache"]) == 2
    assert "scrub needs a cache" in capsys.readouterr().err


def test_scrub_missing_root_is_a_noop(tmp_path):
    report = scrub_cache(ResultCache(tmp_path / "never-written"))
    assert report.scanned == 0 and report.clean
