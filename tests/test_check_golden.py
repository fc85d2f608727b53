"""Golden decision-log and engine-corpus regression tests.

Each AID variant's canonical run on the odroid preset must reproduce
the committed decision log byte-for-byte. A digest change means the
scheduler's decision sequence changed — fail with the oracle-rendered
divergence. The engine corpus pins every case of the two CI
backend-diff campaigns field by field, the resilience sweep pin holds
one payload digest per root seed of a small fault sweep, and the
paper-grid pin one per platform of the full Fig. 6/7 grid. Every
comparison reads the session's ``fresh_golden`` (see conftest), so the
corpus is computed once for all of them plus once more to show that two
computations agree. If a change is intentional, regenerate with
``python -m repro.check golden --update``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.check.golden import (
    ENGINE_CAMPAIGNS,
    ENGINE_CORPUS_FILE,
    ENGINE_FIELDS,
    GOLDEN_VARIANTS,
    GRID_PIN_FILE,
    SWEEP_PIN_FILE,
    SWEEP_ROOT_SEEDS,
    GoldenArtifacts,
    check_engine_corpus,
    check_golden,
    check_grid_pin,
    check_sweep_pin,
    corpus_divergence,
    digest,
    engine_corpus,
    engine_corpus_text,
    golden_jsonl,
    grid_pin_text,
    render_divergence,
    run_golden,
    sweep_pin_text,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("key", sorted(GOLDEN_VARIANTS))
def test_decision_log_matches_golden(key, fresh_golden):
    path = GOLDEN_DIR / f"{key}.jsonl"
    assert path.exists(), (
        f"golden file {path} missing; run `python -m repro.check golden "
        f"--update` and commit the result"
    )
    expected = path.read_text(encoding="utf-8")
    actual = fresh_golden.logs[key]
    assert expected == actual, render_divergence(key, expected, actual)


def test_golden_runs_are_deterministic():
    key = "aid_dynamic_1_5"
    assert golden_jsonl(key) == golden_jsonl(key)


def test_golden_runs_pass_the_oracle():
    from repro.check.oracle import verify_loop

    for key in GOLDEN_VARIANTS:
        report = verify_loop(run_golden(key))
        assert report.ok, f"{key}: {report.render()}"


def test_engine_corpus_matches_golden(fresh_golden):
    report = check_engine_corpus(GOLDEN_DIR / ENGINE_CORPUS_FILE, fresh_golden)
    assert report is None, report


def test_engine_corpus_computations_agree(fresh_golden):
    # The one second computation of the session: the engine is
    # deterministic run to run, not only equal to the frozen corpus.
    assert engine_corpus() == fresh_golden.corpus


def test_engine_corpus_covers_both_campaigns():
    doc = json.loads((GOLDEN_DIR / ENGINE_CORPUS_FILE).read_text())
    assert set(doc["campaigns"]) == set(ENGINE_CAMPAIGNS)
    for name, (cases, _seed, _faults) in ENGINE_CAMPAIGNS.items():
        rows = doc["campaigns"][name]
        assert len(rows) == cases
        assert all(set(row) == {"seed", *ENGINE_FIELDS} for row in rows)


def test_engine_corpus_text_is_what_update_writes():
    text = (GOLDEN_DIR / ENGINE_CORPUS_FILE).read_text(encoding="utf-8")
    assert engine_corpus_text(json.loads(text)["campaigns"]) == text


def test_engine_corpus_mismatch_names_campaign_seed_and_field():
    committed = (GOLDEN_DIR / ENGINE_CORPUS_FILE).read_text(encoding="utf-8")
    actual = json.loads(committed)["campaigns"]
    expected = json.loads(committed)["campaigns"]
    name = "--cases 200 --seed 2 --faults sim"
    victim = expected[name][7]
    victim["spans"] = "0" * 16
    assert corpus_divergence(expected, actual) == [
        f"campaign {name!r}, case seed {victim['seed']}: spans "
        f"{'0' * 16} != {actual[name][7]['spans']}"
    ]
    del expected[name][-1]
    assert corpus_divergence(expected, actual)[0] == (
        f"campaign {name!r}: 199 frozen cases, 200 generated"
    )


def test_resilience_sweep_matches_pin(fresh_golden):
    report = check_sweep_pin(GOLDEN_DIR / SWEEP_PIN_FILE, fresh_golden)
    assert report is None, report


def test_sweep_pin_text_is_what_update_writes():
    text = (GOLDEN_DIR / SWEEP_PIN_FILE).read_text(encoding="utf-8")
    doc = json.loads(text)
    assert set(doc["digests"]) == {str(s) for s in SWEEP_ROOT_SEEDS}
    assert sweep_pin_text(doc["digests"]) == text


def test_tampered_sweep_pin_names_the_root_seed(tmp_path, fresh_golden):
    doc = json.loads((GOLDEN_DIR / SWEEP_PIN_FILE).read_text())
    good = doc["digests"]["1"]
    doc["digests"]["1"] = "0" * 64
    path = tmp_path / SWEEP_PIN_FILE
    path.write_text(sweep_pin_text(doc["digests"]), encoding="utf-8")
    report = check_sweep_pin(path, fresh_golden)
    assert report is not None
    assert f"root seed 1: payload digest {'0' * 64} != {good}" in report
    assert "root seed 0" not in report
    assert "--update" in report


def test_grid_pin_text_is_what_update_writes():
    text = (GOLDEN_DIR / GRID_PIN_FILE).read_text(encoding="utf-8")
    assert grid_pin_text(json.loads(text)["digests"]) == text


def test_tampered_grid_pin_names_the_platform(tmp_path):
    doc = json.loads((GOLDEN_DIR / GRID_PIN_FILE).read_text())
    platform_a, platform_b = sorted(doc["digests"])
    fresh = GoldenArtifacts(grids=dict(doc["digests"]))
    fresh.grids[platform_b] = "0" * 64
    report = check_grid_pin(GOLDEN_DIR / GRID_PIN_FILE, fresh)
    assert report is not None
    assert (
        f"platform {platform_b}: payload digest "
        f"{doc['digests'][platform_b]} != {'0' * 64}"
    ) in report
    assert platform_a not in report
    assert "--update" in report


def test_check_golden_flags_tampered_file(tmp_path, fresh_golden):
    for key in GOLDEN_VARIANTS:
        (tmp_path / f"{key}.jsonl").write_text(
            fresh_golden.logs[key], encoding="utf-8"
        )
    for name in (ENGINE_CORPUS_FILE, SWEEP_PIN_FILE, GRID_PIN_FILE):
        (tmp_path / name).write_text(
            (GOLDEN_DIR / name).read_text(encoding="utf-8"),
            encoding="utf-8",
        )
    assert check_golden(tmp_path, fresh_golden) == {}
    # tamper: flip one record's tid
    victim = tmp_path / "aid_static.jsonl"
    lines = victim.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[1])
    rec["tid"] = 99
    lines[1] = json.dumps(rec, sort_keys=True)
    victim.write_text("\n".join(lines) + "\n", encoding="utf-8")
    problems = check_golden(tmp_path, fresh_golden)
    assert set(problems) == {"aid_static"}
    assert "first divergence at record 1" in problems["aid_static"]
    assert "--update" in problems["aid_static"]


def test_check_golden_flags_missing_file(tmp_path):
    problems = check_golden(tmp_path)
    assert set(problems) == (
        set(GOLDEN_VARIANTS)
        | {ENGINE_CORPUS_FILE, SWEEP_PIN_FILE, GRID_PIN_FILE}
    )
    assert all("missing" in p for p in problems.values())


def test_digest_is_stable_and_short():
    assert digest("x") == digest("x")
    assert len(digest("x")) == 16
    assert digest("x") != digest("y")
