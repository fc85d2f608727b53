"""Tests for the ``python -m repro.check`` command line."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.check.cli import build_parser, main

GOLDEN_DIR = str(Path(__file__).parent / "golden")


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["fuzz", "--cases", "3", "--seed", "9"])
        assert args.cases == 3 and args.seed == 9

    def test_fuzz_defaults_match_acceptance_run(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.cases == 200 and args.seed == 1

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestFuzzCommand:
    def test_clean_campaign_exits_zero(self, capsys):
        assert main(["fuzz", "--cases", "5", "--seed", "2"]) == 0
        assert "zero violations" in capsys.readouterr().out

    def test_mutant_campaign_exits_nonzero_and_writes_artifact(
        self, tmp_path, capsys
    ):
        out = tmp_path / "counterexamples.json"
        rc = main(
            [
                "fuzz",
                "--cases",
                "25",
                "--seed",
                "1",
                "--variant",
                "aid_dynamic",
                "--mutant",
                "aid-dynamic-chunk-decrement",
                "--max-failures",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 1
        artifact = json.loads(out.read_text(encoding="utf-8"))
        assert artifact["schema"] == "repro.check.counterexamples/v1"
        assert artifact["failures"]
        shrunk = artifact["failures"][0]["shrunk"]
        assert shrunk["n_iterations"] <= 8


class TestVerifyCommand:
    def test_valid_grid_payload_passes(self, tmp_path, capsys):
        payload = {
            "programs": {
                "p": [
                    {
                        "scheme": "a",
                        "completion_time": 1.0,
                        "normalized_performance": 1.0,
                    }
                ]
            },
            "schemes": ["a"],
            "baseline": "a",
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["verify", str(path)]) == 0

    def test_invalid_payload_fails(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}", encoding="utf-8")
        assert main(["verify", str(path)]) == 1

    def test_unreadable_payload_is_a_usage_error(self, tmp_path):
        assert main(["verify", str(tmp_path / "absent.json")]) == 2


class TestMutantCommand:
    def test_default_mutant_smoke_passes(self, capsys):
        assert main(["mutant"]) == 0
        out = capsys.readouterr().out
        assert "detected" in out
        assert "shrunk reproducer" in out


class TestGoldenCommand:
    def test_committed_goldens_match(self, capsys, session_golden):
        assert main(["golden", "--dir", GOLDEN_DIR]) == 0

    def test_missing_dir_fails(self, tmp_path):
        assert main(["golden", "--dir", str(tmp_path / "nope")]) == 1

    def test_update_then_check_roundtrip(self, tmp_path, session_golden):
        d = str(tmp_path / "golden")
        assert main(["golden", "--dir", d, "--update"]) == 0
        assert main(["golden", "--dir", d]) == 0


class TestDiffCommand:
    def test_diff_exits_zero_on_clean_runs(self, capsys):
        rc = main(
            [
                "diff",
                "--platform",
                "dual:2:2",
                "--iterations",
                "48",
                "--no-real",
            ]
        )
        assert rc == 0
        assert "differential:" in capsys.readouterr().out
