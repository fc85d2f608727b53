"""Tests for repro.obs.profile (sim-time cost attribution) and the
``report timeline`` / ``report profile`` subcommands."""

import json

from repro.obs.profile import (
    CATEGORIES,
    cost_attribution,
    format_cost_attribution,
)
from repro.obs.report import main as report_main


def snap(counters):
    return {
        "metrics": {
            "counters": [
                {"name": "sim_time_seconds_total", "labels": dict(labels),
                 "value": v}
                for labels, v in counters
            ]
        }
    }


class TestCostAttribution:
    def test_rows_split_by_loop_and_core_type(self):
        rows = cost_attribution(snap([
            ({"loop": "L", "core_type": "big", "category": "compute"}, 3.0),
            ({"loop": "L", "core_type": "big", "category": "idle"}, 1.0),
            ({"loop": "L", "core_type": "little", "category": "compute"}, 2.0),
        ]))
        assert len(rows) == 2
        big = rows[0]
        assert (big["loop"], big["core_type"]) == ("L", "big")
        assert big["compute"] == 3.0 and big["idle"] == 1.0
        assert big["total"] == 4.0

    def test_extra_label_dimensions_sum(self):
        # Fleet-merged snapshots carry program/config labels; same cell
        # from two jobs must aggregate.
        rows = cost_attribution(snap([
            ({"loop": "L", "core_type": "big", "category": "compute",
              "program": "EP"}, 1.0),
            ({"loop": "L", "core_type": "big", "category": "compute",
              "program": "IS"}, 2.0),
        ]))
        assert rows[0]["compute"] == 3.0

    def test_unrelated_counters_ignored(self):
        doc = snap([])
        doc["metrics"]["counters"].append(
            {"name": "dispatches_total", "labels": {"loop": "L"}, "value": 9}
        )
        assert cost_attribution(doc) == []

    def test_format_table_lists_all_categories(self):
        text = format_cost_attribution(snap([
            ({"loop": "L", "core_type": "big", "category": "compute"}, 3.0),
        ]))
        for c in CATEGORIES:
            assert c + "_s" in text
        assert "L" in text

    def test_empty_formats_empty(self):
        assert format_cost_attribution(snap([])) == ""


class TestProfileCli:
    def test_profile_subcommand_writes_json(self, tmp_path, capsys):
        from repro.amp.presets import odroid_xu4
        from repro.experiments.harness import run_grid
        from repro.fleet.progress import FleetProgress
        from repro.workloads.registry import get_program

        progress = FleetProgress()
        run_grid(odroid_xu4(), programs=[get_program("EP")],
                 progress=progress)
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(progress.obs_snapshot()))
        out = tmp_path / "profile.json"
        assert report_main(["profile", str(path), "--json", str(out)]) == 0
        assert "sim-time cost attribution" in capsys.readouterr().out
        rows = json.loads(out.read_text())["cost_attribution"]
        assert rows == cost_attribution(json.loads(path.read_text()))
        # Both odroid core types show up for the EP loop.
        assert {"cortex-a7", "cortex-a15"} <= {r["core_type"] for r in rows}

    def test_profile_subcommand_without_attribution(self, tmp_path, capsys):
        from repro.obs import Observability
        from repro.obs.snapshot import write_snapshot

        path = tmp_path / "empty.json"
        write_snapshot(path, Observability())
        assert report_main(["profile", str(path)]) == 0
        assert "no sim_time_seconds_total" in capsys.readouterr().out


class TestTimelineCli:
    def test_timeline_subcommand_renders_lanes_and_tails(
        self, tmp_path, capsys
    ):
        import numpy as np

        from repro.check.generators import run_loop
        from repro.amp.presets import odroid_xu4
        from repro.obs import Observability
        from repro.obs.snapshot import write_snapshot
        from repro.sched.registry import parse_schedule

        obs = Observability()
        run_loop(odroid_xu4(), parse_schedule("dynamic,4"),
                 n_iterations=256, costs=np.full(256, 1e-4), obs=obs)
        path = tmp_path / "snap.json"
        write_snapshot(path, obs)
        assert report_main(["timeline", str(path)]) == 0
        text = capsys.readouterr().out
        assert "core_utilization" in text
        assert "digest tails" in text
        assert "p99" in text
        # Metric filter narrows the lanes.
        assert report_main(
            ["timeline", str(path), "--metric", "chunk_size_iters"]
        ) == 0
        filtered = capsys.readouterr().out
        assert "core_utilization" not in filtered
        assert "chunk_size_iters" in filtered
