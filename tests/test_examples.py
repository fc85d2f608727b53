"""Smoke tests: every example script runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 240) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart_runs():
    out = run_example("quickstart.py", "EP")
    assert "Platform A" in out and "aid_hybrid" in out


def test_trace_gallery_runs():
    out = run_example("trace_gallery.py", "60")
    assert "aid_static" in out and "#" in out


def test_custom_scheduler_runs():
    out = run_example("custom_scheduler.py")
    assert "trapezoid" in out


def test_three_core_types_runs():
    out = run_example("three_core_types.py")
    assert "sampled SF per core type" in out


def test_real_threads_blackscholes_runs():
    out = run_example("real_threads_blackscholes.py", "5000")
    assert "identical prices" in out


def test_real_threads_hybrid_tail_matches_aid_dynamic_minor_chunk():
    # AID-hybrid's dynamic tail must be priced in the same chunks as the
    # AID-dynamic row's minor chunk; left at the loop default of 1 it
    # dispatched one option at a time and dominated the example's wall
    # time. Dispatch counts on real threads vary run to run, so the
    # configuration is what this checks.
    import runpy

    from repro.sched import AidDynamicSpec, AidHybridSpec

    specs = runpy.run_path(str(EXAMPLES / "real_threads_blackscholes.py"))[
        "SPECS"
    ]
    (hybrid,) = [s for s in specs if isinstance(s, AidHybridSpec)]
    (dynamic,) = [s for s in specs if isinstance(s, AidDynamicSpec)]
    assert hybrid.dynamic_chunk == dynamic.minor_chunk


def test_colocated_apps_runs():
    out = run_example("colocated_apps.py")
    assert "STP" in out and "team sizes" in out


def test_energy_comparison_runs():
    out = run_example("energy_comparison.py", "IS")
    assert "EDP" in out
