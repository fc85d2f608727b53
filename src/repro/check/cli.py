"""``python -m repro.check`` — the conformance-oracle command line.

Subcommands:

* ``fuzz`` — deterministic fuzzing campaign over the AID variants
  (CI acceptance: ``fuzz --cases 200 --seed 1`` must report zero
  violations on both platform presets);
* ``backends`` — differential fuzzing of the vectorized execution
  backend against the reference simulator: every case must produce a
  byte-identical decision log and loop result (CI acceptance:
  ``backends --cases 200 --seed 1``; faulted cases never take the
  drain, so the ``--faults sim`` campaign is pinned by ``golden``'s
  engine corpus instead);
* ``verify`` — structural validation of an on-disk result payload
  (obs snapshot or experiment grid JSON);
* ``diff`` — differential run of one loop through every variant plus
  the brute-force reference, with analytic makespan bounds;
* ``mutant`` — inject a known scheduler bug and assert the oracle
  catches it with a small shrunk reproducer (the CI smoke that proves
  the oracle has teeth);
* ``golden`` — check or regenerate the per-variant golden decision
  logs, the engine corpus, the resilience sweep pin and the paper-grid
  pin under ``tests/golden/``.

Exit status is 0 iff every requested check passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.check import differential
from repro.check import golden as golden_mod
from repro.check.fuzz import FuzzResult, fuzz as run_fuzz
from repro.check.generators import DEFAULT_VARIANTS, FuzzCase
from repro.check.mutants import MUTANTS
from repro.check.oracle import verify_payload

#: Platform pool for the acceptance fuzz run (both paper testbeds).
DEFAULT_FUZZ_PLATFORMS = ("odroid_xu4", "xeon_emulated")

#: Ceiling on the shrunk reproducer size the mutant smoke accepts — a
#: larger minimum means the shrinker regressed.
MUTANT_MAX_SHRUNK_NI = 8


def _failure_artifact(result: FuzzResult) -> dict:
    """JSON-serializable record of a campaign's shrunk counterexamples."""
    return {
        "schema": "repro.check.counterexamples/v1",
        "seed": result.seed,
        "n_cases": result.n_cases,
        "mutant": result.mutant,
        "failures": [
            {
                "case": dataclasses.asdict(f.case),
                "shrunk": dataclasses.asdict(f.shrunk),
                "violations": [
                    dataclasses.asdict(v) for v in f.result.report.violations
                ],
                "error": f.result.report.error,
            }
            for f in result.failures
        ],
    }


def _cmd_fuzz(args: argparse.Namespace) -> int:
    variants = tuple(args.variant) if args.variant else None
    platforms = tuple(args.platform) if args.platform else DEFAULT_FUZZ_PLATFORMS

    def progress(i: int, case: FuzzCase) -> None:
        if args.progress and i % 25 == 0:
            print(f"[{i}/{args.cases}] {case.describe()}", file=sys.stderr)

    result = run_fuzz(
        args.cases,
        args.seed,
        variants=variants,
        platforms=platforms,
        mutant=args.mutant,
        shrink_failures=not args.no_shrink,
        max_failures=args.max_failures,
        progress=progress,
        faults=args.faults,
    )
    print(result.render())
    if args.out and not result.ok:
        Path(args.out).write_text(
            json.dumps(_failure_artifact(result), indent=2, sort_keys=True),
            encoding="utf-8",
        )
        print(f"counterexamples written to {args.out}")
    return 0 if result.ok else 1


def _backend_diff_artifact(result) -> dict:
    """JSON-serializable record of a diff campaign's counterexamples."""
    return {
        "schema": "repro.check.backend_diff/v1",
        "seed": result.seed,
        "n_cases": result.n_cases,
        "backends": list(result.backends),
        "failures": [
            {
                "case": dataclasses.asdict(f.case),
                "shrunk": dataclasses.asdict(f.shrunk),
                "field": f.mismatch.field_name,
                "detail": f.mismatch.detail,
            }
            for f in result.failures
        ],
    }


def _cmd_backends(args: argparse.Namespace) -> int:
    from repro.check.backend_diff import DEFAULT_BACKENDS, diff_fuzz

    backends = (
        tuple(args.backend) if args.backend else DEFAULT_BACKENDS
    )
    if len(backends) < 2:
        print("need at least two backends to diff", file=sys.stderr)
        return 2

    def progress(i: int, case: FuzzCase) -> None:
        if args.progress and i % 25 == 0:
            print(f"[{i}/{args.cases}] {case.describe()}", file=sys.stderr)

    result = diff_fuzz(
        args.cases,
        args.seed,
        backends=backends,
        variants=tuple(args.variant) if args.variant else None,
        platforms=tuple(args.platform) if args.platform else None,
        faults=args.faults,
        shrink_failures=not args.no_shrink,
        max_failures=args.max_failures,
        progress=progress,
    )
    print(result.render())
    if args.out and not result.ok:
        Path(args.out).write_text(
            json.dumps(
                _backend_diff_artifact(result), indent=2, sort_keys=True
            ),
            encoding="utf-8",
        )
        print(f"counterexamples written to {args.out}")
    return 0 if result.ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        payload = json.loads(Path(args.payload).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"cannot read payload {args.payload}: {exc}")
        return 2
    report = verify_payload(payload)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_diff(args: argparse.Namespace) -> int:
    variants = tuple(args.variant) if args.variant else DEFAULT_VARIANTS
    report = differential.run_differential(
        platform=args.platform,
        n_iterations=args.iterations,
        variants=variants,
        seed=args.seed,
        include_real=not args.no_real,
    )
    print(report.render())
    return 0 if report.ok else 1


def _cmd_mutant(args: argparse.Namespace) -> int:
    """Prove the oracle detects a planted bug, with a small reproducer."""
    variants = tuple(args.variant) if args.variant else ("aid_dynamic",)
    # The watchdog mutant lives in the real-thread executor: it needs
    # real stall cases, which only the "stall" fault mode generates.
    faults = args.faults
    if faults is None and args.name == "watchdog-stall-blind":
        faults = "stall"
    result = run_fuzz(
        args.cases,
        args.seed,
        variants=variants,
        mutant=args.name,
        max_failures=1,
        faults=faults,
    )
    if result.ok:
        print(
            f"mutant {args.name!r} NOT detected in {args.cases} cases — "
            f"the oracle is blind to this bug class"
        )
        return 1
    failure = result.failures[0]
    print(f"mutant {args.name!r} detected:")
    print(failure.render())
    ni = failure.shrunk.n_iterations
    if ni > args.max_shrunk_ni:
        print(
            f"shrunk reproducer has ni={ni} > {args.max_shrunk_ni} — "
            f"shrinking regressed"
        )
        return 1
    print(f"shrunk reproducer: ni={ni} (<= {args.max_shrunk_ni})")
    return 0


def _cmd_golden(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    if args.update:
        for path in golden_mod.update_golden(directory):
            print(f"wrote {path}")
        return 0
    problems = golden_mod.check_golden(directory)
    if not problems:
        print(
            f"golden: all {len(golden_mod.GOLDEN_VARIANTS)} decision logs, "
            f"the engine corpus, the resilience sweep pin and the "
            f"paper-grid pin match {directory}"
        )
        return 0
    for key, rendered in sorted(problems.items()):
        print(rendered)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Schedule-conformance oracle: fuzz, verify, diff, "
        "mutant smoke and golden decision logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuzz", help="run a deterministic fuzzing campaign")
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--variant",
        action="append",
        help="restrict the schedule pool (repeatable)",
    )
    p.add_argument(
        "--platform",
        action="append",
        help=f"platform pool (repeatable; default {DEFAULT_FUZZ_PLATFORMS})",
    )
    p.add_argument("--mutant", choices=sorted(MUTANTS), default=None)
    p.add_argument(
        "--faults",
        choices=("sim", "stall"),
        default=None,
        help="fault-injection mode: seeded random plans on simulator "
        "cases (sim) or real-thread stall cases with the watchdog armed "
        "(stall)",
    )
    p.add_argument("--no-shrink", action="store_true")
    p.add_argument("--max-failures", type=int, default=5)
    p.add_argument(
        "--out", help="write shrunk counterexamples as JSON on failure"
    )
    p.add_argument("--progress", action="store_true")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser(
        "backends",
        help="differential fuzz: vectorized backend vs the reference "
        "simulator, byte for byte",
    )
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--backend",
        action="append",
        help="backends to compare, first is the baseline (repeatable; "
        "default: reference, vectorized)",
    )
    p.add_argument(
        "--variant",
        action="append",
        help="restrict the schedule pool (repeatable; default covers "
        "static/dynamic/guided plus the five AID variants)",
    )
    p.add_argument(
        "--platform",
        action="append",
        help="platform pool (repeatable; default: the fuzzer's mixed "
        "preset + synthetic pool)",
    )
    p.add_argument(
        "--faults",
        choices=("sim",),
        default=None,
        help="ride a seeded random fault plan on every case (exercises "
        "the vectorized backend's reference-delegation path)",
    )
    p.add_argument("--no-shrink", action="store_true")
    p.add_argument("--max-failures", type=int, default=5)
    p.add_argument(
        "--out", help="write shrunk counterexamples as JSON on failure"
    )
    p.add_argument("--progress", action="store_true")
    p.set_defaults(func=_cmd_backends)

    p = sub.add_parser("verify", help="validate an on-disk result payload")
    p.add_argument("payload", help="snapshot or grid JSON file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "diff", help="differential run across every AID variant"
    )
    p.add_argument("--platform", default="odroid_xu4")
    p.add_argument("--iterations", type=int, default=128)
    p.add_argument("--variant", action="append")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--no-real", action="store_true", help="skip the real-thread executor"
    )
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser(
        "mutant", help="assert the oracle detects a planted bug"
    )
    p.add_argument(
        "--name",
        choices=sorted(MUTANTS),
        default="aid-dynamic-chunk-decrement",
    )
    p.add_argument("--cases", type=int, default=25)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--variant",
        action="append",
        help="schedule pool for the campaign (default: aid_dynamic)",
    )
    p.add_argument(
        "--faults",
        choices=("sim", "stall"),
        default=None,
        help="fault mode for the campaign (watchdog-stall-blind "
        "defaults to stall)",
    )
    p.add_argument(
        "--max-shrunk-ni", type=int, default=MUTANT_MAX_SHRUNK_NI
    )
    p.set_defaults(func=_cmd_mutant)

    p = sub.add_parser(
        "golden", help="check or regenerate golden decision logs"
    )
    p.add_argument("--dir", default="tests/golden")
    p.add_argument(
        "--update", action="store_true", help="rewrite the golden files"
    )
    p.set_defaults(func=_cmd_golden)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
