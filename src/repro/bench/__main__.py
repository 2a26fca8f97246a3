"""CLI entry point: ``python -m repro.bench``.

Runs the tracked benchmarks, writes ``BENCH_<rev>.json``, and (with
``--baseline``) fails with exit status 1 when any benchmark regresses
past the threshold or its functional counters drift.  ``--trajectory``
instead prints the committed history of such payloads as one table,
and exits 1 when the newest payload's counters differ from the
baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import (
    BENCHMARKS,
    DEFAULT_THRESHOLD,
    BenchError,
    compare_to_baseline,
    format_results,
    format_trajectory,
    git_revision,
    load_baseline,
    run_benchmarks,
    to_payload,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the tracked simulator benchmarks and check for "
        "wall-time or counter regressions.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke scale (small workloads, skips the slow figure sweep)",
    )
    parser.add_argument(
        "--only",
        help="comma-separated benchmark names to run "
        f"(tracked: {', '.join(BENCHMARKS)})",
    )
    parser.add_argument(
        "--output",
        type=Path,
        help="output JSON path (default: BENCH_<rev>.json in the cwd)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        help="baseline BENCH_*.json to regression-check against",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="wall-time regression ratio that fails the run "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--trajectory",
        type=Path,
        nargs="?",
        const=Path("benchmarks/history"),
        metavar="DIR",
        help="print the wall time of every scenario across the payloads "
        "in DIR (default: %(const)s) and whether their counters equal "
        "--baseline (default: DIR/../BENCH_baseline.json); runs nothing "
        "and exits 1 when the newest payload's counters differ",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes for the benchmark fan-out "
        "(default: $SIEVE_JOBS or 1)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.trajectory is not None:
        baseline_path = args.baseline or (
            args.trajectory.parent / "BENCH_baseline.json"
        )
        try:
            table, differ = format_trajectory(
                args.trajectory, load_baseline(baseline_path)
            )
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(table)
        if differ:
            print(
                "newest payload's counters differ from "
                f"{baseline_path}: {', '.join(differ)}",
                file=sys.stderr,
            )
            return 1
        return 0
    only = args.only.split(",") if args.only else None
    try:
        results = run_benchmarks(quick=args.quick, only=only, jobs=args.jobs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_results(results))

    payload = to_payload(results, quick=args.quick)
    output = args.output or Path(f"BENCH_{git_revision()}.json")
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")

    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
            failures = compare_to_baseline(
                results, baseline, threshold=args.threshold
            )
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if failures:
            print(f"REGRESSION vs {args.baseline}:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print(f"no regression vs {args.baseline} (threshold {args.threshold}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
