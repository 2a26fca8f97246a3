"""Fleet CLI: run experiments in parallel, maintain the golden suite.

Examples::

    python -m repro.fleet --list
    python -m repro.fleet fig14 claims --jobs 4
    python -m repro.fleet --check-goldens --jobs 4
    python -m repro.fleet --update-goldens

``--update-goldens`` runs every selected experiment twice and refuses
to record a golden whose two runs serialize differently — an unstable
experiment is a bug to fix, not a golden to store.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from ..experiments.registry import EXPERIMENTS
from . import core, golden
from .jobs import ExperimentJob


def _select(names: List[str]) -> List[str]:
    if not names:
        return list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise core.FleetError(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"known: {', '.join(EXPERIMENTS)}"
        )
    return names


def _payloads(names: List[str], jobs: Optional[int]) -> Dict[str, Dict[str, Any]]:
    """Run the named experiments (parallel across experiments)."""
    results = core.run_jobs(
        [ExperimentJob(name) for name in names], max_workers=jobs
    )
    return dict(zip(names, results))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Process-parallel experiment runner and golden-suite "
        "maintenance (docs/TESTING.md).",
    )
    parser.add_argument(
        "experiments", nargs="*", metavar="EXPERIMENT",
        help="experiment names (default: all registered experiments)",
    )
    parser.add_argument(
        "--only", action="append", default=None, metavar="EXPERIMENT",
        help="run only this experiment (repeatable; merged with the "
        "positional list)",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=None,
        help=f"worker processes (default: ${core.JOBS_ENV_VAR} or 1)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment names and exit"
    )
    parser.add_argument(
        "--update-goldens", action="store_true",
        help="regenerate tests/golden/*.json (double-run stability check)",
    )
    parser.add_argument(
        "--check-goldens", action="store_true",
        help="compare fresh payloads against stored goldens; exit 1 on drift",
    )
    parser.add_argument(
        "--golden-dir", default=str(golden.DEFAULT_GOLDEN_DIR),
        help="golden directory (default: %(default)s)",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="install the DRAM protocol sanitizer (parent and workers)",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0

    if args.sanitize:
        from ..analysiskit import enable_sanitizer

        enable_sanitizer()

    names = _select(args.experiments + (args.only or []))

    if args.update_goldens:
        first = _payloads(names, args.jobs)
        replay = _payloads(names, args.jobs)
        report = golden.update_goldens(
            first, args.golden_dir, stability_payloads=replay
        )
        print(report.summary())
        if report.written:
            print(f"wrote {len(report.written)} golden(s) to {args.golden_dir}")
        return 0

    if args.check_goldens:
        payloads = _payloads(names, args.jobs)
        report = golden.check_goldens(payloads, args.golden_dir)
        print(report.summary())
        return 1 if report.changed else 0

    payloads = _payloads(names, args.jobs)
    for name in names:
        print(golden.payload_to_figure(payloads[name]).format())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
