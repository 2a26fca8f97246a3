#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 sievebench/compare.py A1.json A2.json ... -- B1.json B2.json ...
    python3 sievebench/compare.py A*.json -- B*.json --claim latency_p50_ms@serve_zipf_open

``A`` is the parent (baseline), ``B`` the change; each file is a
``run.py --out`` report.  For every workload x end-to-end metric the
table shows both sides' median and quartiles and a verdict:

* ``unresolved`` -- either side's spread (quartile distance / median)
  is wider than the metric's bound in ``BENCHMARK.json``, unless every
  B run is better than every A run (then ``better``), or every B run is
  worse than every A run and the medians differ by more than the bound
  (then ``worse``);
* ``worse`` / ``better`` -- B's median differs from A's by more than
  the bound;
* ``unchanged`` -- otherwise.

``error_rate`` (failed / attempted) gets its own row, showing the
per-run rates; it is ``worse`` whenever B's total failed / total
attempted is above A's, so a few failing B runs count even when B's
median rate is 0.  ``--claim METRIC@WORKLOAD`` also tests a gain claim:
B wins at least 9 of 10 pairs (runs paired in the order given, ties
count for neither, at least 10 pairs), the medians differ by more than
A's quartile distance, and B failed no larger share of its requests
than A (failed requests are left out of the latency percentiles, so
dropping slow requests must not pass for a gain).

Exit status: 1 if any row is ``worse`` or the claim is not met, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: Share of pairs the change must win for a claim (section 8 rule).
CLAIM_WIN_SHARE = 0.9
CLAIM_MIN_PAIRS = 10


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def is_better(b: float, a: float, better: str) -> bool:
    return b > a if better == "higher" else b < a


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    median_a = quartiles(a)[1]
    median_b = quartiles(b)[1]
    change = (median_b - median_a) / abs(median_a) if median_a else 0.0
    worse_by = change if better == "lower" else -change
    if max(spread(a), spread(b)) > bound:
        if all(is_better(y, x, better) for x in a for y in b):
            return "better"
        if worse_by > bound and all(is_better(x, y, better) for x in a for y in b):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "unchanged"


def error_verdict(a: Tuple[int, int], b: Tuple[int, int]) -> str:
    """``worse`` when B's ``(failed, attempted)`` totals give a higher rate."""
    return "worse" if b[0] * a[1] > a[0] * b[1] else "unchanged"


def claim(a: List[float], b: List[float], better: str, failed_more: bool = False) -> Tuple[bool, str]:
    """The gain rule: >= 9/10 pair wins, a median gap over A's IQR, and
    no rise in failures (``failed_more``)."""
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if is_better(y, x, better))
    q1, median_a, q3 = quartiles(a)
    gap = abs(quartiles(b)[1] - median_a)
    direction_ok = is_better(quartiles(b)[1], median_a, better)
    met = (
        len(pairs) >= CLAIM_MIN_PAIRS
        and wins >= CLAIM_WIN_SHARE * len(pairs)
        and direction_ok
        and gap > q3 - q1
        and not failed_more
    )
    detail = (
        f"{wins}/{len(pairs)} pairs won, median gap {gap:.6g} vs A's IQR {q3 - q1:.6g}"
        + (", B failed a larger share of requests" if failed_more else "")
    )
    return met, detail


def load_runs(paths: List[str]) -> List[Dict[str, Any]]:
    return [json.loads(Path(p).read_text(encoding="utf-8"))["workloads"] for p in paths]


def values(runs: List[Dict[str, Any]], workload: str, metric: str) -> List[float]:
    out = []
    for run in runs:
        result = run.get(workload)
        if result is None:
            continue
        if metric == "error_rate":
            out.append(result["failed"] / result["attempted"])
        elif metric in result["metrics"]:
            out.append(float(result["metrics"][metric]["value"]))
    return out


def failures(runs: List[Dict[str, Any]], workload: str) -> Tuple[int, int]:
    """``(failed, attempted)`` summed over every run of ``workload``."""
    results = [run[workload] for run in runs if workload in run]
    return sum(r["failed"] for r in results), sum(r["attempted"] for r in results)


def compare(
    a_runs: List[Dict[str, Any]], b_runs: List[Dict[str, Any]], spec: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """One row per workload x metric present on both sides."""
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in [*spec["end_to_end"], {"name": "error_rate", "better": "lower"}]:
            a = values(a_runs, workload, metric["name"])
            b = values(b_runs, workload, metric["name"])
            if not a or not b:
                continue
            if metric["name"] == "error_rate":
                result = error_verdict(failures(a_runs, workload), failures(b_runs, workload))
            else:
                result = verdict(a, b, metric["better"], metric["bound"])
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "a": quartiles(a),
                    "b": quartiles(b),
                    "verdict": result,
                }
            )
    return rows


def _fmt(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


USAGE = "usage: compare.py A.json... -- B.json... [--claim METRIC@WORKLOAD]"


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    wanted = None
    if "--claim" in argv:
        at = argv.index("--claim")
        wanted = argv[at + 1] if at + 1 < len(argv) else ""
        del argv[at : at + 2]
    if argv.count("--") != 1 or argv[0] == "--" or argv[-1] == "--":
        print(USAGE, file=sys.stderr)
        return 2
    split = argv.index("--")
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    a_runs, b_runs = load_runs(argv[:split]), load_runs(argv[split + 1 :])
    rows = compare(a_runs, b_runs, spec)
    print(f"{'workload':<16} {'metric':<24} {'A median [q1, q3]':<40} {'B median [q1, q3]':<40} verdict")
    for row in rows:
        print(
            f"{row['workload']:<16} {row['metric']:<24} {_fmt(row['a']):<40} "
            f"{_fmt(row['b']):<40} {row['verdict']}"
        )
    status = 1 if any(row["verdict"] == "worse" for row in rows) else 0
    if wanted is not None:
        metric_name, _, workload = wanted.partition("@")
        metric = next((m for m in spec["end_to_end"] if m["name"] == metric_name), None)
        if metric is None or not workload:
            print(f"unknown claim {wanted!r}", file=sys.stderr)
            return 2
        failed_more = error_verdict(failures(a_runs, workload), failures(b_runs, workload)) == "worse"
        met, detail = claim(
            values(a_runs, workload, metric_name),
            values(b_runs, workload, metric_name),
            metric["better"],
            failed_more,
        )
        print(f"claim {wanted}: {'met' if met else 'not met'} ({detail})")
        status = status or (0 if met else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
