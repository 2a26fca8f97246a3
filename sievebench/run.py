#!/usr/bin/env python3
"""Sieve end-to-end benchmark: run workloads, print metrics, check answers.

Run from the repository root::

    python3 sievebench/run.py                          # every workload, seed 1
    python3 sievebench/run.py --workload lookup_bulk --seed 3 --seconds 15
    python3 sievebench/run.py --trace                  # per-layer run + Chrome traces

For each workload this process generates every input from ``--seed``
(``inputs.py``), then runs the workload in a fresh ``workloads.py``
process that receives only those inputs.  It prints one
``workload metric value unit`` line per metric, writes the full results
to ``--out`` (JSON), and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Untraced runs report
the ``end_to_end`` metrics of ``BENCHMARK.json``; ``--trace`` runs
report its ``per_layer`` metrics and write ``<out>.<workload>.trace.json``.

Exit status: 0 when every answer was right, 1 when any was wrong, 2 when
the benchmark could not run (for example, no ``src/`` to import).
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: A workload process still running after this long is killed.
CHILD_TIMEOUT_S = 160
#: Environment every workload process runs under: no runtime sanitizer,
#: default kernel and job count, deterministic hashing.
FORCED_ENV = {"SIEVE_SANITIZE": "0", "PYTHONHASHSEED": "0", "PYTHONPATH": str(SRC)}
CLEARED_ENV = ("SIEVE_KERNEL", "SIEVE_JOBS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise BenchError(f"cannot import the program from {SRC}: {exc}") from None
    if Path(repro.__file__).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"repro imported from {repro.__file__}, not from {SRC}")


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def environment() -> Dict[str, Any]:
    import numpy

    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "forced_env": {k: v for k, v in FORCED_ENV.items() if k != "PYTHONPATH"},
        "cleared_env": list(CLEARED_ENV),
    }


def run_workload(name: str, inputs: Dict[str, Any], work_dir: Path, trace_path: Optional[Path]) -> Dict[str, Any]:
    """Run one workload in a fresh process; returns its result payload."""
    request = pickle.dumps(
        {
            "name": name,
            "inputs": inputs,
            "work_dir": str(work_dir),
            "trace_path": str(trace_path) if trace_path else None,
        }
    )
    env = {key: value for key, value in os.environ.items() if key not in CLEARED_ENV}
    env.update(FORCED_ENV)
    process = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "workloads.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        start_new_session=True,  # one process group: the workload and its workers
    )
    try:
        stdout, _ = process.communicate(request, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError(f"{name} did not finish within {CHILD_TIMEOUT_S} s") from None
    if process.returncode != 0:
        raise BenchError(f"{name} exited with status {process.returncode}")
    lines = stdout.decode("utf-8").strip().splitlines()
    if not lines:
        raise BenchError(f"{name} printed no result")
    return json.loads(lines[-1])


def select_metrics(result: Dict[str, Any], declared: List[Dict[str, Any]], name: str) -> Dict[str, Any]:
    """The declared metrics, with units, in declaration order."""
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    if missing:
        raise BenchError(f"{name} did not report {', '.join(missing)}")
    return {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in declared
    }


def parse_args(argv: Optional[List[str]], names: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="extend", nargs="+", choices=names, help="default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed length of each run; benchmark runners pass run_seconds of BENCHMARK.json, the default",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): per-layer run with Chrome traces",
    )
    parser.add_argument("--out", type=Path, default=None, help="results JSON (default under sievebench/out/)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, names)
    workloads = args.workload or names
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    out_dir = BENCH_DIR / "out"
    out = args.out or out_dir / f"seed{args.seed}{'-trace' if args.trace else ''}.json"
    work_dir = out_dir / "work"
    try:
        import_program()
        from inputs import make_inputs

        work_dir.mkdir(parents=True, exist_ok=True)
        out.parent.mkdir(parents=True, exist_ok=True)
        results: Dict[str, Any] = {}
        for name in workloads:
            inputs = make_inputs(name, args.seed, seconds, bool(args.trace))
            trace_path = out.with_name(f"{out.stem}.{name}.trace.json") if args.trace else None
            result = run_workload(name, inputs, work_dir, trace_path)
            result["metrics"] = select_metrics(result, declared, name)
            results[name] = result
            for metric, entry in result["metrics"].items():
                print(f"{name} {metric} {entry['value']!r} {entry['unit']}", flush=True)
            print(f"{name} error_rate {result['failed'] / result['attempted']!r} ratio", flush=True)
    except BenchError as exc:
        print(f"sievebench: {exc}", file=sys.stderr)
        return 2
    report = {
        "schema": "sievebench-v1",
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "env": environment(),
        "workloads": results,
    }
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if len(results) == 1:
        (only,) = results.values()
        metrics = only["metrics"]
    else:
        metrics = {f"{w}.{m}": entry for w, r in results.items() for m, entry in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
