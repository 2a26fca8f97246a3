"""Smoke tests: every example script runs to completion.

All examples run in the default suite.  The metagenomic classification
example used to take ~1 min (2k bit-accurate device lookups through the
scalar path) and carried a ``slow`` marker; the batched query engine
brought it under a few seconds, so it now runs unmarked with a tight
timeout — the timeout doubles as a perf-regression tripwire for the
batched path (see docs/PERFORMANCE.md).
"""

import os
import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).parent.parent / "examples"
SRC = Path(__file__).parent.parent / "src"


def run_example(name: str, timeout: int = 240) -> str:
    """Run one example script with this checkout's ``src/`` importable
    (pytest's ``pythonpath`` setting reaches only its own process)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "reference database" in out
        assert "vs CPU" in out

    def test_etm_deep_dive(self):
        out = run_example("etm_deep_dive.py")
        assert "ETM interrupt" in out
        assert "HIT at column" in out
        assert "row-major" in out

    def test_design_space_exploration(self):
        out = run_example("design_space_exploration.py")
        assert "Pareto frontier" in out
        assert "ETM ablation" in out

    def test_deployment_planning(self):
        out = run_example("deployment_planning.py")
        assert "recommended interface: PCIe 4.0 x16" in out
        assert "future work" in out

    def test_abundance_profiling(self):
        out = run_example("abundance_profiling.py")
        assert "taxonomic abundance" in out
        assert "never underestimates: True" in out

    def test_metagenomic_classification(self):
        out = run_example("metagenomic_classification.py", timeout=60)
        assert "agrees with CLARK" in out
        assert "DIVERGED" not in out
        # The functional counters are the example's ground truth; the
        # batched engine must reproduce the scalar path's numbers
        # byte-for-byte (the seed is fixed, so any drift is a bug).
        assert "1931 requests, 1282 hits (66.4%), 0 filtered" in out
        assert "mean row activations per dispatched query: 23.5 of 26" in out
        assert "query-batch write commands: 1664" in out
