"""Self-hosting check: the repo must satisfy its own lint rules.

Running the SV001-SV012 pass over ``src/`` and ``tests/`` inside the
suite means a change that regresses unit discipline, determinism,
dispatch exhaustiveness, or async/fork safety fails CI even if nobody
ran ``python -m repro.lint`` by hand.  Also runs ``ruff``/``mypy`` when
they are installed (CI installs them; local environments may not have
them).
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysiskit import ALL_RULES, lint_paths
from repro.analysiskit.engine import iter_python_files

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
TESTS = REPO / "tests"


def test_repo_satisfies_own_lint_rules():
    findings = lint_paths([str(SRC), str(TESTS)], list(ALL_RULES))
    details = "\n".join(finding.format() for finding in findings)
    assert not findings, f"repo violates its own lint rules:\n{details}"


#: Rule IDs retired with the code they policed; never reused.
RETIRED_IDS = {"SV006", "SV013"}


def test_rule_catalog_is_stable():
    """The documented rule IDs exist exactly once each."""
    ids = [rule.rule_id for rule in ALL_RULES]
    expected = [f"SV{n:03d}" for n in range(1, 13)]
    assert ids == [i for i in expected if i not in RETIRED_IDS]
    for rule in ALL_RULES:
        assert rule.title and rule.rationale


# A concurrency-rule suppression must say *why* the flagged pattern is
# safe, e.g. "disable=SV010 (idle accept; cancelled on stop)".
_SUPPRESSION_RE = re.compile(r"#\s*lint:\s*disable=([A-Z0-9_,\s]+)(.*)$")
_CONCURRENCY_IDS = {f"SV{n:03d}" for n in range(7, 13)}


def _suppressions():
    """Yield ``(location, line, match, suppressed ids)`` for every
    suppression comment in src and tests."""
    for path in iter_python_files([str(SRC), str(TESTS)]):
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            match = _SUPPRESSION_RE.search(line)
            if match:
                ids = {part.strip() for part in match.group(1).split(",")}
                yield f"{path}:{lineno}", line, match, ids


def test_suppressions_name_live_rules():
    """A ``lint: disable=`` naming an unknown or retired ID suppresses
    nothing and outlives the rule it was written for."""
    known = {rule.rule_id for rule in ALL_RULES}
    stale = [
        f"{where}: {line.strip()}"
        for where, line, _, ids in _suppressions()
        if ids - known
    ]
    details = "\n".join(stale)
    assert not stale, f"suppression(s) of unknown rule IDs:\n{details}"


def test_concurrency_suppressions_are_justified():
    """Every SV007-SV012 suppression carries a trailing justification."""
    bare = [
        f"{where}: {line.strip()}"
        for where, line, match, ids in _suppressions()
        if ids & _CONCURRENCY_IDS and not match.group(2).strip()
    ]
    details = "\n".join(bare)
    assert not bare, f"unjustified SV007-SV012 suppression(s):\n{details}"


def test_kernels_module_stays_clock_and_fork_free():
    """``repro.sieve.kernels`` is benchmarked from outside and mapped
    copy-on-write into fleet workers, so it must stay free of
    wall-clock reads (SV012) and fork-unsafe mutable state (SV009) —
    and must never buy that cleanliness via a config exemption."""
    kernels_py = SRC / "repro" / "sieve" / "kernels.py"
    findings = [
        f
        for f in lint_paths([str(kernels_py)], list(ALL_RULES))
        if f.rule_id in ("SV009", "SV012")
    ]
    details = "\n".join(finding.format() for finding in findings)
    assert not findings, f"kernels module regressed:\n{details}"
    pyproject = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    in_table = False
    for line in pyproject.splitlines():
        if line.strip().startswith("[tool.sieve-lint"):
            in_table = True
        elif line.strip().startswith("["):
            in_table = False
        if in_table:
            assert "kernels" not in line, (
                f"kernels must not be exempted from sieve-lint: {line}"
            )
    assert "lint: disable" not in kernels_py.read_text(encoding="utf-8")


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    proc = subprocess.run(
        ["ruff", "check", str(SRC), str(TESTS)],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_clean():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "src/repro"],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
