"""Correctness tooling for the Sieve reproduction.

Two halves (see ``docs/CORRECTNESS.md``):

* **static**: a simulator-aware AST lint pass (``python -m repro.lint``)
  with rules SV001-SV005 over unit suffixes, float equality, Command
  exhaustiveness, nondeterminism, and mutable defaults, plus the
  concurrency/determinism rules SV007-SV012 (event-loop blocking,
  un-awaited coroutines, fork-unsafe shared state, unbounded awaits,
  set-iteration order, wall-clock reads) with per-rule configuration
  from ``pyproject.toml``, SARIF output, and a findings baseline;
* **dynamic**: runtime sanitizers — the DRAM :class:`ProtocolSanitizer`
  and the service :class:`ScheduleSanitizer`, both subscribers of the
  :mod:`repro.hooks` seam and both toggled by ``SIEVE_SANITIZE=1`` or the CLI's ``--sanitize``
  flag.
"""

from .baseline import load_baseline, new_findings, write_baseline
from .config import LintConfig, config_for_path, load_config
from .engine import FileSource, Finding, Rule, lint_file, lint_paths
from .reporting import (
    render_json,
    render_rule_catalog,
    render_sarif,
    render_text,
)
from .rules import ALL_RULES, rules_by_id
from .sanitizer import (
    ProtocolSanitizer,
    SanitizerError,
    ScheduleSanitizer,
    ScheduleViolation,
    active_sanitizer,
    active_schedule_sanitizer,
    disable_sanitizer,
    disable_schedule_sanitizer,
    enable_from_env,
    enable_sanitizer,
    enable_schedule_from_env,
    enable_schedule_sanitizer,
    sanitize_requested,
)

__all__ = [
    "ALL_RULES",
    "FileSource",
    "Finding",
    "LintConfig",
    "ProtocolSanitizer",
    "Rule",
    "SanitizerError",
    "ScheduleSanitizer",
    "ScheduleViolation",
    "active_sanitizer",
    "active_schedule_sanitizer",
    "config_for_path",
    "disable_sanitizer",
    "disable_schedule_sanitizer",
    "enable_from_env",
    "enable_sanitizer",
    "enable_schedule_from_env",
    "enable_schedule_sanitizer",
    "lint_file",
    "lint_paths",
    "load_baseline",
    "load_config",
    "new_findings",
    "render_json",
    "render_rule_catalog",
    "render_sarif",
    "render_text",
    "rules_by_id",
    "sanitize_requested",
    "write_baseline",
]
