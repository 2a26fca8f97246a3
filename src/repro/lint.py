"""``python -m repro.lint src tests`` — the repo's custom lint pass.

Thin entry point; the implementation lives in
:mod:`repro.analysiskit` (engine, rules SV001-SV012 minus the retired
SV006, text/JSON/SARIF reporters, and the ``--baseline`` findings
gate).
"""

from __future__ import annotations

import sys

from .analysiskit.cli import main

__all__ = ["main"]

if __name__ == "__main__":
    sys.exit(main())
