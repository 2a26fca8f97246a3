"""Process-parallel experiment fleet (see docs/TESTING.md).

Runs figures/tables/sweeps as jobs — zero-argument callables, in
practice ``functools.partial`` over a module-level function defined
next to the experiment that uses it — inline or over a process pool
(every call runs every job), and merges payloads in submission order so
``--jobs 1`` and ``--jobs N`` produce byte-identical output.  A payload
is a function of the job function's arguments; any randomness seeds
from those arguments.
``python -m repro.fleet`` is the CLI; the golden-result suite
(``tests/golden/``) pins every experiment's serialized payload.
"""

from .core import (
    JOBS_ENV_VAR,
    FleetError,
    configure,
    default_jobs,
    fork_context,
    run_jobs,
    sanitize_active,
    worker_init,
)
from .golden import (
    DEFAULT_GOLDEN_DIR,
    GoldenDiff,
    GoldenError,
    GoldenReport,
    canonical_json,
    check_goldens,
    diff_payloads,
    figure_payload,
    golden_names,
    golden_path,
    load_golden,
    payload_to_figure,
    update_goldens,
)

__all__ = [
    "JOBS_ENV_VAR",
    "FleetError",
    "configure",
    "default_jobs",
    "fork_context",
    "run_jobs",
    "sanitize_active",
    "worker_init",
    "DEFAULT_GOLDEN_DIR",
    "GoldenDiff",
    "GoldenError",
    "GoldenReport",
    "canonical_json",
    "check_goldens",
    "diff_payloads",
    "figure_payload",
    "golden_names",
    "golden_path",
    "load_golden",
    "payload_to_figure",
    "update_goldens",
]
