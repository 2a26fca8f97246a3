"""Process-parallel experiment fleet (see docs/TESTING.md).

Decomposes figures/tables/sweeps into pure, picklable :class:`Job`
units, dispatches them inline or over a process pool — every call runs
every job — and merges payloads in submission order so ``--jobs 1`` and
``--jobs N`` produce byte-identical output.  A payload is a function of
the job's fields; any randomness seeds from those fields.
``python -m repro.fleet`` is the CLI; the golden-result suite
(``tests/golden/``) pins every experiment's serialized payload.
"""

from .core import (
    JOBS_ENV_VAR,
    FleetError,
    Job,
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
from .jobs import (
    BenchJob,
    DeviceSimJob,
    EspAblationJob,
    ExperimentJob,
    PerfPointJob,
    ReplayJob,
    SanitizerProbeJob,
    SteadyStateJob,
    Type1FunctionalJob,
)

__all__ = [
    "JOBS_ENV_VAR",
    "FleetError",
    "Job",
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
    "BenchJob",
    "DeviceSimJob",
    "EspAblationJob",
    "ExperimentJob",
    "PerfPointJob",
    "ReplayJob",
    "SanitizerProbeJob",
    "SteadyStateJob",
    "Type1FunctionalJob",
]
