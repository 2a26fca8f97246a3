"""Process-parallel experiment fleet (see docs/TESTING.md).

Decomposes figures/tables/sweeps into pure, picklable :class:`Job`
units, dispatches them over a process pool with deterministic per-job
seeds and an optional on-disk result cache, and merges payloads in
submission order so ``--jobs 1`` and ``--jobs N`` produce byte-identical
output.  ``python -m repro.fleet`` is the CLI; the golden-result suite
(``tests/golden/``) pins every experiment's serialized payload.
"""

from .core import (
    CACHE_ENV_VAR,
    JOBS_ENV_VAR,
    PAYLOAD_SCHEMA,
    FleetError,
    Job,
    ResultCache,
    configure,
    default_cache,
    default_jobs,
    derive_seed,
    fork_context,
    job_digest,
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
    SegmentLookupJob,
    SteadyStateJob,
    Type1FunctionalJob,
)

__all__ = [
    "CACHE_ENV_VAR",
    "JOBS_ENV_VAR",
    "PAYLOAD_SCHEMA",
    "FleetError",
    "Job",
    "ResultCache",
    "configure",
    "default_cache",
    "default_jobs",
    "derive_seed",
    "fork_context",
    "job_digest",
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
    "SegmentLookupJob",
    "SteadyStateJob",
    "Type1FunctionalJob",
]
