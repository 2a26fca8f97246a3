"""Process-parallel job runner with deterministic merge.

The experiment layer decomposes every figure/table/sweep into pure,
picklable :class:`Job` units (design config x workload x sweep point).
This module dispatches them:

* **inline** at ``--jobs 1`` (the default) — no pool, no pickling, the
  exact sequential execution the repository always had;
* **process-parallel** at ``--jobs N`` over a
  :class:`concurrent.futures.ProcessPoolExecutor` — results come back
  in submission order, so the merged output is byte-identical to the
  inline run regardless of worker count.

Every call executes every job: there is no result store, so a payload
always comes from the code that is running.

Three invariants make ``--jobs 1`` equivalent to ``--jobs N``:

1. Jobs are *pure*: a job's payload is a function of the job's fields;
   any randomness seeds from those fields (e.g.
   :func:`repro.faults.hash_seed` of a tag) — never from global RNG
   state.
2. Merge order is submission order (``ProcessPoolExecutor.map``
   preserves it), and floats survive pickling bit-exactly.
3. Workers never nest pools: a ``run_jobs`` call inside a worker runs
   inline, so parallelism applies at the outermost fan-out only.

Workers inherit the parent's sanitizers: when the parent has a
:class:`~repro.analysiskit.ProtocolSanitizer` installed (or
``SIEVE_SANITIZE`` requests one), every worker installs its own DRAM
protocol sanitizer into the :mod:`repro.dram.hooks` seam — plus a
:class:`~repro.analysiskit.ScheduleSanitizer` into
:mod:`repro.service.hooks` — before running jobs, and a
:class:`~repro.analysiskit.SanitizerError` raised in a worker
propagates to the parent with the offending history intact.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, List, Optional, Sequence

#: Environment variable read by :func:`default_jobs`.
JOBS_ENV_VAR = "SIEVE_JOBS"


class FleetError(ValueError):
    """Raised on invalid fleet configuration or job definitions."""


@dataclasses.dataclass(frozen=True)
class Job:
    """Base class for one pure, picklable unit of experiment work.

    Subclasses are frozen dataclasses whose fields are scalars/tuples
    (picklable, reprable); :meth:`run` must depend only on those
    fields.  The payload must be JSON-serializable so it can be
    golden-diffed.
    """

    def run(self) -> Any:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Configuration (worker count)
# ---------------------------------------------------------------------------

_configured_jobs: Optional[int] = None
#: Set in every pool worker: nested run_jobs calls run inline.
_in_worker = False


def configure(jobs: Optional[int] = None) -> None:
    """Set the session-wide default worker count.

    ``configure(jobs=None)`` resets to the environment default
    (``SIEVE_JOBS``, else 1).  The CLIs call this once from their
    parsed arguments so experiment runners never thread the knob
    explicitly.
    """
    global _configured_jobs
    if jobs is not None and jobs < 1:
        raise FleetError(f"jobs must be >= 1, got {jobs}")
    _configured_jobs = jobs


def default_jobs() -> int:
    """Active worker count: configured value, else ``SIEVE_JOBS``, else 1."""
    if _configured_jobs is not None:
        return _configured_jobs
    raw = os.environ.get(JOBS_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise FleetError(f"{JOBS_ENV_VAR}={raw!r} is not an integer") from None
    if value < 1:
        raise FleetError(f"{JOBS_ENV_VAR} must be >= 1, got {value}")
    return value


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def sanitize_active() -> bool:
    """Whether forked workers must install the runtime sanitizers."""
    from ..analysiskit import active_sanitizer, sanitize_requested

    return active_sanitizer() is not None or sanitize_requested()


def worker_init(sanitize: bool) -> None:
    """Per-forked-process setup (pool initializer and cluster worker
    entry): mark fleet nesting so a worker never nests another pool,
    and re-install both runtime sanitizers when the parent ran
    sanitized."""
    global _in_worker
    _in_worker = True
    if sanitize:
        os.environ["SIEVE_SANITIZE"] = "1"
        from ..analysiskit import enable_sanitizer, enable_schedule_sanitizer

        enable_sanitizer()
        enable_schedule_sanitizer()


def _execute(job: Job) -> Any:
    """Run one job (runs in the worker process)."""
    return job.run()


def fork_context() -> multiprocessing.context.BaseContext:
    """The process-spawn context of fleet pools and cluster workers.

    Prefers fork, falling back to the platform default elsewhere: fork
    keeps worker start cheap and lets a child inherit the parent's
    module state (test-defined jobs and classes resolve, the mmap'd
    segment pages stay shared copy-on-write).
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_jobs(jobs: Sequence[Job], max_workers: Optional[int] = None) -> List[Any]:
    """Run every job; payloads return in submission order.

    ``max_workers=None`` uses :func:`default_jobs`.  With one worker —
    or inside a fleet worker (no nested pools) — jobs run inline in the
    calling process; otherwise they fan out over a process pool.  Both
    paths yield byte-identical merged results.  An exception raised by
    any job (including ``SanitizerError`` from a worker's protocol
    sanitizer) propagates to the caller.
    """
    jobs = list(jobs)
    workers = max_workers if max_workers is not None else default_jobs()
    if workers < 1:
        raise FleetError(f"max_workers must be >= 1, got {workers}")
    if workers == 1 or len(jobs) <= 1 or _in_worker:
        return [_execute(job) for job in jobs]
    with ProcessPoolExecutor(
        max_workers=min(workers, len(jobs)),
        mp_context=fork_context(),
        initializer=worker_init,
        initargs=(sanitize_active(),),
    ) as pool:
        return list(pool.map(_execute, jobs))
