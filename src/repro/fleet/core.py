"""Process-parallel job runner with deterministic merge and result cache.

The experiment layer decomposes every figure/table/sweep into pure,
picklable :class:`Job` units (design config x workload x sweep point).
This module dispatches them:

* **inline** at ``--jobs 1`` (the default) — no pool, no pickling, the
  exact sequential execution the repository always had;
* **process-parallel** at ``--jobs N`` over a
  :class:`concurrent.futures.ProcessPoolExecutor` — results come back
  in submission order, so the merged output is byte-identical to the
  inline run regardless of worker count.

Three invariants make ``--jobs 1`` equivalent to ``--jobs N``:

1. Jobs are *pure*: a job's payload is a function of its dataclass
   fields only.  Any randomness must come from the ``seed`` argument of
   :meth:`Job.run`, which is derived from a stable content hash of the
   job key (:func:`derive_seed`) — never from global RNG state.
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

The optional on-disk result cache keys each payload by a content hash
of (job key, repro version, payload schema) — see :class:`ResultCache`.
Enable it with ``SIEVE_FLEET_CACHE=<dir>`` or ``--cache`` on the fleet
CLI; it is off by default so stale results can never leak into a run
that did not ask for them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Union

#: Environment variable read by :func:`default_jobs`.
JOBS_ENV_VAR = "SIEVE_JOBS"

#: Environment variable read by :func:`default_cache`.
CACHE_ENV_VAR = "SIEVE_FLEET_CACHE"

#: Bump when the payload schema of any job type changes incompatibly;
#: part of every cache digest.
PAYLOAD_SCHEMA = 1


class FleetError(ValueError):
    """Raised on invalid fleet configuration or job definitions."""


@dataclasses.dataclass(frozen=True)
class Job:
    """Base class for one pure, picklable unit of experiment work.

    Subclasses are frozen dataclasses whose fields are scalars/tuples
    (picklable, reprable); :meth:`run` must depend only on those fields
    and the passed ``seed``.  The payload must be JSON-serializable so
    it can be cached and golden-diffed.
    """

    #: Class-level switch: wall-clock measurements (benchmarks) and
    #: probe jobs must never be served from the cache.
    cacheable: ClassVar[bool] = True

    def key(self) -> str:
        """Stable identity string: type name + every dataclass field."""
        fields = ",".join(
            f"{f.name}={getattr(self, f.name)!r}"
            for f in dataclasses.fields(self)
        )
        return f"{type(self).__name__}({fields})"

    def run(self, seed: int) -> Any:
        raise NotImplementedError

    def cache_token(self) -> str:
        """Extra content folded into the cache digest (default: none).

        Jobs whose inputs live *outside* their dataclass fields — e.g.
        a database segment directory referenced by path — return a
        content hash of that input here, so two paths with identical
        content share cache entries and an edited file under the same
        path gets a fresh one.
        """
        return ""


def derive_seed(key: str) -> int:
    """Deterministic 63-bit seed from a job key (stable content hash).

    Never consults global RNG state (rule SV004): the same job key
    yields the same seed in every process, interpreter, and run.
    """
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def job_digest(job: Job, version: str) -> str:
    """Cache digest: content hash of (job key, repro version, schema).

    A non-empty :meth:`Job.cache_token` (content hash of out-of-band
    inputs such as database segment directories) is folded in; jobs
    without one keep their historical digests.
    """
    text = f"{job.key()}|version={version}|schema={PAYLOAD_SCHEMA}"
    token = job.cache_token()
    if token:
        text += f"|token={token}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ResultCache:
    """On-disk JSON store of job payloads keyed by content digest.

    Writes are atomic (temp file + ``os.replace``), so concurrent
    workers racing on the same digest leave a complete file with the
    same deterministic content either way.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        """The cached entry (``{"job", "version", "payload"}``) or None."""
        path = self._path(digest)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(entry, dict) or "payload" not in entry:
            return None
        return entry

    def put(self, digest: str, job: Job, payload: Any, version: str) -> None:
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"job": job.key(), "version": version, "payload": payload}
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        # fsync before the rename: os.replace is atomic against *other
        # processes*, but after a crash the directory entry can point at
        # a file whose data never reached disk (a truncated entry the
        # next run would have to discard).  Flush the bytes first so the
        # rename only ever publishes a complete entry.
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Configuration (worker count, cache)
# ---------------------------------------------------------------------------

_configured_jobs: Optional[int] = None
_configured_cache: Optional[ResultCache] = None
_cache_configured = False
#: Set in every pool worker: nested run_jobs calls run inline.
_in_worker = False


def configure(
    jobs: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> None:
    """Set the session-wide default worker count and/or cache directory.

    ``configure(jobs=None)`` resets to the environment default
    (``SIEVE_JOBS``, else 1); ``cache_dir=None`` resets to
    ``SIEVE_FLEET_CACHE``.  The CLIs call this once from their parsed
    arguments so experiment runners never thread the knobs explicitly.
    """
    global _configured_jobs, _configured_cache, _cache_configured
    if jobs is not None and jobs < 1:
        raise FleetError(f"jobs must be >= 1, got {jobs}")
    _configured_jobs = jobs
    _configured_cache = ResultCache(cache_dir) if cache_dir is not None else None
    _cache_configured = cache_dir is not None


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


def default_cache() -> Optional[ResultCache]:
    """Active result cache: configured directory, else ``SIEVE_FLEET_CACHE``."""
    if _cache_configured:
        return _configured_cache
    raw = os.environ.get(CACHE_ENV_VAR, "").strip()
    return ResultCache(raw) if raw else None


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
    """Run one job with its derived seed (runs in the worker process)."""
    return job.run(derive_seed(job.key()))


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


def run_jobs(
    jobs: Sequence[Job],
    max_workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
) -> List[Any]:
    """Run every job; payloads return in submission order.

    ``max_workers=None`` uses :func:`default_jobs`.  With one worker —
    or inside a fleet worker (no nested pools) — jobs run inline in the
    calling process; otherwise they fan out over a process pool.  Both
    paths yield byte-identical merged results.

    Cache lookups happen in the parent before dispatch; only misses are
    executed.  An exception raised by any job (including
    ``SanitizerError`` from a worker's protocol sanitizer) propagates
    to the caller.
    """
    jobs = list(jobs)
    version = _repro_version()
    store = (cache if cache is not None else default_cache()) if use_cache else None
    results: List[Any] = [None] * len(jobs)
    pending: List[int] = []
    digests: Dict[int, str] = {}
    for i, job in enumerate(jobs):
        if store is not None and job.cacheable:
            digests[i] = job_digest(job, version)
            entry = store.get(digests[i])
            if entry is not None:
                results[i] = entry["payload"]
                continue
        pending.append(i)

    workers = max_workers if max_workers is not None else default_jobs()
    if workers < 1:
        raise FleetError(f"max_workers must be >= 1, got {workers}")
    if workers == 1 or len(pending) <= 1 or _in_worker:
        for i in pending:
            results[i] = _execute(jobs[i])
    else:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(pending)),
            mp_context=fork_context(),
            initializer=worker_init,
            initargs=(sanitize_active(),),
        ) as pool:
            for i, payload in zip(pending, pool.map(_execute, [jobs[i] for i in pending])):
                results[i] = payload
    if store is not None:
        for i in pending:
            if jobs[i].cacheable:
                store.put(digests[i], jobs[i], results[i], version)
    return results


def _repro_version() -> str:
    from .. import __version__

    return __version__
