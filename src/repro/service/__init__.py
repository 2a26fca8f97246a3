"""Sieve-as-a-service: an asyncio classification server over QueryBackend.

The paper evaluates Sieve as a *device*; this package deploys it the
way Section V imagines it used — as a shared accelerator behind a
request queue.  A :class:`ClassificationService` shards a pool of
:class:`repro.api.QueryBackend` engines (one per worker task), and a
micro-batching dispatcher coalesces concurrently submitted reads into
the wide ``query()`` batches the column-major layout is built for:

* **sharding** — each worker owns one backend replica; requests are
  routed round-robin, so per-shard functional counters stay
  independent and merge cleanly (:meth:`DeviceStats.absorb`).
* **micro-batching** — a dispatch loop drains its queue up to
  ``max_batch_kmers`` coalesced k-mers (or until ``max_linger_s``
  expires), issues one batched ``query()``, and slices the responses
  back per request.  Coalesced classifications are bit-identical to
  the sequential scalar path (test-enforced).
* **backpressure** — bounded queues; a full shard rejects with a
  429-style :class:`RejectedError` carrying ``retry_after_s``.
* **deadlines & drain** — per-request deadlines expire in the queue
  (:class:`DeadlineExceededError`); ``drain()`` waits for every queued
  request to complete before ``stop()`` cancels the workers.
* **two clocks** — every batch is priced both in wall-clock time and
  in *simulated device time* (functional counter deltas through the
  command ledger), so service stats double as a Fig. 15/16-style
  deployment experiment (``stats()["deployment"]``).
* **observability** — the scheduler emits its admit / coalesce /
  execute / complete lifecycle through the :mod:`repro.hooks` seam;
  ``SIEVE_SANITIZE=1`` subscribes the
  :class:`repro.analysiskit.ScheduleSanitizer`, which verifies
  exactly-once execution and no dropped or double-answered requests.

Run ``python -m repro.service --demo`` for a self-checking load run,
or use :class:`ServiceClient` in-process.  See ``docs/SERVICE.md``.
"""

from .cache import (
    BatchCachePlan,
    CacheCoherencyError,
    CacheError,
    KmerResultCache,
)
from .config import ClusterConfig, ServiceConfig, ServiceConfigError
from .dispatcher import (
    DeadlineExceededError,
    RejectedError,
    ServiceError,
    ServiceResponse,
    ShardCrashError,
    ShardHealth,
)
from .metrics import Counter, Histogram, MetricsRegistry
from .client import ServiceClient
from .server import ClassificationService
from .stats import STATS_SCHEMA

__all__ = [
    "BatchCachePlan",
    "CacheCoherencyError",
    "CacheError",
    "ClassificationService",
    "ClusterConfig",
    "Counter",
    "DeadlineExceededError",
    "KmerResultCache",
    "Histogram",
    "MetricsRegistry",
    "RejectedError",
    "STATS_SCHEMA",
    "ServiceClient",
    "ServiceConfig",
    "ServiceConfigError",
    "ServiceError",
    "ServiceResponse",
    "ShardCrashError",
    "ShardHealth",
]
