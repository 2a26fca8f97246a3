"""Observer seam for runtime instrumentation of the serving layer.

:mod:`repro.analysiskit` installs a :class:`ScheduleSanitizer` here to
verify scheduling invariants — exactly-once batch execution, no request
answered twice or dropped, monotone per-shard batch ids — while the
sharded service runs (see ``docs/CORRECTNESS.md``).  The seam mirrors
:mod:`repro.dram.hooks` and is kept dependency-free so ``repro.service``
never imports the tooling that observes it.

Hot paths check a single module-level reference and skip everything
when no observer is installed (the default), so an idle seam costs one
attribute load and a ``None`` test per event.
"""

from __future__ import annotations

from typing import Any, Optional

#: The installed observer, or ``None`` (the default: no instrumentation).
OBSERVER: Optional[Any] = None


def install(observer: Any) -> None:
    """Install ``observer`` as the single active schedule observer.

    The observer is duck-typed and must implement every event below
    (:class:`~repro.analysiskit.ScheduleSanitizer` does):

    * ``on_request_admitted(scope, shard_id, req_id, num_kmers)`` —
      after a request lands on a shard queue (first admit *and* each
      failover re-admit),
    * ``on_batch_coalesced(scope, shard_id, batch_index, entries)`` —
      after the dispatch loop closes a batch; ``entries`` is a list of
      ``(req_id, num_kmers)`` tuples,
    * ``on_batch_executed(scope, shard_id, batch_index, req_ids,
      total_kmers)`` — just before the backend ``query()`` for the
      still-live slice of the batch,
    * ``on_batch_deduped(scope, shard_id, batch_index, total_kmers,
      unique_kmers, cache_hits, device_kmers)`` — right after the
      execute event when the dedup/cache stage is enabled: how the
      batch's ``total_kmers`` collapse to ``unique_kmers`` cache keys,
      how many of those were served from the hot-k-mer cache, and how
      many k-mers were actually sent to the device (``unique_kmers -
      cache_hits`` normally; the full batch in self-check shadow
      mode),
    * ``on_request_completed(scope, shard_id, req_id, num_kmers)`` —
      after a request's future resolves with its classification,
    * ``on_request_expired(scope, shard_id, req_id)`` — deadline passed
      before dispatch,
    * ``on_request_failed(scope, shard_id, req_id)`` — resolved with an
      error (crash without failover, total outage, stop without
      drain),
    * ``on_requests_orphaned(scope, shard_id, req_ids)`` — a crashing
      shard handed these requests to failover,
    * ``on_service_quiesce(scope)`` — drain completed; every admitted
      request must be terminal.

    The :mod:`repro.cluster` backend emits a second event family with
    the *cluster backend* as ``scope``:

    * ``on_worker_spawned(scope, worker_id, generation, partitions)`` —
      a forked shard-worker process came up owning ``partitions``
      (``[worker_id]``: placement is static); ``generation`` increments
      on every respawn of the same worker id,
    * ``on_worker_draining(scope, worker_id, generation)`` — a rolling
      restart stopped routing new fan-out to this worker,
    * ``on_worker_exited(scope, worker_id, generation)`` — the process
      exited (a drained restart, which respawns the same worker id on
      the same partition, or the backend's close),
    * ``on_cluster_fanout(scope, qid, worker_id, num_kmers)`` — a
      micro-batch slice was sent to an owning worker,
    * ``on_cluster_reply(scope, qid, worker_id, num_kmers)`` — that
      worker answered the slice (exactly once, same k-mer count),
    * ``on_cluster_merged(scope, qid, total_kmers)`` — all slices of
      query ``qid`` merged back into one result list (every fan-out
      answered; slice counts sum to the batch size).

    ``scope`` is the owning :class:`ClassificationService` (or the
    worker itself for standalone :class:`ShardWorker` use; the
    :class:`~repro.cluster.ClusterBackend` for cluster events), so one
    observer can police many services concurrently.
    """
    global OBSERVER
    OBSERVER = observer


def uninstall() -> None:
    """Remove the active observer (instrumentation off)."""
    global OBSERVER
    OBSERVER = None


def get_observer() -> Optional[Any]:
    """Return the active observer, or ``None``."""
    return OBSERVER
