"""Multi-process shard cluster for k-mer matching at scale.

The single-process service (:mod:`repro.service`) shards *replicas*
across asyncio tasks: one GIL, one machine, and every worker holding
the full reference.  This package promotes shards to forked OS worker
processes with **k-mer-space partitioning** — the Type-3 scale-out of
the paper (queries fanned across ranks/channels), realized the way the
related accelerator stacks do it (seed lookup distributed across
independent devices):

* the k-mer space is split into a fixed number of partitions by a
  splitmix64 hash over canonical cache keys
  (:func:`repro.genomics.encoding.canonical_kmers`), and partitions are
  assigned to shard slots by **consistent hashing**
  (:class:`ConsistentHashRing`) so topology changes move a minimal set
  of partitions;
* each worker process opens the reference via
  :meth:`KmerDatabase.open_mmap` on the PR-7 content-hashed segment
  directory — zero-copy, no per-process build — and slices out *only
  its owned partitions*, so no worker holds the full database;
* a micro-batch fans out only to owning workers, replies merge back in
  request order, and classifications go through the shared
  :func:`repro.api.classification_from_results` vote helper — cluster
  output is bit-identical to the sequential scalar path at any
  (worker processes x shards-per-process) combination
  (golden-enforced at 1/2/4 workers);
* rolling restart/drain (exercised mid-trace by the chaos harness)
  and scale-up/scale-down handoffs (:meth:`ClusterBackend.scale_to`)
  keep exactly-once semantics, verified online by the
  :class:`~repro.analysiskit.ScheduleSanitizer`'s cluster events
  (worker spawn/drain/exit, partition handoff, fan-out/reply/merge).

See ``docs/SERVICE.md`` (cluster section) for the topology diagram and
capacity planning, and ``docs/CORRECTNESS.md`` for the invariants.
"""

from .partition import (
    ConsistentHashRing,
    PartitionError,
    partition_id,
    partition_ids,
)
from .worker import WorkerSpec, worker_main
from .backend import ClusterBackend, ClusterError

__all__ = [
    "ClusterBackend",
    "ClusterError",
    "ConsistentHashRing",
    "PartitionError",
    "WorkerSpec",
    "partition_id",
    "partition_ids",
    "worker_main",
]
