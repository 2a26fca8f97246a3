"""Multi-process shard cluster for k-mer matching at scale.

The single-process service (:mod:`repro.service`) shards *replicas*
across asyncio tasks: one GIL, one machine, and every worker holding
the full reference.  This package promotes shards to forked OS worker
processes with **k-mer-space partitioning** — the Type-3 scale-out of
the paper (queries spread evenly over independent ranks/channels),
realized the way the related accelerator stacks do it (seed lookup
split statically across independent devices):

* a splitmix64 hash of the canonical cache key
  (:func:`repro.genomics.encoding.canonical_kmers`) modulo the worker
  count picks each k-mer's worker (:func:`partition_ids`), so worker
  *w* holds exactly the records that hash to *w*;
* each worker process opens the reference via
  :meth:`KmerDatabase.open_mmap` on the content-hashed segment
  directory — zero-copy, no per-process build — and slices out *only
  its own partition*, so no worker holds the full database;
* a micro-batch is canonicalized once, its cache keys fan out only to
  owning workers, replies merge back in request order, and
  classifications go through the shared
  :func:`repro.api.classification_from_results` vote helper — cluster
  output is bit-identical to the sequential scalar path at any worker
  count (golden-enforced at 1/2/4 workers);
* rolling restart/drain (exercised mid-trace by the chaos harness)
  respawns a worker on the same partition and keeps exactly-once
  semantics, verified online by the
  :class:`~repro.analysiskit.ScheduleSanitizer`'s cluster events
  (worker spawn/drain/exit, fan-out/reply/merge).

See ``docs/SERVICE.md`` (cluster section) for the topology diagram and
capacity planning, and ``docs/CORRECTNESS.md`` for the invariants.
"""

from .partition import PartitionError, partition_ids
from .worker import WorkerSpec, worker_main
from .backend import ClusterBackend, ClusterError

__all__ = [
    "ClusterBackend",
    "ClusterError",
    "PartitionError",
    "WorkerSpec",
    "partition_ids",
    "worker_main",
]
