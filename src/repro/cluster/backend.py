"""The cluster-facing :class:`QueryBackend`: fan-out, merge, operations.

:class:`ClusterBackend` looks like any other backend to the asyncio
dispatcher — ``query()`` / ``classify()`` / ``capabilities()`` /
``stats()`` — but behind it sit forked OS worker processes, each
serving its own partition of the k-mer space from the shared mmap
segment image (:mod:`repro.cluster.worker`).  A query batch is
canonicalized once, its cache keys are hashed to their owning workers
(:func:`partition_ids` modulo the worker count), grouped, and fanned
out over pipes, and the replies are merged back **in request order** —
so results (and every classification derived through
:func:`repro.api.classification_from_results`) are bit-identical to
the sequential scalar path regardless of topology.

Determinism: workers are always contacted in ascending worker id, one
pipe per worker is FIFO, and every fan-out waits for its replies
before ``query()`` returns — there is no cross-batch concurrency to
order.  (The parallelism this buys is *capacity* — each worker holds
1/N of the reference — and process isolation for rolling operations;
latency overlap across batches is the dispatcher's job.)

Placement is static, and the one operation is synchronous at a query
boundary, which is what makes exactly-once trivial to audit:
:meth:`rolling_restart` drains a worker (no new fan-out), exits it,
and respawns it on the same partition at generation+1.  Every step
emits cluster events through :mod:`repro.hooks`, so the
:class:`~repro.analysiskit.ScheduleSanitizer` verifies no request is
lost or double-answered across a restart.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .. import hooks
from ..api import BackendCapabilities, QueryBackendBase, ResultBatch
from ..genomics.encoding import canonical_kmers
from ..serialization import read_segment_manifest
from ..service.config import ClusterConfig
from .partition import partition_ids
from .worker import WorkerSpec, worker_main


class ClusterError(RuntimeError):
    """Raised when a cluster worker fails or misbehaves."""


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = (
        "worker_id", "generation", "process", "conn", "state", "resident",
    )

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.generation = 0
        self.process = None
        self.conn = None
        self.state = "exited"
        self.resident: Dict[str, Any] = {}

    @property
    def live(self) -> bool:
        return self.state == "live"


class ClusterBackend(QueryBackendBase):
    """Multi-process, hash-partitioned query backend."""

    def __init__(
        self,
        segment_dir: str,
        cluster: Optional[ClusterConfig] = None,
        sanitize: Optional[bool] = None,
    ) -> None:
        super().__init__()
        from ..fleet import fork_context, sanitize_active

        cluster = cluster or ClusterConfig()
        manifest = read_segment_manifest(segment_dir)
        self.segment_dir = str(segment_dir)
        self.config = cluster
        self.k = int(manifest["k"])
        self.canonical = bool(manifest["canonical"])
        self.content_hash = str(manifest["content_hash"])
        self._degraded = bool(manifest.get("degraded", False))
        self._ctx = fork_context()
        self._sanitize = (
            sanitize if sanitize is not None else sanitize_active()
        )
        self._workers: Dict[int, _WorkerHandle] = {}
        self._query_index = 0
        self._restart_count = 0
        self._pending_restarts: Dict[int, List[int]] = {}
        self._closed = False
        for worker_id in range(cluster.workers):
            self._spawn(worker_id)

    # -- topology -----------------------------------------------------------

    def _spawn(self, worker_id: int) -> _WorkerHandle:
        handle = self._workers.get(worker_id)
        if handle is None:
            handle = _WorkerHandle(worker_id)
            self._workers[worker_id] = handle
        elif handle.state != "exited":
            raise ClusterError(
                f"worker {worker_id} is {handle.state}; cannot respawn"
            )
        generation = handle.generation + 1
        spec = WorkerSpec(
            worker_id=worker_id,
            generation=generation,
            segment_dir=self.segment_dir,
            workers=self.config.workers,
            sanitize=self._sanitize,
        )
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, spec),
            daemon=True,
            name=f"sieve-cluster-w{worker_id}g{generation}",
        )
        process.start()
        child_conn.close()
        handle.generation = generation
        handle.process = process
        handle.conn = parent_conn
        ready = self._recv(handle)
        handle.state = "live"
        handle.resident = ready["resident"]
        for observer in hooks.OBSERVERS:
            # Worker w owns partition w, on every spawn of w.
            observer.on_worker_spawned(
                self, worker_id, generation, [worker_id]
            )
        return handle

    def _recv(
        self, handle: _WorkerHandle, qid: Optional[int] = None, size: int = 0
    ) -> Dict[str, Any]:
        """The worker's next reply, checked.

        A dead pipe and a reply without ``ok`` raise
        :class:`ClusterError`; so does a query reply (``qid`` given)
        that answers another query or not exactly ``size`` k-mers.
        """
        try:
            reply = handle.conn.recv()
        except (EOFError, OSError) as exc:
            raise ClusterError(
                f"worker {handle.worker_id} (gen {handle.generation}) "
                f"died mid-request: {exc!r}"
            ) from None
        if not reply.get("ok"):
            raise ClusterError(
                f"worker {handle.worker_id} failed: {reply.get('error')}"
            )
        if qid is not None:
            if reply.get("qid") != qid:
                raise ClusterError(
                    f"worker {handle.worker_id} answered query "
                    f"{reply.get('qid')}, expected {qid}"
                )
            answered = len(reply["hit"])
            if answered != size or len(reply["payload"]) != answered:
                raise ClusterError(
                    f"worker {handle.worker_id} answered {answered} k-mers "
                    f"for a {size}-k-mer slice"
                )
        return reply

    def _send(self, handle: _WorkerHandle, message: Dict[str, Any]) -> None:
        """Send ``message`` to the worker; a dead pipe raises
        :class:`ClusterError`."""
        try:
            handle.conn.send(message)
        except OSError as exc:
            raise ClusterError(
                f"worker {handle.worker_id} (gen {handle.generation}) "
                f"died mid-request: {exc!r}"
            ) from None

    def _rpc(self, handle: _WorkerHandle, message: Dict[str, Any]) -> Dict[str, Any]:
        self._send(handle, message)
        return self._recv(handle)

    def _live_handle(self, worker_id: int) -> _WorkerHandle:
        handle = self._workers.get(worker_id)
        if handle is None or not handle.live:
            state = "unknown" if handle is None else handle.state
            raise ClusterError(f"worker {worker_id} is {state}")
        return handle

    def live_workers(self) -> List[int]:
        """Sorted ids of live worker processes."""
        return sorted(
            w for w, handle in self._workers.items() if handle.live
        )

    # -- QueryBackend surface -----------------------------------------------

    def query(self, kmers: Sequence[int]) -> ResultBatch:
        """Fan a batch out to owning workers; merge in request order.

        Each worker receives its slice as cache keys, so a batch is
        canonicalized once, here.  The workers' ``hit``/``payload``
        arrays are scattered straight into the returned
        :class:`~repro.api.ResultBatch`'s columns.
        """
        if self._closed:
            raise ClusterError("cluster is closed")
        self._query_index += 1
        self._run_due_restarts()
        queries = np.asarray(kmers, dtype=np.uint64)
        hit = np.zeros(queries.size, dtype=bool)
        payload = np.zeros(queries.size, dtype=np.int64)
        if queries.size == 0:
            return ResultBatch(queries, hit, payload)
        qid = self._query_index
        cache_keys = (
            canonical_kmers(queries, self.k) if self.canonical else queries
        )
        owner_of = partition_ids(cache_keys, self.config.workers)
        # Group positions by owner: a stable sort keeps each worker's
        # slice in request order, and the run boundaries split it.
        order = np.argsort(owner_of, kind="stable")
        owners, starts = np.unique(owner_of[order], return_index=True)
        slices = np.split(order, starts[1:])
        # Ascending worker id for both send and receive: each pipe is
        # FIFO and the set of owners is a pure function of the batch,
        # so the schedule — and therefore the merged output — replays
        # identically run to run.
        for worker_id, indices in zip(owners.tolist(), slices):
            handle = self._live_handle(worker_id)
            for observer in hooks.OBSERVERS:
                observer.on_cluster_fanout(self, qid, worker_id, len(indices))
            self._send(
                handle, {"op": "query", "qid": qid, "keys": cache_keys[indices]}
            )
        for worker_id, indices in zip(owners.tolist(), slices):
            reply = self._recv(self._workers[worker_id], qid, len(indices))
            for observer in hooks.OBSERVERS:
                observer.on_cluster_reply(self, qid, worker_id, len(indices))
            hit[indices] = reply["hit"]
            payload[indices] = reply["payload"]
        merged = ResultBatch(queries, hit, payload)
        for observer in hooks.OBSERVERS:
            observer.on_cluster_merged(self, qid, len(merged))
        self._backend_stats.record(merged)
        return merged

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="cluster",
            kind="multiprocess-hash-partitioned",
            k=self.k,
            canonical=self.canonical,
            degraded=self._degraded,
        )

    # -- operations ---------------------------------------------------------

    def rolling_restart(self, worker_id: int) -> None:
        """Drain one worker, exit it, respawn it on the same partition.

        Synchronous at a query boundary: no fan-out is in flight, so a
        restart can neither lose nor double-answer a request — the
        sanitizer's cluster events verify exactly that.
        """
        handle = self._live_handle(worker_id)
        self._retire(handle)
        self._spawn(worker_id)
        self._restart_count += 1

    def schedule_restart(self, worker_id: int, at_query: int) -> None:
        """Arrange a rolling restart just before query ``at_query``
        (1-based over this backend's lifetime) — the deterministic
        mid-trace restart the chaos/CI smoke drives."""
        if at_query <= self._query_index:
            raise ClusterError(
                f"query {at_query} already passed "
                f"(at {self._query_index})"
            )
        self._pending_restarts.setdefault(at_query, []).append(worker_id)

    def _run_due_restarts(self) -> None:
        due = [q for q in self._pending_restarts if q <= self._query_index]
        for q in sorted(due):
            for worker_id in self._pending_restarts.pop(q):
                if self._workers.get(worker_id, None) is not None:
                    self.rolling_restart(worker_id)

    def _retire(self, handle: _WorkerHandle) -> None:
        """Drain a live worker and exit its process."""
        handle.state = "draining"
        for observer in hooks.OBSERVERS:
            observer.on_worker_draining(
                self, handle.worker_id, handle.generation
            )
        try:
            self._rpc(handle, {"op": "exit"})  # the reply is the "bye" ack
        except ClusterError:
            pass  # already gone; join below reaps it either way
        handle.conn.close()
        handle.process.join(timeout=30)
        if handle.process.is_alive():  # pragma: no cover - hung worker
            handle.process.terminate()
            handle.process.join(timeout=5)
        handle.state = "exited"
        for observer in hooks.OBSERVERS:
            observer.on_worker_exited(
                self, handle.worker_id, handle.generation
            )

    # -- observability / lifecycle ------------------------------------------

    def cluster_stats(self) -> Dict[str, Any]:
        """Topology + per-worker residency (the ``stats()["cluster"]``
        section when this backend serves a :class:`ClassificationService`)."""
        rows = []
        for worker_id in sorted(self._workers):
            handle = self._workers[worker_id]
            row: Dict[str, Any] = {
                "worker": worker_id,
                "generation": handle.generation,
                "state": handle.state,
                "resident": dict(handle.resident),
            }
            if handle.live:
                reply = self._rpc(handle, {"op": "stats"})
                handle.resident = reply["resident"]
                row["resident"] = dict(reply["resident"])
                row["queries"] = reply["queries"]
                row["hits"] = reply["hits"]
                row["pid"] = handle.process.pid
            rows.append(row)
        return {
            "workers": rows,
            "live_workers": len(self.live_workers()),
            "segment_dir": self.segment_dir,
            "content_hash": self.content_hash,
            "restarts": self._restart_count,
        }

    def close(self) -> None:
        """Exit every live worker; idempotent."""
        if self._closed:
            return
        self._closed = True
        for worker_id in self.live_workers():
            self._retire(self._workers[worker_id])

    def __enter__(self) -> "ClusterBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass
