"""Forked shard-worker process: one partition of the reference.

``worker_main`` is the entry point of every cluster worker process
(spawned by :class:`repro.cluster.ClusterBackend` over the fleet's
fork context).  A worker:

* runs the fleet's per-process init (:func:`repro.fleet.worker_init`)
  so nesting is marked and the runtime sanitizers re-install when the
  parent ran sanitized;
* opens the reference via :meth:`KmerDatabase.open_mmap` on the
  content-hashed segment directory — **zero-copy**: the sorted record
  arrays are memory-mapped, no dict build, and the pages are shared
  with every sibling worker through the page cache;
* slices out *only its own partition* — the records whose cache key
  hashes to its worker id (a boolean-mask subset of the mapped arrays,
  memory proportional to its share of the k-mer space — no worker
  materializes the full database);
* answers ``query`` messages — a ``uint64`` array of cache keys, which
  the parent already canonicalized to route the batch — with a ``hit``
  bool array and a ``payload`` int64 array (0 where the key missed),
  by binary search over its slice.  A key that hashes to another
  worker is a routing bug and fails loudly instead of returning a
  wrong miss.

The parent speaks a tiny pickled-dict protocol over a
``multiprocessing.Pipe``: ``query`` / ``stats`` / ``exit``.  Every
request gets exactly one reply; worker-side exceptions are reported as
``{"ok": False, "error": ...}`` before the process exits, so the
parent can convert them into :class:`~repro.cluster.ClusterError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

import numpy as np

from ..genomics.database import KmerDatabase
from .partition import partition_ids


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to come up (picklable)."""

    worker_id: int
    generation: int
    segment_dir: str
    workers: int
    sanitize: bool = False


class PartitionStore:
    """One worker's partition of an mmap-opened reference."""

    def __init__(self, segment_dir: str, worker_id: int, workers: int) -> None:
        if not 0 <= worker_id < workers:
            raise ValueError(
                f"worker {worker_id} out of range [0, {workers})"
            )
        self.database = KmerDatabase.open_mmap(segment_dir)
        all_keys, all_payloads = self.database.record_arrays()
        self.worker_id = worker_id
        self.workers = workers
        self.total_records = int(all_keys.size)
        # Materialized subset (not a view): memory is proportional to
        # the worker's share, and lookups touch a dense array instead
        # of striding the full mapping.
        mine = partition_ids(all_keys, workers) == worker_id
        self.keys = all_keys[mine]
        self.payloads = all_payloads[mine]

    def query(self, keys: Any) -> Tuple[np.ndarray, np.ndarray]:
        """Answer a routed sub-batch of cache keys over the slice, in order.

        Returns ``(hit, payload)``: a bool array and an int64 array of
        the same length as ``keys``, with payload 0 at every miss.
        """
        lookup = np.asarray(keys, dtype=np.uint64)
        owners = partition_ids(lookup, self.workers)
        foreign = owners != self.worker_id
        if bool(foreign.any()):
            raise ValueError(
                f"cache key {int(lookup[foreign][0])} routed to worker "
                f"{self.worker_id}, which does not own it (owner: worker "
                f"{int(owners[foreign][0])})"
            )
        positions = np.searchsorted(self.keys, lookup)
        in_range = positions < self.keys.size
        hit = np.zeros(lookup.size, dtype=bool)
        hit[in_range] = self.keys[positions[in_range]] == lookup[in_range]
        payload = np.zeros(lookup.size, dtype=np.int64)
        payload[hit] = self.payloads[positions[hit]]
        return hit, payload

    def resident(self) -> Dict[str, Any]:
        """What this process actually holds (smoke-test assertion)."""
        capabilities = self.database.capabilities()
        return {
            "source": self.database.source,
            "content_hash": self.database.content_hash,
            "kind": capabilities.kind,
            "degraded": capabilities.degraded,
            "full_build": False,
            "owned_records": int(self.keys.size),
            "total_records": self.total_records,
        }


def worker_main(conn, spec: WorkerSpec) -> None:
    """Worker process body: open, slice, serve, exit on request."""
    from ..fleet import worker_init

    worker_init(spec.sanitize)
    try:
        store = PartitionStore(
            spec.segment_dir, spec.worker_id, spec.workers
        )
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        _try_send(conn, {"ok": False, "error": repr(exc)})
        conn.close()
        return
    queries = 0
    hits = 0
    _try_send(
        conn,
        {
            "ok": True,
            "event": "ready",
            "worker_id": spec.worker_id,
            "generation": spec.generation,
            "resident": store.resident(),
        },
    )
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break  # parent went away; nothing left to serve
            op = message.get("op")
            try:
                if op == "query":
                    hit, payload = store.query(message["keys"])
                    queries += int(hit.size)
                    hits += int(hit.sum())
                    conn.send(
                        {
                            "ok": True,
                            "qid": message["qid"],
                            "hit": hit,
                            "payload": payload,
                        }
                    )
                elif op == "stats":
                    conn.send(
                        {
                            "ok": True,
                            "queries": queries,
                            "hits": hits,
                            "resident": store.resident(),
                        }
                    )
                elif op == "exit":
                    conn.send({"ok": True, "event": "bye"})
                    break
                else:
                    conn.send(
                        {"ok": False, "error": f"unknown op {op!r}"}
                    )
            except Exception as exc:  # noqa: BLE001 - reported, then die
                _try_send(conn, {"ok": False, "error": repr(exc)})
                break
    finally:
        conn.close()


def _try_send(conn, payload: Dict[str, Any]) -> None:
    try:
        conn.send(payload)
    except (BrokenPipeError, OSError):  # parent already gone
        pass
