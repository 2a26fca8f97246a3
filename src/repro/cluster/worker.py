"""Forked shard-worker process: owned-partition slice of the reference.

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
* slices out *only the partitions it owns* (a boolean-mask subset of
  the mapped arrays, memory proportional to its share of the k-mer
  space — no worker materializes the full database);
* answers ``query`` messages — a ``uint64`` array of k-mers — with a
  ``hit`` bool array and a ``payload`` int64 array (0 where the k-mer
  missed), by binary search over its owned slice.  A k-mer whose
  partition the worker does not own is a routing bug and fails loudly
  instead of returning a wrong miss.

The parent speaks a tiny pickled-dict protocol over a
``multiprocessing.Pipe``: ``query`` / ``stats`` / ``own`` (replace the
owned partition set — a rebalance handoff) / ``exit``.  Every request
gets exactly one reply; worker-side exceptions are reported as
``{"ok": False, "error": ...}`` before the process exits, so the
parent can convert them into :class:`~repro.cluster.ClusterError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Tuple

import numpy as np

from ..genomics.database import KmerDatabase
from ..genomics.encoding import canonical_kmers
from .partition import partition_ids


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to come up (picklable)."""

    worker_id: int
    generation: int
    segment_dir: str
    partitions: Tuple[int, ...]
    num_partitions: int
    sanitize: bool = False


class PartitionStore:
    """The owned-partition slice of an mmap-opened reference."""

    def __init__(
        self,
        segment_dir: str,
        partitions: Iterable[int],
        num_partitions: int,
    ) -> None:
        self.database = KmerDatabase.open_mmap(segment_dir)
        all_keys, all_payloads = self.database.record_arrays()
        self._all_keys = all_keys
        self._all_payloads = all_payloads
        self.num_partitions = num_partitions
        # Partition id of every reference record, computed once per
        # process; re-owning (a handoff) only re-applies the mask.
        self._record_partitions = partition_ids(all_keys, num_partitions)
        self.owned: frozenset = frozenset()
        self.keys = all_keys[:0]
        self.payloads = all_payloads[:0]
        self.set_partitions(partitions)

    def set_partitions(self, partitions: Iterable[int]) -> None:
        """Replace the owned set and re-slice the record arrays."""
        owned = sorted(int(p) for p in partitions)
        for p in owned:
            if not 0 <= p < self.num_partitions:
                raise ValueError(
                    f"partition {p} out of range [0, {self.num_partitions})"
                )
        mask = np.isin(
            self._record_partitions, np.asarray(owned, dtype=np.int64)
        )
        # Materialized subset (not a view): memory is proportional to
        # the owned share, and lookups touch a dense array instead of
        # striding the full mapping.
        self.keys = self._all_keys[mask]
        self.payloads = self._all_payloads[mask]
        self.owned = frozenset(owned)

    @property
    def k(self) -> int:
        return self.database.k

    @property
    def canonical(self) -> bool:
        return self.database.canonical

    def query(self, kmers: Any) -> Tuple[np.ndarray, np.ndarray]:
        """Answer a routed sub-batch over the owned slice, in order.

        Returns ``(hit, payload)``: a bool array and an int64 array of
        the same length as ``kmers``, with payload 0 at every miss.
        """
        queries = np.asarray(kmers, dtype=np.uint64)
        lookup = (
            canonical_kmers(queries, self.k) if self.canonical else queries
        )
        parts = partition_ids(lookup, self.num_partitions)
        owned = np.asarray(sorted(self.owned), dtype=np.int64)
        foreign = ~np.isin(parts, owned)
        if bool(foreign.any()):
            bad = int(queries[foreign][0])
            raise ValueError(
                f"k-mer {bad} routed to a worker that does not own "
                f"partition {int(parts[foreign][0])} (owned: "
                f"{sorted(self.owned)})"
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
            "owned_partitions": sorted(self.owned),
            "owned_records": int(self.keys.size),
            "total_records": int(self._all_keys.size),
        }


def worker_main(conn, spec: WorkerSpec) -> None:
    """Worker process body: open, slice, serve, exit on request."""
    from ..fleet import worker_init

    worker_init(spec.sanitize)
    try:
        store = PartitionStore(
            spec.segment_dir, spec.partitions, spec.num_partitions
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
                    hit, payload = store.query(message["kmers"])
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
                elif op == "own":
                    store.set_partitions(message["partitions"])
                    conn.send(
                        {"ok": True, "resident": store.resident()}
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
