"""Hot-k-mer result cache + cross-request dedup for the dispatcher.

The paper's metagenomic traffic is heavily skewed: reads share
reference prefixes, so a small set of hot k-mers is re-queried
massively across concurrent requests.  This module exploits that skew
*without* changing a single answer:

* **cross-request dedup** — inside one coalesced micro-batch, every
  unique k-mer is sent to the device at most once; the answer fans back
  out to every position (and thus every requesting future) that asked
  for it.
* **hot-k-mer result cache** — a deterministic frequency-aware (LFU,
  oldest-first tie-break) cache of per-k-mer ``(hit, payload)`` answers
  keyed by the canonical form for canonical backends
  (:func:`repro.genomics.encoding.canonical_kmers` over the whole
  batch) and by the raw packed value otherwise.  A cached key skips
  the device entirely.

Both run on columns: :meth:`KmerResultCache.plan` and
:meth:`~KmerResultCache.complete` take and return
:class:`~repro.api.ResultBatch` arrays, and the store itself is
sorted-key arrays, so no per-k-mer record is built on the way.

Identity is the contract: a backend answers a given k-mer the same way
every time (the device is deterministic and replicas are built from the
same reference), and canonical backends answer a k-mer and its reverse
complement identically — so serving a recorded answer is bit-identical
to re-querying, for classification purposes (``hit``/``payload``; the
device's micro-events are not recorded).  ``ServiceConfig.
cache_self_check`` runs the cache in *shadow mode*: the device still
executes the full batch and every cache/dedup answer is compared
against it position by position — a mismatch raises
:class:`CacheCoherencyError` instead of serving a wrong answer.

Concurrency: one cache is shared by every shard of a service, and it is
only ever touched from the event-loop thread (:meth:`plan` at batch
launch, :meth:`complete` at batch retirement) — the executor threads
only see the flat k-mer list.  With ``executor_threads > 0`` the
*order* of plan/complete interleavings across shards can vary run to
run, which may shift hit/miss counters; the served answers are
identical regardless (a hit serves exactly what a fresh query would
return).  In the deterministic single-threaded mode every counter is a
pure function of the request stream.

This module never reads the wall clock (SV012); batch costs are priced
by the dispatcher and passed into :meth:`price_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence, Tuple, Union

import numpy as np

from ..api import BackendResult, ResultBatch
from ..genomics.encoding import canonical_kmers


class CacheError(RuntimeError):
    """Base class for service-cache failures."""


class CacheCoherencyError(CacheError):
    """A cached/deduped answer diverged from the device's fresh answer.

    Raised only in ``cache_self_check`` (shadow) mode — the mode's
    whole point is to turn a silently wrong cache into a loud failure.
    """


class _LfuStore:
    """The cached answers as columns sorted by key.

    ``keys`` (ascending ``uint64``) with aligned ``hit``, ``payload`` (0
    at a miss), ``freq`` (lookups since insertion, counting the insert)
    and ``seq`` (insertion sequence number, the eviction tie-break).
    Lookups are one ``searchsorted``; a batch's evictions and inserts
    are merged in with one pass over each column, never a re-sort.
    """

    __slots__ = ("keys", "hit", "payload", "freq", "seq")

    def __init__(self) -> None:
        self.keys = np.zeros(0, dtype=np.uint64)
        self.hit = np.zeros(0, dtype=bool)
        self.payload = np.zeros(0, dtype=np.int64)
        self.freq = np.zeros(0, dtype=np.int64)
        self.seq = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.keys.size)

    def find(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(row, found)`` per key; ``row`` is -1 where not found."""
        row = np.full(keys.size, -1, dtype=np.int64)
        if self.keys.size:
            rows = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
            found = self.keys[rows] == keys
            row[found] = rows[found]
        return row, row >= 0

    def oldest_fresh(self, count: int) -> np.ndarray:
        """Rows of the (up to) ``count`` oldest frequency-1 entries,
        oldest first."""
        fresh = np.flatnonzero(self.freq == 1)
        if count < fresh.size:
            fresh = fresh[np.argpartition(self.seq[fresh], count - 1)[:count]]
        return fresh[np.argsort(self.seq[fresh])]

    def least_used(self) -> np.ndarray:
        """Row of the least ``(freq, seq)`` entry, as a 1-array."""
        least = np.flatnonzero(self.freq == self.freq.min())
        return least[np.argmin(self.seq[least])].reshape(1)

    def replace(
        self,
        drop: np.ndarray,
        keys: np.ndarray,
        hit: np.ndarray,
        payload: np.ndarray,
        seq: np.ndarray,
    ) -> None:
        """Delete rows ``drop``, then insert absent ``keys`` at
        frequency 1."""
        keep: Any = slice(None)  # every row, without a copy
        if drop.size:
            keep = np.ones(self.keys.size, dtype=bool)
            keep[drop] = False
        kept = self.keys[keep]
        order = np.argsort(keys)
        # Row of each new key after the merge: its insertion point among
        # the kept keys plus the new keys merged before it.
        new_rows = np.searchsorted(kept, keys[order]) + np.arange(keys.size)
        old_rows = np.ones(kept.size + keys.size, dtype=bool)
        old_rows[new_rows] = False
        for name, values in (
            ("keys", keys[order]),
            ("hit", hit[order]),
            ("payload", payload[order]),
            ("freq", 1),
            ("seq", seq[order]),
        ):
            column = getattr(self, name)
            merged = np.empty(old_rows.size, dtype=column.dtype)
            merged[old_rows] = column[keep]
            merged[new_rows] = values
            setattr(self, name, merged)


@dataclass(frozen=True)
class BatchCachePlan:
    """How one coalesced batch splits into cached vs device work.

    Built by :meth:`KmerResultCache.plan` on the event-loop thread at
    batch launch.  ``unique_hit``/``unique_payload`` snapshot the cached
    answers at plan time, so evictions that happen while the device
    batch is in flight can never lose an answer the plan already
    promised.
    """

    #: The batch's flat k-mers, in request order (what ``_finish``
    #: slices per request), as a ``uint64`` array.
    queries: np.ndarray
    #: Every distinct cache key of the batch, in first-occurrence order
    #: (canonical form when the backend canonicalizes).
    unique_keys: np.ndarray
    #: Per flat position, the index of its key in ``unique_keys``.
    slots: np.ndarray
    #: Per unique key: answered from the cache (True) or by the device.
    cached: np.ndarray
    #: Per unique key, the cached answer (False / 0 for device keys
    #: until :meth:`KmerResultCache.complete` fills them in).
    unique_hit: np.ndarray
    unique_payload: np.ndarray
    #: Unique missed keys in first-occurrence order — the device's
    #: actual work list under dedup.
    device_keys: np.ndarray
    #: Representative original k-mer per device key (its first
    #: occurrence in ``queries``) — what is actually sent to the backend.
    device_kmers: np.ndarray
    #: First-occurrence position in ``queries`` per device key (shadow
    #: mode takes the device's answers from the full batch here).
    device_positions: np.ndarray

    @property
    def total_kmers(self) -> int:
        return int(self.queries.size)

    @property
    def unique_kmers(self) -> int:
        return int(self.unique_keys.size)

    @property
    def cache_hits(self) -> int:
        return self.unique_kmers - int(self.device_keys.size)

    @property
    def dedup_kmers(self) -> int:
        """Positions folded onto an earlier occurrence in this batch."""
        return self.total_kmers - self.unique_kmers

    @property
    def saved_kmers(self) -> int:
        """Device k-mers avoided vs the uncached path (dedup + hits)."""
        return self.total_kmers - int(self.device_keys.size)


class KmerResultCache:
    """Deterministic LFU cache of per-k-mer backend answers.

    ``capacity`` bounds stored entries; ``capacity=0`` disables storage
    entirely but :meth:`plan` still dedups within each batch (the
    ``ServiceConfig.dedup``-only mode).  Eviction is least-frequent
    first with oldest-insertion tie-break — both orderings are pure
    functions of the request stream, so in the service's deterministic
    mode the cache state (and every counter below) replays exactly.

    The store is sorted-key columns (:class:`_LfuStore`).  A batch's
    device answers are absorbed in device order with the exact result
    of inserting them one by one, each insert into a full cache first
    evicting the least ``(freq, seq)`` entry; the victims are computed
    with array operations (see :meth:`_insert_run`).
    """

    def __init__(self, capacity: int, k: int, canonical: bool) -> None:
        if capacity < 0:
            raise CacheError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.k = k
        self.canonical = canonical
        self._store = _LfuStore()
        self._seq = 0
        # -- counters (all pure functions of the request stream in
        # deterministic mode) --
        self.batches = 0
        self.lookup_kmers = 0
        self.hit_keys = 0
        self.hit_kmers = 0
        self.miss_keys = 0
        self.dedup_kmers = 0
        self.device_kmers = 0
        self.insertions = 0
        self.evictions = 0
        self.self_checked_kmers = 0
        # -- two-clock savings, priced at the observed per-device-k-mer
        # batch cost (see price_batch) --
        self.saved_sim_ns = 0.0
        self.saved_wall_ms = 0.0
        self._priced_sim_ns = 0.0
        self._priced_wall_ms = 0.0
        self._priced_device_kmers = 0

    def __len__(self) -> int:
        return len(self._store)

    # -- batch planning (event-loop thread only) ---------------------------

    def plan(self, flat: Sequence[int]) -> BatchCachePlan:
        """Split a flat batch into cached hits and device work.

        Counts every lookup, touches hit entries' frequencies (weighted
        by their occurrence count in the batch — hotness is per
        request, not per unique key), and snapshots their answers.
        Keys, first occurrences and cache hits are all found with array
        operations.
        """
        queries = np.asarray(flat, dtype=np.uint64)
        keys = canonical_kmers(queries, self.k) if self.canonical else queries
        unique, first, inverse, counts = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True
        )
        store = self._store
        row, found = store.find(unique)
        hit_rows = row[found]
        np.add.at(store.freq, hit_rows, counts[found])
        # np.unique orders by key value; the plan keeps first-occurrence
        # order, so rank the distinct keys by where they first appear.
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        unique_hit = np.zeros(unique.size, dtype=bool)
        unique_payload = np.zeros(unique.size, dtype=np.int64)
        unique_hit[found] = store.hit[hit_rows]
        unique_payload[found] = store.payload[hit_rows]
        cached = found[order]
        device_index = np.flatnonzero(~cached)
        device_positions = first[order][device_index]
        unique_keys = unique[order]
        plan = BatchCachePlan(
            queries=queries,
            unique_keys=unique_keys,
            slots=rank[inverse.reshape(-1)],
            cached=cached,
            unique_hit=unique_hit[order],
            unique_payload=unique_payload[order],
            device_keys=unique_keys[device_index],
            device_kmers=queries[device_positions],
            device_positions=device_positions,
        )
        device = int(device_index.size)
        self.batches += 1
        self.lookup_kmers += plan.total_kmers
        self.hit_keys += plan.cache_hits
        self.hit_kmers += int(counts[found].sum())
        self.miss_keys += device
        self.dedup_kmers += plan.dedup_kmers
        self.device_kmers += device
        return plan

    def complete(
        self,
        plan: BatchCachePlan,
        device_results: Union[ResultBatch, Sequence[BackendResult]],
    ) -> ResultBatch:
        """Fan the answers out to every position and absorb the new ones.

        ``device_results`` answers ``plan.device_kmers`` in order.  The
        returned batch matches ``plan.queries`` position for position
        (its ``queries`` column *is* ``plan.queries``), so the
        dispatcher's per-request slicing is untouched by caching and a
        canonical key serves both strands under the k-mer each asked.
        """
        device = ResultBatch.from_results(device_results)
        if len(device) != plan.device_keys.size:
            raise CacheError(
                f"device answered {len(device)} k-mers, plan sent "
                f"{plan.device_keys.size}"
            )
        hit = plan.unique_hit.copy()
        payload = plan.unique_payload.copy()
        misses = ~plan.cached
        hit[misses] = device.hit
        payload[misses] = device.payload
        self._absorb(plan.device_keys, device.hit, device.payload)
        return ResultBatch(plan.queries, hit[plan.slots], payload[plan.slots])

    def self_check(
        self,
        plan: BatchCachePlan,
        served: Union[ResultBatch, Sequence[BackendResult]],
        reference: Union[ResultBatch, Sequence[BackendResult]],
    ) -> None:
        """Shadow-mode verification: served answers must equal the
        device's fresh answers on ``(query, hit, payload)`` — the
        fields classification depends on.  Raises
        :class:`CacheCoherencyError` on the first divergence."""
        served = ResultBatch.from_results(served)
        reference = ResultBatch.from_results(reference)
        if len(served) != len(reference):
            raise CacheCoherencyError(
                f"cache served {len(served)} results for a batch of "
                f"{len(reference)}"
            )
        diverged = np.flatnonzero(
            (served.queries != reference.queries)
            | (served.hit != reference.hit)
            | (served.payload != reference.payload)
        )
        if diverged.size:
            pos = int(diverged[0])
            got, want = served[pos], reference[pos]
            raise CacheCoherencyError(
                f"cache divergence at batch position {pos} "
                f"(kmer {plan.queries[pos]}, "
                f"key {plan.unique_keys[plan.slots[pos]]}): "
                f"served hit={got.hit} payload={got.payload}, device "
                f"answered hit={want.hit} payload={want.payload}"
            )
        self.self_checked_kmers += len(served)

    def price_batch(
        self,
        plan: BatchCachePlan,
        device_executed_kmers: int,
        sim_ns: float,
        wall_ms: float,
    ) -> None:
        """Accrue two-clock savings for one batch.

        ``device_executed_kmers`` is what the backend actually ran
        (``len(plan.device_keys)`` normally; the full batch in shadow
        mode), and ``sim_ns``/``wall_ms`` its measured cost.  Saved
        k-mers (dedup folds + cache hits) are priced at this batch's
        per-device-k-mer cost, falling back to the running average when
        the whole batch was served from cache.  Deterministic on the
        simulated clock; the wall figure inherits host timing noise and
        is reported but never baseline-compared.
        """
        if device_executed_kmers > 0:
            self._priced_sim_ns += sim_ns
            self._priced_wall_ms += wall_ms
            self._priced_device_kmers += device_executed_kmers
            per_ns = sim_ns / device_executed_kmers
            per_ms = wall_ms / device_executed_kmers
        elif self._priced_device_kmers > 0:
            per_ns = self._priced_sim_ns / self._priced_device_kmers
            per_ms = self._priced_wall_ms / self._priced_device_kmers
        else:
            return
        self.saved_sim_ns += plan.saved_kmers * per_ns
        self.saved_wall_ms += plan.saved_kmers * per_ms

    # -- LFU internals -----------------------------------------------------

    def _absorb(
        self, keys: np.ndarray, hit: np.ndarray, payload: np.ndarray
    ) -> np.ndarray:
        """Store a batch's device answers, in device order; returns the
        evicted keys in eviction order.

        A key already stored (shadow mode, or another shard's batch
        answered it since this batch's plan) keeps its original record
        (it is identical) and counts a touch instead — unless an
        earlier insert of this absorb evicted it, in which case it is
        inserted again.  The answers between two such keys are new and
        go in as one :meth:`_insert_run`.
        """
        if self.capacity <= 0:
            return keys[:0]
        store = self._store
        evicted = []
        start = 0
        for i in np.flatnonzero(store.find(keys)[1]).tolist():
            evicted.append(
                self._insert_run(keys[start:i], hit[start:i], payload[start:i])
            )
            row, found = store.find(keys[i : i + 1])
            if found[0]:
                store.freq[row[0]] += 1
                start = i + 1
            else:
                start = i
        evicted.append(
            self._insert_run(keys[start:], hit[start:], payload[start:])
        )
        return np.concatenate(evicted)

    def _insert_run(
        self, keys: np.ndarray, hit: np.ndarray, payload: np.ndarray
    ) -> np.ndarray:
        """Insert absent keys in order, as one-by-one inserts would;
        returns the evicted keys in eviction order.

        Inserting one key at a time, each into a full cache evicting the
        least ``(freq, seq)`` entry, has a closed form.  Frequency-1
        entries are the least frequent and leave in insertion order, and
        every new key joins them at the back.  So while the store has a
        free slot or a frequency-1 entry when the run starts, the victims
        are the head of ``[stored frequency-1 entries by seq] + keys``.
        Otherwise (full, every entry touched) the first victim is the
        least ``(freq, seq)`` touched entry and each later insert evicts
        the run's previous new key, so only the last one stays.
        """
        count = int(keys.size)
        if count == 0:
            return keys
        store = self._store
        seq = self._seq + 1 + np.arange(count, dtype=np.int64)
        self._seq += count
        self.insertions += count
        free = self.capacity - len(store)
        evictions = max(0, count - free)
        drop = np.zeros(0, dtype=np.int64)
        skipped = 0  # leading run keys evicted by later inserts
        if evictions:
            drop = store.oldest_fresh(evictions)
            skipped = evictions - drop.size
            if drop.size + free == 0:
                drop = store.least_used()
                skipped = evictions - 1
            self.evictions += evictions
        victims = np.concatenate([store.keys[drop], keys[:skipped]])
        store.replace(
            drop, keys[skipped:], hit[skipped:], payload[skipped:], seq[skipped:]
        )
        return victims

    # -- observability -----------------------------------------------------

    def counters(self) -> Dict[str, Any]:
        """JSON-serializable cache state for ``stats()["cache"]``."""
        return {
            "capacity": self.capacity,
            "entries": len(self._store),
            "canonical_keys": self.canonical,
            "batches": self.batches,
            "lookup_kmers": self.lookup_kmers,
            "hit_keys": self.hit_keys,
            "hit_kmers": self.hit_kmers,
            "miss_keys": self.miss_keys,
            "dedup_kmers": self.dedup_kmers,
            "device_kmers": self.device_kmers,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "self_checked_kmers": self.self_checked_kmers,
            # Positions never sent to the device (dedup folds + cache
            # hits).  Not ``dedup + hit_kmers``: dedup already counts
            # the repeat occurrences of hit keys.
            "saved_kmers": self.lookup_kmers - self.device_kmers,
            "hit_rate": (
                self.hit_kmers / self.lookup_kmers
                if self.lookup_kmers
                else 0.0
            ),
            "saved_sim_ns": self.saved_sim_ns,
            "saved_wall_ms": self.saved_wall_ms,
        }


__all__ = [
    "BatchCachePlan",
    "CacheCoherencyError",
    "CacheError",
    "KmerResultCache",
]
