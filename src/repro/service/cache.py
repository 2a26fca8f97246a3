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
  oldest-first tie-break) cache of :class:`~repro.api.BackendResult`
  keyed by the canonical form for canonical backends
  (:func:`repro.genomics.encoding.canonical_kmers` over the whole
  batch) and by the raw packed value otherwise.  A cached key skips
  the device entirely.

Identity is the contract: a backend answers a given k-mer the same way
every time (the device is deterministic and replicas are built from the
same reference), and canonical backends answer a k-mer and its reverse
complement identically — so serving a recorded answer is bit-identical
to re-querying, for classification purposes (``hit``/``payload``; the
recorded device micro-events ride along).  ``ServiceConfig.
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

import heapq
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..api import BackendResult
from ..genomics.encoding import canonical_kmers


class CacheError(RuntimeError):
    """Base class for service-cache failures."""


class CacheCoherencyError(CacheError):
    """A cached/deduped answer diverged from the device's fresh answer.

    Raised only in ``cache_self_check`` (shadow) mode — the mode's
    whole point is to turn a silently wrong cache into a loud failure.
    """


class _Entry:
    """One cached result with its LFU bookkeeping."""

    __slots__ = ("result", "freq", "seq")

    def __init__(self, result: BackendResult, freq: int, seq: int) -> None:
        self.result = result
        self.freq = freq
        #: Insertion sequence number — the deterministic eviction
        #: tie-break (equal frequency evicts the oldest insertion).
        self.seq = seq


@dataclass(frozen=True)
class BatchCachePlan:
    """How one coalesced batch splits into cached vs device work.

    Built by :meth:`KmerResultCache.plan` on the event-loop thread at
    batch launch.  ``cached`` snapshots the hit templates at plan time,
    so evictions that happen while the device batch is in flight can
    never lose an answer the plan already promised.
    """

    #: The batch's flat k-mers, in request order (what ``_finish``
    #: slices per request), as a ``uint64`` array.
    queries: np.ndarray
    #: Every distinct cache key of the batch, in first-occurrence order
    #: (canonical form when the backend canonicalizes).
    unique_keys: Tuple[int, ...]
    #: Per flat position, the index of its key in ``unique_keys``.
    slots: np.ndarray
    #: Unique missed keys in first-occurrence order — the device's
    #: actual work list under dedup.
    device_keys: Tuple[int, ...]
    #: Representative original k-mer per device key (its first
    #: occurrence in ``queries``) — what is actually sent to the backend.
    device_kmers: Tuple[int, ...]
    #: First-occurrence position in ``queries`` per device key (shadow
    #: mode extracts the device's answers from the full batch here).
    device_positions: Tuple[int, ...]
    #: Hit templates snapshotted at plan time, keyed by cache key.
    cached: Dict[int, BackendResult]

    @property
    def total_kmers(self) -> int:
        return int(self.queries.size)

    @property
    def unique_kmers(self) -> int:
        return len(self.unique_keys)

    @property
    def cache_hits(self) -> int:
        return len(self.cached)

    @property
    def dedup_kmers(self) -> int:
        """Positions folded onto an earlier occurrence in this batch."""
        return self.total_kmers - self.unique_kmers

    @property
    def saved_kmers(self) -> int:
        """Device k-mers avoided vs the uncached path (dedup + hits)."""
        return self.total_kmers - len(self.device_keys)


class KmerResultCache:
    """Deterministic LFU cache of per-k-mer backend answers.

    ``capacity`` bounds stored entries; ``capacity=0`` disables storage
    entirely but :meth:`plan` still dedups within each batch (the
    ``ServiceConfig.dedup``-only mode).  Eviction is least-frequent
    first with oldest-insertion tie-break — both orderings are pure
    functions of the request stream, so in the service's deterministic
    mode the cache state (and every counter below) replays exactly.

    Entries never touched since insertion (frequency 1) sit in an
    insertion-ordered queue: any of them is less frequent than every
    touched entry, and among themselves the oldest goes first, so the
    queue head is the victim whenever the queue is non-empty.  Only
    touched entries pay for the heap.
    """

    def __init__(self, capacity: int, k: int, canonical: bool) -> None:
        if capacity < 0:
            raise CacheError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.k = k
        self.canonical = canonical
        self._entries: Dict[int, _Entry] = {}
        #: Keys of the frequency-1 entries, oldest insertion first.
        self._fresh: "OrderedDict[int, None]" = OrderedDict()
        #: Lazy-deletion LFU heap of ``(freq, seq, key)`` over touched
        #: entries (freq >= 2); stale tuples (freq no longer current,
        #: or key evicted) are skipped on pop.
        self._heap: List[Tuple[int, int, int]] = []
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
        return len(self._entries)

    # -- batch planning (event-loop thread only) ---------------------------

    def plan(self, flat: Sequence[int]) -> BatchCachePlan:
        """Split a flat batch into cached hits and device work.

        Counts every lookup, touches hit entries' frequencies (weighted
        by their occurrence count in the batch — hotness is per
        request, not per unique key), and snapshots hit templates.
        Keys and their first occurrences are found with array
        operations; only the distinct keys are probed one by one.
        """
        queries = np.asarray(flat, dtype=np.uint64)
        keys = canonical_kmers(queries, self.k) if self.canonical else queries
        unique, first, inverse, counts = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True
        )
        # np.unique orders by key value; the plan keeps first-occurrence
        # order, so rank the distinct keys by where they first appear.
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        unique_keys = unique[order].tolist()
        first_pos = first[order].tolist()
        cached: Dict[int, BackendResult] = {}
        device_keys: List[int] = []
        device_positions: List[int] = []
        entries = self._entries
        hit_kmers = 0
        for key, pos, count in zip(
            unique_keys, first_pos, counts[order].tolist()
        ):
            entry = entries.get(key)
            if entry is not None:
                cached[key] = entry.result
                self._touch(key, entry, count)
                hit_kmers += count
            else:
                device_keys.append(key)
                device_positions.append(pos)
        plan = BatchCachePlan(
            queries=queries,
            unique_keys=tuple(unique_keys),
            slots=rank[inverse.reshape(-1)],
            device_keys=tuple(device_keys),
            device_kmers=tuple(queries[device_positions].tolist()),
            device_positions=tuple(device_positions),
            cached=cached,
        )
        self.batches += 1
        self.lookup_kmers += plan.total_kmers
        self.hit_keys += len(cached)
        self.hit_kmers += hit_kmers
        self.miss_keys += len(device_keys)
        self.dedup_kmers += plan.dedup_kmers
        self.device_kmers += len(device_keys)
        return plan

    def complete(
        self, plan: BatchCachePlan, device_results: Sequence[BackendResult]
    ) -> List[BackendResult]:
        """Reassemble the full result list and absorb the new answers.

        ``device_results`` answers ``plan.device_kmers`` in order.  The
        returned list matches ``plan.queries`` position for position, so
        the dispatcher's per-request response slicing is untouched by
        caching.  Fan-out rewrites a template's ``query`` field to the
        k-mer actually requested wherever the two differ (a canonical
        backend may serve one stored record to both strands).
        """
        if len(device_results) != len(plan.device_keys):
            raise CacheError(
                f"device answered {len(device_results)} k-mers, plan sent "
                f"{len(plan.device_keys)}"
            )
        by_key: Dict[int, BackendResult] = dict(plan.cached)
        by_key.update(zip(plan.device_keys, device_results))
        self._absorb(plan.device_keys, device_results)
        templates = [by_key[key] for key in plan.unique_keys]
        full = [templates[slot] for slot in plan.slots.tolist()]
        template_queries = np.fromiter(
            (t.query for t in templates), dtype=np.uint64, count=len(templates)
        )
        strand_changed = np.flatnonzero(
            template_queries[plan.slots] != plan.queries
        )
        for pos in strand_changed.tolist():
            full[pos] = replace(full[pos], query=int(plan.queries[pos]))
        return full

    def self_check(
        self,
        plan: BatchCachePlan,
        served: Sequence[BackendResult],
        reference: Sequence[BackendResult],
    ) -> None:
        """Shadow-mode verification: served answers must equal the
        device's fresh answers on ``(query, hit, payload)`` — the
        fields classification depends on.  Raises
        :class:`CacheCoherencyError` on the first divergence."""
        if len(served) != len(reference):
            raise CacheCoherencyError(
                f"cache served {len(served)} results for a batch of "
                f"{len(reference)}"
            )
        for pos, (got, want) in enumerate(zip(served, reference)):
            if (got.query, got.hit, got.payload) != (
                want.query,
                want.hit,
                want.payload,
            ):
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
        self, keys: Sequence[int], results: Sequence[BackendResult]
    ) -> None:
        """Store a batch's device answers, in device order; an insert
        into a full cache first evicts one victim."""
        if self.capacity <= 0:
            return
        entries = self._entries
        fresh = self._fresh
        capacity = self.capacity
        seq = self._seq
        inserted = 0
        for key, result in zip(keys, results):
            entry = entries.get(key)
            if entry is not None:
                # Shadow mode, or another shard's batch, can re-answer
                # an already-cached key; keep the original record (it
                # is identical) and count the touch.
                self._touch(key, entry, 1)
                continue
            if len(entries) >= capacity:
                self._evict_one()
            seq += 1
            entries[key] = _Entry(result, 1, seq)
            fresh[key] = None
            inserted += 1
        self._seq = seq
        self.insertions += inserted

    def _touch(self, key: int, entry: _Entry, count: int) -> None:
        """Raise an entry's frequency by ``count``."""
        if entry.freq == 1:
            del self._fresh[key]
        entry.freq += count
        heapq.heappush(self._heap, (entry.freq, entry.seq, key))

    def _evict_one(self) -> int:
        """Drop the least-frequent, oldest entry; returns its key."""
        if self._fresh:
            key, _ = self._fresh.popitem(last=False)
        else:
            while True:
                if not self._heap:  # pragma: no cover
                    raise CacheError("eviction requested from an empty cache")
                freq, seq, key = heapq.heappop(self._heap)
                entry = self._entries.get(key)
                if entry is not None and (entry.freq, entry.seq) == (freq, seq):
                    break
                # else: stale heap tuple (touched since push)
        del self._entries[key]
        self.evictions += 1
        return key

    # -- observability -----------------------------------------------------

    def counters(self) -> Dict[str, Any]:
        """JSON-serializable cache state for ``stats()["cache"]``."""
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
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
