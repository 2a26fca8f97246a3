"""Oracle property test: the array-native cache against the scalar one.

``KmerResultCache.plan``/``complete`` find keys, first occurrences and
strand rewrites with array operations, and keep frequency-1 entries in
an insertion-ordered queue instead of the LFU heap.  The reference
below is the per-k-mer implementation they replaced, kept verbatim in
behaviour: one Python step per k-mer, every entry on the heap.  Over
generated multi-batch streams (repeats, reverse-complement pairs,
canonical keys on and off, capacities 0/1/4/16384, shadow mode, and
plan/complete interleavings as multi-shard serving produces them) both
must agree on every plan field, every returned list, every counter,
the stored entries, and the order in which entries were evicted.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from hypothesis import given, settings, strategies as st

from repro.api import BackendResult
from repro.genomics.encoding import cache_key_kmer, revcomp_value
from repro.service.cache import CacheError, KmerResultCache, _Entry

K = 5

PLAN_FIELDS = (
    "device_keys",
    "device_kmers",
    "device_positions",
    "cached",
    "total_kmers",
    "unique_kmers",
    "cache_hits",
    "dedup_kmers",
    "saved_kmers",
)


@dataclass(frozen=True)
class _ScalarPlan:
    flat: Tuple[int, ...]
    keys: Tuple[int, ...]
    device_keys: Tuple[int, ...]
    device_kmers: Tuple[int, ...]
    device_positions: Tuple[int, ...]
    cached: Dict[int, BackendResult]

    @property
    def total_kmers(self) -> int:
        return len(self.flat)

    @property
    def unique_kmers(self) -> int:
        return len(self.device_keys) + len(self.cached)

    @property
    def cache_hits(self) -> int:
        return len(self.cached)

    @property
    def dedup_kmers(self) -> int:
        return len(self.flat) - self.unique_kmers

    @property
    def saved_kmers(self) -> int:
        return len(self.flat) - len(self.device_keys)


class ScalarCache(KmerResultCache):
    """The per-k-mer cache: Python loops over every position, one heap
    tuple per entry.  Counters, pricing and ``self_check`` are shared."""

    def __init__(self, capacity: int, k: int, canonical: bool) -> None:
        super().__init__(capacity, k, canonical)
        self.evicted: List[int] = []

    def plan(self, flat: Sequence[int]) -> _ScalarPlan:
        keys = [cache_key_kmer(int(v), self.k, self.canonical) for v in flat]
        occurrences: Dict[int, int] = {}
        first_pos: Dict[int, int] = {}
        for pos, key in enumerate(keys):
            occurrences[key] = occurrences.get(key, 0) + 1
            if key not in first_pos:
                first_pos[key] = pos
        cached: Dict[int, BackendResult] = {}
        device_keys: List[int] = []
        for key, count in occurrences.items():
            entry = self._entries.get(key)
            if entry is not None:
                cached[key] = entry.result
                entry.freq += count
                heapq.heappush(self._heap, (entry.freq, entry.seq, key))
                self.hit_keys += 1
                self.hit_kmers += count
            else:
                device_keys.append(key)
                self.miss_keys += 1
        plan = _ScalarPlan(
            flat=tuple(int(v) for v in flat),
            keys=tuple(keys),
            device_keys=tuple(device_keys),
            device_kmers=tuple(flat[first_pos[key]] for key in device_keys),
            device_positions=tuple(first_pos[key] for key in device_keys),
            cached=cached,
        )
        self.batches += 1
        self.lookup_kmers += plan.total_kmers
        self.dedup_kmers += plan.dedup_kmers
        self.device_kmers += len(plan.device_keys)
        return plan

    def complete(self, plan, device_results):
        if len(device_results) != len(plan.device_keys):
            raise CacheError("length mismatch")
        by_key: Dict[int, BackendResult] = dict(plan.cached)
        for key, result in zip(plan.device_keys, device_results):
            by_key[key] = result
            self._insert(key, result)
        full: List[BackendResult] = []
        for kmer, key in zip(plan.flat, plan.keys):
            template = by_key[key]
            if template.query != kmer:
                template = replace(template, query=kmer)
            full.append(template)
        return full

    def _insert(self, key: int, result: BackendResult) -> None:
        if self.capacity <= 0:
            return
        entry = self._entries.get(key)
        if entry is not None:
            entry.freq += 1
            heapq.heappush(self._heap, (entry.freq, entry.seq, key))
            return
        while len(self._entries) >= self.capacity:
            self._evict_one()
        self._seq += 1
        entry = _Entry(result, freq=1, seq=self._seq)
        self._entries[key] = entry
        heapq.heappush(self._heap, (entry.freq, entry.seq, key))
        self.insertions += 1

    def _evict_one(self) -> int:
        while self._heap:
            freq, seq, key = heapq.heappop(self._heap)
            entry = self._entries.get(key)
            if entry is None or entry.freq != freq or entry.seq != seq:
                continue
            del self._entries[key]
            self.evictions += 1
            self.evicted.append(key)
            return key
        raise CacheError("eviction requested from an empty heap")


class RecordingCache(KmerResultCache):
    """The production cache, recording its eviction sequence."""

    def __init__(self, capacity: int, k: int, canonical: bool) -> None:
        super().__init__(capacity, k, canonical)
        self.evicted: List[int] = []

    def _evict_one(self) -> int:
        key = super()._evict_one()
        self.evicted.append(key)
        return key


def _answer(kmer: int, canonical: bool) -> BackendResult:
    """A deterministic backend: a canonical one answers both strands of
    a k-mer alike, as the cache's contract requires."""
    key = cache_key_kmer(kmer, K, canonical)
    hit = key % 3 != 0
    return BackendResult(query=kmer, hit=hit, payload=key % 7 if hit else None)


def _serve(cache, plan, flat, canonical: bool, shadow: bool):
    """The dispatcher's completion step (``ShardWorker._finish``)."""
    if shadow:
        results = [_answer(kmer, canonical) for kmer in flat]
        device_results = [results[p] for p in plan.device_positions]
        served = cache.complete(plan, device_results)
        cache.self_check(plan, served, results)
        executed = len(results)
    else:
        served = cache.complete(
            plan, [_answer(kmer, canonical) for kmer in plan.device_kmers]
        )
        executed = len(plan.device_kmers)
    cache.price_batch(plan, executed, 10.0 * executed, 0.5 * executed)
    return served


@st.composite
def _streams(draw):
    base = draw(
        st.lists(st.integers(0, 4**K - 1), min_size=1, max_size=10, unique=True)
    )
    kmer = st.tuples(st.sampled_from(base), st.booleans()).map(
        lambda t: revcomp_value(t[0], K) if t[1] else t[0]
    )
    batches = draw(
        st.lists(st.lists(kmer, max_size=20), min_size=1, max_size=8)
    )
    #: Per batch: complete it before planning the next one (serial
    #: dispatch) or only after the next one is planned (two shards).
    overlap = draw(st.lists(st.booleans(), min_size=len(batches), max_size=len(batches)))
    return batches, overlap


def _state(cache) -> Dict[str, object]:
    return {
        "counters": cache.counters(),
        "entries": [(key, e.freq, e.seq) for key, e in cache._entries.items()],
        "evicted": list(cache.evicted),
    }


@settings(max_examples=150)
@given(
    stream=_streams(),
    canonical=st.booleans(),
    capacity=st.sampled_from([0, 1, 4, 16384]),
    shadow=st.booleans(),
)
def test_array_cache_matches_scalar_oracle(stream, canonical, capacity, shadow):
    batches, overlap = stream
    got_cache = RecordingCache(capacity, K, canonical)
    want_cache = ScalarCache(capacity, K, canonical)
    pending = []
    for flat, defer in zip(batches, overlap):
        got = got_cache.plan(flat)
        want = want_cache.plan(flat)
        for field in PLAN_FIELDS:
            assert getattr(got, field) == getattr(want, field), field
        assert tuple(got.queries.tolist()) == want.flat
        assert tuple(got.unique_keys[s] for s in got.slots.tolist()) == want.keys
        pending.append((flat, got, want))
        while pending and not (defer and len(pending) == 1):
            flat_done, got_plan, want_plan = pending.pop(0)
            assert _serve(got_cache, got_plan, flat_done, canonical, shadow) == _serve(
                want_cache, want_plan, flat_done, canonical, shadow
            )
            assert _state(got_cache) == _state(want_cache)
    for flat_done, got_plan, want_plan in pending:
        assert _serve(got_cache, got_plan, flat_done, canonical, shadow) == _serve(
            want_cache, want_plan, flat_done, canonical, shadow
        )
    assert _state(got_cache) == _state(want_cache)


def test_oracle_sees_evictions_from_both_queues():
    """A fixed stream whose victims alternate between touched entries
    (taken from the heap while no frequency-1 entry exists) and fresh
    ones (which always go first)."""
    got_cache = RecordingCache(2, K, False)
    want_cache = ScalarCache(2, K, False)
    for flat in ([1, 2], [1, 2], [3], [4], [3, 3, 4, 4], [5]):
        for cache in (got_cache, want_cache):
            _serve(cache, cache.plan(flat), flat, False, False)
    assert got_cache.evicted == want_cache.evicted == [1, 3, 2, 3]
    assert _state(got_cache) == _state(want_cache)
