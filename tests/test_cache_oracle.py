"""Oracle property test: the array-backed cache against a scalar one.

``KmerResultCache`` plans with ``np.unique``/``searchsorted``, keeps its
store as sorted-key columns and evicts a whole absorb's victims with
array operations.  The reference below shares none of that code: a
dict of entries, one Python step per k-mer, and per insert a linear
scan for the least ``(freq, seq)`` victim — LFU with oldest-insertion
tie-break, stated as directly as it can be.  Over generated multi-batch
streams (repeats, reverse-complement pairs, canonical keys on and off,
capacities 0/1/2/4/16384, shadow mode, and plan/complete interleavings
as multi-shard serving produces them) both must agree on every plan
field, every served answer, every counter, every stored
``(key, freq, seq, hit, payload)`` and the order in which entries were
evicted.  Named cases pin the two absorb orders that are easiest to get
wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from hypothesis import given, settings, strategies as st

from repro.api import BackendResult, ResultBatch
from repro.genomics.encoding import cache_key_kmer, revcomp_value
from repro.service.cache import CacheCoherencyError, CacheError, KmerResultCache

K = 5

PLAN_FIELDS = (
    "device_keys",
    "device_kmers",
    "device_positions",
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


class ScalarCache:
    """The per-k-mer LFU cache: a dict of ``key -> [result, freq, seq]``
    and a linear victim scan per insert."""

    def __init__(self, capacity: int, k: int, canonical: bool) -> None:
        self.capacity = capacity
        self.k = k
        self.canonical = canonical
        self.entries: Dict[int, List[Any]] = {}
        self.evicted: List[int] = []
        self.seq = 0
        self.counts = dict.fromkeys(
            (
                "batches", "lookup_kmers", "hit_keys", "hit_kmers",
                "miss_keys", "dedup_kmers", "device_kmers", "insertions",
                "evictions", "self_checked_kmers",
            ),
            0,
        )
        self.saved_sim_ns = self.saved_wall_ms = 0.0
        self.priced_sim_ns = self.priced_wall_ms = 0.0
        self.priced_device_kmers = 0

    def plan(self, flat: Sequence[int]) -> _ScalarPlan:
        keys = [cache_key_kmer(int(v), self.k, self.canonical) for v in flat]
        occurrences: Dict[int, int] = {}
        first_pos: Dict[int, int] = {}
        for pos, key in enumerate(keys):
            occurrences[key] = occurrences.get(key, 0) + 1
            first_pos.setdefault(key, pos)
        cached: Dict[int, BackendResult] = {}
        device_keys: List[int] = []
        for key, count in occurrences.items():
            entry = self.entries.get(key)
            if entry is not None:
                cached[key] = entry[0]
                entry[1] += count
                self.counts["hit_keys"] += 1
                self.counts["hit_kmers"] += count
            else:
                device_keys.append(key)
                self.counts["miss_keys"] += 1
        plan = _ScalarPlan(
            flat=tuple(int(v) for v in flat),
            keys=tuple(keys),
            device_keys=tuple(device_keys),
            device_kmers=tuple(int(flat[first_pos[key]]) for key in device_keys),
            device_positions=tuple(first_pos[key] for key in device_keys),
            cached=cached,
        )
        self.counts["batches"] += 1
        self.counts["lookup_kmers"] += plan.total_kmers
        self.counts["dedup_kmers"] += plan.dedup_kmers
        self.counts["device_kmers"] += len(plan.device_keys)
        return plan

    def complete(self, plan, device_results) -> List[BackendResult]:
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
        entry = self.entries.get(key)
        if entry is not None:
            entry[1] += 1
            return
        if len(self.entries) >= self.capacity:
            victim = min(
                self.entries,
                key=lambda k: (self.entries[k][1], self.entries[k][2]),
            )
            del self.entries[victim]
            self.evicted.append(victim)
            self.counts["evictions"] += 1
        self.seq += 1
        self.entries[key] = [result, 1, self.seq]
        self.counts["insertions"] += 1

    def self_check(self, plan, served, reference) -> None:
        for pos, (got, want) in enumerate(zip(served, reference)):
            if (got.query, got.hit, got.payload) != (
                want.query, want.hit, want.payload
            ):
                raise CacheCoherencyError(f"divergence at {pos}")
        self.counts["self_checked_kmers"] += len(served)

    def price_batch(self, plan, executed: int, sim_ns: float, wall_ms: float) -> None:
        if executed > 0:
            self.priced_sim_ns += sim_ns
            self.priced_wall_ms += wall_ms
            self.priced_device_kmers += executed
            per_ns, per_ms = sim_ns / executed, wall_ms / executed
        elif self.priced_device_kmers > 0:
            per_ns = self.priced_sim_ns / self.priced_device_kmers
            per_ms = self.priced_wall_ms / self.priced_device_kmers
        else:
            return
        self.saved_sim_ns += plan.saved_kmers * per_ns
        self.saved_wall_ms += plan.saved_kmers * per_ms

    def counters(self) -> Dict[str, Any]:
        lookups = self.counts["lookup_kmers"]
        return {
            "capacity": self.capacity,
            "entries": len(self.entries),
            "canonical_keys": self.canonical,
            **self.counts,
            "saved_kmers": lookups - self.counts["device_kmers"],
            "hit_rate": self.counts["hit_kmers"] / lookups if lookups else 0.0,
            "saved_sim_ns": self.saved_sim_ns,
            "saved_wall_ms": self.saved_wall_ms,
        }

    def stored(self) -> List[Tuple[int, int, int, bool, Optional[int]]]:
        return sorted(
            (key, freq, seq, result.hit, result.payload)
            for key, (result, freq, seq) in self.entries.items()
        )


class RecordingCache(KmerResultCache):
    """The production cache, recording its eviction sequence."""

    def __init__(self, capacity: int, k: int, canonical: bool) -> None:
        super().__init__(capacity, k, canonical)
        self.evicted: List[int] = []

    def _absorb(self, keys, hit, payload):
        victims = super()._absorb(keys, hit, payload)
        self.evicted.extend(victims.tolist())
        return victims

    def stored(self):
        store = self._store
        return [
            (key, freq, seq, hit, payload if hit else None)
            for key, freq, seq, hit, payload in zip(
                store.keys.tolist(),
                store.freq.tolist(),
                store.seq.tolist(),
                store.hit.tolist(),
                store.payload.tolist(),
            )
        ]


def _answer(kmer: int, canonical: bool) -> BackendResult:
    """A deterministic backend: a canonical one answers both strands of
    a k-mer alike, as the cache's contract requires."""
    key = cache_key_kmer(kmer, K, canonical)
    hit = key % 3 != 0
    return BackendResult(query=kmer, hit=hit, payload=key % 7 if hit else None)


def _serve(cache, plan, flat, canonical: bool, shadow: bool):
    """The dispatcher's completion step (``ShardWorker._finish``): the
    production cache gets columns, the oracle record lists."""
    columnar = isinstance(cache, KmerResultCache)
    if shadow:
        results = [_answer(kmer, canonical) for kmer in flat]
        if columnar:
            results = ResultBatch.from_results(results)
            device_results = results[plan.device_positions]
        else:
            device_results = [results[p] for p in plan.device_positions]
        served = cache.complete(plan, device_results)
        cache.self_check(plan, served, results)
        executed = len(results)
    else:
        sent = [int(kmer) for kmer in plan.device_kmers]
        device_results = [_answer(kmer, canonical) for kmer in sent]
        if columnar:
            device_results = ResultBatch.from_results(device_results)
        served = cache.complete(plan, device_results)
        executed = len(sent)
    cache.price_batch(plan, executed, 10.0 * executed, 0.5 * executed)
    return served


def _plan_view(plan) -> Dict[str, Any]:
    """Every plan field as plain Python values (both implementations)."""
    view = {}
    for field in PLAN_FIELDS:
        value = getattr(plan, field)
        view[field] = tuple(value.tolist()) if hasattr(value, "tolist") else value
    if isinstance(plan, _ScalarPlan):
        view["cached"] = {
            key: (result.hit, result.payload) for key, result in plan.cached.items()
        }
        view["flat"] = plan.flat
        view["keys"] = plan.keys
    else:
        view["cached"] = {
            key: (hit, payload if hit else None)
            for key, cached, hit, payload in zip(
                plan.unique_keys.tolist(),
                plan.cached.tolist(),
                plan.unique_hit.tolist(),
                plan.unique_payload.tolist(),
            )
            if cached
        }
        view["flat"] = tuple(plan.queries.tolist())
        view["keys"] = tuple(plan.unique_keys[plan.slots].tolist())
    return view


def _state(cache) -> Dict[str, object]:
    return {
        "counters": cache.counters(),
        "entries": cache.stored(),
        "evicted": list(cache.evicted),
    }


def _check_served(got, want) -> None:
    assert isinstance(got, ResultBatch)
    assert got == want
    assert all(type(record.query) is int for record in got)


def _run_both(capacity: int, canonical: bool, steps, shadow: bool = False):
    """Drive both caches through ``steps``: ``("plan", name, flat)``
    plans a batch under a name, ``("complete", name)`` completes it —
    so a test can interleave two shards' batches explicitly."""
    got_cache = RecordingCache(capacity, K, canonical)
    want_cache = ScalarCache(capacity, K, canonical)
    pending: Dict[str, Tuple[List[int], Any, Any]] = {}
    for step in steps:
        if step[0] == "plan":
            _, name, flat = step
            got, want = got_cache.plan(flat), want_cache.plan(flat)
            assert _plan_view(got) == _plan_view(want)
            pending[name] = (flat, got, want)
        else:
            flat, got, want = pending.pop(step[1])
            _check_served(
                _serve(got_cache, got, flat, canonical, shadow),
                _serve(want_cache, want, flat, canonical, shadow),
            )
            assert _state(got_cache) == _state(want_cache)
    return got_cache


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


@settings(max_examples=150)
@given(
    stream=_streams(),
    canonical=st.booleans(),
    capacity=st.sampled_from([0, 1, 2, 4, 16384]),
    shadow=st.booleans(),
)
def test_array_cache_matches_scalar_oracle(stream, canonical, capacity, shadow):
    batches, overlap = stream
    steps: List[Tuple[Any, ...]] = []
    pending: List[str] = []
    for index, (flat, defer) in enumerate(zip(batches, overlap)):
        steps.append(("plan", str(index), flat))
        pending.append(str(index))
        while pending and not (defer and len(pending) == 1):
            steps.append(("complete", pending.pop(0)))
    steps.extend(("complete", name) for name in pending)
    _run_both(capacity, canonical, steps, shadow)


def test_oracle_sees_evictions_from_both_queues():
    """A fixed stream whose victims alternate between touched entries
    (taken while no frequency-1 entry exists) and fresh ones (which
    always go first)."""
    steps = []
    for index, flat in enumerate(([1, 2], [1, 2], [3], [4], [3, 3, 4, 4], [5])):
        steps += [("plan", str(index), flat), ("complete", str(index))]
    cache = _run_both(2, False, steps)
    assert cache.evicted == [1, 3, 2, 3]


def test_full_cache_without_fresh_entries_evicts_touched_then_new_keys():
    """Full, every entry touched: the first victim is the least-used
    touched entry, and then each insert evicts the batch's previous new
    key, so only the last new key stays."""
    cache = _run_both(
        3,
        False,
        [
            ("plan", "fill", [1, 2, 3]),
            ("complete", "fill"),
            ("plan", "touch", [1, 1, 2, 3]),  # freqs: 1 -> 3, 2 -> 2, 3 -> 2
            ("complete", "touch"),
            ("plan", "new", [4, 5, 6]),
            ("complete", "new"),
        ],
    )
    assert cache.evicted == [2, 4, 5]
    assert cache.stored() == [
        (1, 3, 1, True, 1),
        (3, 2, 3, False, None),
        (6, 1, 6, False, None),
    ]
    assert (cache.insertions, cache.evictions) == (6, 3)


def test_key_inserted_by_another_shard_is_touched_not_inserted():
    """Two shards both miss key 7; the one completing second finds it
    stored and counts a touch, not an insert."""
    cache = _run_both(
        4,
        False,
        [
            ("plan", "a", [7]),
            ("plan", "b", [8, 7]),
            ("complete", "a"),
            ("complete", "b"),
        ],
    )
    assert cache.stored() == [(7, 2, 1, True, 0), (8, 1, 2, True, 1)]
    assert (cache.insertions, cache.evictions) == (2, 0)
    assert cache.evicted == []


def test_other_shards_key_evicted_earlier_in_the_same_absorb_is_reinserted():
    """As above, but the cache is full: shard b's insert of 8 evicts the
    fresh 7 that shard a stored, so b's own answer for 7 goes in anew
    (evicting 8, now the oldest frequency-1 entry)."""
    cache = _run_both(
        2,
        False,
        [
            ("plan", "hot", [1]),
            ("complete", "hot"),
            ("plan", "touch", [1]),  # key 1 at frequency 2
            ("complete", "touch"),
            ("plan", "a", [7]),
            ("plan", "b", [8, 7]),
            ("complete", "a"),
            ("complete", "b"),
        ],
    )
    assert cache.evicted == [7, 8]
    assert cache.stored() == [(1, 2, 1, True, 1), (7, 1, 4, True, 0)]
    assert (cache.insertions, cache.evictions) == (4, 2)
