"""Property test: one query store per subarray equals the per-batch
loads it replaced.

``SieveDevice.query`` transposes a call's routed k-mers once and makes
one :meth:`~repro.sieve.functional.SieveSubarraySim.store_query_blocks`
call per subarray, which writes every batch of up to
``queries_per_group`` of its (subarray, layer) destinations and returns
the cells each batch stored.  The reference here is the per-batch
algorithm, kept only as a test oracle: per batch one ``query_block``
image, one ``load_bit_block`` store and one copy of the stored cells,
then one ``match_all`` pass over every destination.  Across destinations
of 1, 63, 64, 65 and 200 queries, the paper's row geometry and the small
test layout, and canonical and plain devices, the two must agree on
every ``ResultBatch`` column, every subarray's cells, ``DeviceStats``,
``SubarrayStats`` and the ``match_slot`` replay of each subarray's last
batch — and, under a seeded bit-flip fault injector, on the injector's
load count, flip count and fault schedule too.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import ResultBatch, key_array
from repro.faults import FaultInjector, FaultModel, fault_injection
from repro.genomics.database import KmerDatabase
from repro.genomics.encoding import canonical_kmers, revcomp_values, transpose_kmers
from repro.sieve import SieveDevice
from repro.sieve.functional import FunctionalError, PendingMatch, SieveSubarraySim
from repro.sieve.layout import SubarrayLayout

#: The paper's row geometry (8192-bit rows, 64-query batches) cut to two
#: layers, and the small two-layer test layout of ``conftest.py``
#: (4-query batches, so every destination spans many batches).
LAYOUTS = {
    "paper": SubarrayLayout(k=31, layers=2),
    "small": SubarrayLayout(
        k=9,
        row_bits=64,
        rows_per_subarray=160,
        refs_per_group=12,
        queries_per_group=4,
        layers=2,
    ),
}

#: Destination sizes around the 64-query batch boundary, and one that
#: spans several batches in either layout.
SIZES = (1, 63, 64, 65, 200)

#: Records per device: the paper device fills one subarray's first layer
#: and part of its second; the small one spans three subarrays.
RECORDS = {"paper": 7168 + 300, "small": 250}

LOAD_SETTINGS = settings(derandomize=True, deadline=None, max_examples=4)


def _per_batch_load(sim, batch, layer):
    """One batch loaded the per-batch way (the pre-transpose path)."""
    layout = sim.layout
    base = layout.layer_base_row(layer)
    block = layout.query_block(transpose_kmers(batch, layout.k))
    sim.array.load_bit_block(base, layout.query_column_matrix[:, 0], block)
    sim._batch, sim._batch_layer = list(batch), layer
    cells = sim.array.peek_rows(base, base + layout.kmer_rows)
    return cells[:, layout.query_column_matrix[:, : len(batch)]].copy()


def per_batch_query(device, kmers):
    """``device.query(kmers)`` with one load per batch of up to
    ``queries_per_group``, destinations in (subarray, layer) order, then
    one ``match_all`` pass over every destination, charging
    :class:`DeviceStats` the way ``query`` does."""
    kmers = key_array(kmers)
    if device.canonical:
        kmers = canonical_kmers(kmers, device.layout.k)
    count = kmers.size
    sids = device.index.route_many(kmers)
    destinations = {}
    for i in np.flatnonzero(sids >= 0).tolist():
        sim = device.subarrays[int(sids[i])]
        key = (int(sids[i]), sim.route_layer(int(kmers[i])))
        destinations.setdefault(key, []).append(i)
    destinations = dict(sorted(destinations.items()))
    size = device.layout.queries_per_group
    taken = []
    for (sid, layer), positions in destinations.items():
        sim = device.subarrays[sid]
        blocks = [
            _per_batch_load(sim, kmers[positions[lo : lo + size]].tolist(), layer)
            for lo in range(0, len(positions), size)
        ]
        device.stats.batches += len(blocks)
        device.stats.write_commands += len(blocks) * device.layout.batch_write_commands
        taken.append(PendingMatch(sim, layer, np.concatenate(blocks, axis=2)))
    hit = np.zeros(count, dtype=bool)
    payload = np.zeros(count, dtype=np.int64)
    rows = np.zeros(count, dtype=np.int64)
    flush = np.zeros(count, dtype=np.int64)
    if taken:
        result = taken[0].sim.match_all(*taken)
        positions = np.concatenate(list(destinations.values()))
        hit[positions] = result.hit
        payload[positions] = result.payload
        rows[positions] = result.rows_activated
        flush[positions] = result.etm_flush_cycles
    stats = device.stats
    stats.queries += count
    stats.index_filtered += int(np.count_nonzero(sids < 0))
    stats.hits += int(np.count_nonzero(hit))
    stats.row_activations += int(rows.sum())
    stats.rows_histogram += np.bincount(rows, minlength=stats.rows_histogram.size)
    return ResultBatch(kmers, hit, payload, sids, rows, flush)


def _database(name, canonical, seed):
    """``RECORDS[name]`` random k-mers with random payloads; on a
    canonical database, k-mers with distinct canonical forms."""
    layout = LAYOUTS[name]
    rng = np.random.default_rng(seed)
    keys = key_array(rng.choice(1 << layout.kmer_rows, 2 * RECORDS[name], replace=False))
    if canonical:
        keys = canonical_kmers(keys, layout.k)
    _, first = np.unique(keys, return_index=True)
    database = KmerDatabase(layout.k, canonical=canonical)
    for kmer in keys[np.sort(first)][: RECORDS[name]].tolist():
        database.add(kmer, int(rng.integers(0, 2**32)))
    return database


def _calls(device, sizes, seed):
    """Two calls, each with one destination of every size in ``sizes``
    (distinct destinations while they last), its k-mers stored ones and
    near misses drawn with repeats, shuffled together with a few k-mers
    the index filters.  A canonical device is asked some k-mers by
    their reverse complement."""
    layout = device.layout
    rng = np.random.default_rng(seed)
    stored = key_array([k for sim in device.subarrays.values() for k, _ in sim.records])
    near = stored ^ np.uint64(1)
    top = np.uint64((1 << layout.kmer_rows) - 1)
    pool = np.unique(np.concatenate([stored, near, np.minimum(stored + np.uint64(2), top)]))
    if device.canonical:
        pool = np.unique(canonical_kmers(pool, layout.k))
    sids = device.index.route_many(pool)
    pool, sids = pool[sids >= 0], sids[sids >= 0]
    by_destination = {}
    for sid in np.unique(sids).tolist():
        routed = pool[sids == sid]
        layers = device.subarrays[sid].route_layers(routed)
        for layer in np.unique(layers).tolist():
            by_destination[sid, layer] = routed[layers == layer]
    keys = sorted(by_destination)
    ends = key_array([0, int(top)])
    asked = canonical_kmers(ends, layout.k) if device.canonical else ends
    filtered = ends[device.index.route_many(asked) < 0]
    calls = []
    for _ in range(2):
        chosen = rng.permutation(len(keys))[: len(sizes)].tolist()
        call = [filtered[:1]]
        for size, index in zip(sizes, chosen):
            call.append(rng.choice(by_destination[keys[index]], size))
        call = np.concatenate(call + [filtered[1:]])
        rng.shuffle(call)
        if device.canonical:
            flip = rng.random(call.size) < 0.5
            call[flip] = revcomp_values(call[flip], layout.k)
        calls.append(call.tolist())
    return calls


def _state(sim):
    """Everything a load and a match leave on one subarray."""
    return (
        sim.array.peek_rows(0, sim.array.rows).tobytes(),
        sim.array.stats,
        sim.matchers._enable.tolist(),
        sim.matchers.latches.tolist(),
        sim.matchers.compare_count,
        sim.etm.cycles,
        sim.etm._segment_or.tolist(),
        sim.etm._sr.tolist(),
        sim._batch,
        sim._batch_layer,
    )


def _columns(batch):
    return {
        name: getattr(batch, name)
        for name in (
            "queries",
            "hit",
            "payload",
            "subarray_id",
            "rows_activated",
            "etm_flush_cycles",
        )
    }


def _run(name, canonical, sizes, seed, flip_rate):
    """Answers, device and injector of the one-load path and of the
    per-batch oracle, each device built and queried under its own
    injector with the same seeded model (none at rate 0)."""
    layout = LAYOUTS[name]
    database = _database(name, canonical, seed)
    runs = []
    calls = None
    for query in (SieveDevice.query, per_batch_query):
        injector = FaultInjector(FaultModel(bit_flip_rate=flip_rate, seed=seed))
        with fault_injection(injector) if flip_rate else nullcontext():
            device = SieveDevice.from_database(database, layout=layout)
            calls = calls or _calls(device, sizes, seed)
            answers = [query(device, call) for call in calls]
        runs.append((answers, device, injector))
    return runs


def _assert_identical(runs):
    (got, device, _), (want, oracle, _) = runs
    assert len(got) == len(want)
    for new, old in zip(got, want):
        for (name, column), reference in zip(
            _columns(new).items(), _columns(old).values()
        ):
            assert column.dtype == reference.dtype, name
            assert np.array_equal(column, reference), name
    assert device.stats == oracle.stats
    assert device.subarrays.keys() == oracle.subarrays.keys()
    for sid, sim in device.subarrays.items():
        twin = oracle.subarrays[sid]
        assert _state(sim) == _state(twin), sid
        # The scalar replay of each subarray's last batch.
        replay = [sim.match_slot(s) for s in range(len(sim._batch))]
        assert replay == [twin.match_slot(s) for s in range(len(twin._batch))]


def _shapes():
    return st.tuples(
        st.sampled_from(sorted(LAYOUTS)),
        st.booleans(),
        st.lists(st.sampled_from(SIZES), min_size=1, max_size=3),
        st.integers(0, 2**16),
    )


class TestOneLoadPerDestination:
    @LOAD_SETTINGS
    @given(_shapes())
    @example(("paper", False, [64, 65], 1))
    @example(("paper", True, [1, 63], 2))
    @example(("paper", False, [200], 3))
    @example(("small", True, [1, 63, 64], 4))
    @example(("small", False, [65, 200], 5))
    def test_equals_per_batch_loads(self, shape):
        name, canonical, sizes, seed = shape
        _assert_identical(_run(name, canonical, sizes, seed, 0.0))

    @LOAD_SETTINGS
    @given(_shapes())
    @example(("paper", False, [65, 200], 6))
    @example(("small", True, [1, 63, 64], 7))
    def test_equals_per_batch_loads_under_faults(self, shape):
        name, canonical, sizes, seed = shape
        runs = _run(name, canonical, sizes, seed, 2e-3)
        _assert_identical(runs)
        (_, _, injector), (_, _, reference) = runs
        # Load count and flip count included.
        assert injector.stats == reference.stats
        assert injector.schedule == reference.schedule

    def test_sampled_calls_reach_every_size(self):
        """The calls really hold destinations of exactly the drawn sizes
        (so 63/64/65 straddle the paper's batch boundary), plus k-mers
        the index filters."""
        for name in sorted(LAYOUTS):
            layout = LAYOUTS[name]
            device = SieveDevice.from_database(
                _database(name, True, 9), layout=layout
            )
            for call in _calls(device, list(SIZES[:2]) + [SIZES[-1]], 9):
                kmers = canonical_kmers(key_array(call), layout.k)
                sids = device.index.route_many(kmers)
                assert (sids < 0).any()
                counts = {}
                for kmer, sid in zip(kmers[sids >= 0].tolist(), sids[sids >= 0].tolist()):
                    key = (sid, device.subarrays[sid].route_layer(kmer))
                    counts[key] = counts.get(key, 0) + 1
                assert sorted(counts.values()) == sorted(
                    [1, 63, 200][: len(counts)]
                ), name


class TestLoadQueryBatchArrays:
    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_numpy_queries_load(self, name):
        layout = LAYOUTS[name]
        sim = SieveSubarraySim(layout, [(5, 1)])
        queries = np.array([1, 5], dtype=np.uint64)
        stored = sim.load_query_batch(queries, 0)
        assert stored.shape == (layout.kmer_rows, layout.num_groups, 2)
        assert np.array_equal(stored, _per_batch_load(sim, [1, 5], 0))
        sim.load_query_batch(queries, 0)
        assert sim._batch == [1, 5] and type(sim._batch[0]) is int
        assert sim.match_slot(1).hit and not sim.match_slot(0).hit

    @pytest.mark.parametrize(
        "queries", [np.array([], dtype=np.uint64), np.array([], dtype=np.int64), []]
    )
    def test_empty_batch_raises(self, queries):
        sim = SieveSubarraySim(LAYOUTS["small"], [(5, 1)])
        with pytest.raises(FunctionalError, match="non-empty"):
            sim.load_query_batch(queries, 0)
