"""Tests for the subarray index and the bit-accurate functional simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sieve import (
    INDEX_ENTRY_BYTES,
    FunctionalError,
    IndexEntry,
    LayoutError,
    SieveDevice,
    SieveSubarraySim,
    SubarrayIndex,
    SubarrayLayout,
)
from repro.sieve.index import IndexError_


class TestSubarrayIndex:
    def test_build_and_route(self):
        kmers = list(range(0, 100, 3))
        index, chunks = SubarrayIndex.build(kmers, refs_per_subarray=10)
        assert len(index) == len(chunks) == 4
        for sid, chunk in enumerate(chunks):
            for kmer in chunk:
                assert index.route(kmer) == sid

    def test_route_gap_is_none(self):
        index, _ = SubarrayIndex.build([10, 20, 30, 40], refs_per_subarray=2)
        # 25 falls inside subarray 1's range [30, 40]? No: ranges are
        # [10,20] and [30,40]; 25 is a guaranteed miss.
        assert index.route(25) is None
        assert index.route(5) is None
        assert index.route(45) is None

    def test_route_inside_range_but_absent(self):
        """Values inside a range but not stored still route (the device
        must check them)."""
        index, _ = SubarrayIndex.build([10, 20, 30, 40], refs_per_subarray=2)
        assert index.route(15) == 0
        assert index.route(35) == 1

    def test_boundaries_inclusive(self):
        index, _ = SubarrayIndex.build([10, 20, 30, 40], refs_per_subarray=2)
        assert index.route(10) == 0
        assert index.route(20) == 0
        assert index.route(30) == 1
        assert index.route(40) == 1

    def test_unsorted_rejected(self):
        with pytest.raises(IndexError_):
            SubarrayIndex.build([3, 1, 2], refs_per_subarray=2)

    def test_duplicates_rejected(self):
        with pytest.raises(IndexError_):
            SubarrayIndex.build([1, 1, 2], refs_per_subarray=2)

    def test_overlapping_entries_rejected(self):
        with pytest.raises(IndexError_):
            SubarrayIndex([IndexEntry(0, 0, 10), IndexEntry(1, 5, 20)])

    def test_entry_validation(self):
        with pytest.raises(IndexError_):
            IndexEntry(0, 10, 5)

    def test_size_scales_linearly_with_capacity(self):
        """Section IV-D: table size is linear in capacity, not in k."""
        index, _ = SubarrayIndex.build(list(range(0, 7168 * 4, 2)), 7168)
        assert index.size_bytes() == 2 * INDEX_ENTRY_BYTES

    def test_naive_index_explodes_with_k(self):
        """Section IV-D: the rejected direct table grows exponentially
        with k; the range index does not depend on k at all."""
        assert SubarrayIndex.naive_index_bytes(16) > 2**34  # > 16 GB
        assert (
            SubarrayIndex.naive_index_bytes(31)
            / SubarrayIndex.naive_index_bytes(16)
            == 4 ** 15
        )
        index, _ = SubarrayIndex.build(list(range(0, 1000, 2)), 100)
        assert index.size_bytes() < 1024  # independent of k
        with pytest.raises(IndexError_):
            SubarrayIndex.naive_index_bytes(0)

    def test_paper_size_claim_at_32gb(self):
        """A subarray-granular index for a 32 GB device stays small."""
        subarrays = 16 * 8 * 128  # SIEVE_32GB
        assert subarrays * INDEX_ENTRY_BYTES < 2 * 2**20  # < 2 MB

    @given(st.sets(st.integers(0, 10_000), min_size=2, max_size=300))
    def test_route_property(self, kmers):
        sorted_kmers = sorted(kmers)
        index, chunks = SubarrayIndex.build(sorted_kmers, refs_per_subarray=16)
        membership = {}
        for sid, chunk in enumerate(chunks):
            for kmer in chunk:
                membership[kmer] = sid
        for kmer in sorted_kmers:
            assert index.route(kmer) == membership[kmer]


class TestFunctionalSim:
    def test_every_stored_kmer_hits(self, small_layout, sorted_records):
        records = sorted_records[: small_layout.refs_per_subarray]
        sim = SieveSubarraySim(small_layout, records)
        for kmer, payload in records:
            outcome = sim.match_query(kmer)
            assert outcome.hit
            assert outcome.payload == payload

    def test_absent_kmers_miss(self, small_layout, sorted_records, rng):
        records = sorted_records[: small_layout.refs_per_subarray]
        stored = {k for k, _ in records}
        sim = SieveSubarraySim(small_layout, records)
        misses = 0
        while misses < 20:
            q = int(rng.integers(0, 4**small_layout.k))
            if q in stored:
                continue
            outcome = sim.match_query(q)
            assert not outcome.hit
            assert outcome.payload is None
            misses += 1

    def test_hit_activates_all_rows_plus_payload(self, small_layout, sorted_records):
        records = sorted_records[: small_layout.refs_per_subarray]
        sim = SieveSubarraySim(small_layout, records)
        outcome = sim.match_query(records[0][0])
        assert outcome.rows_activated == small_layout.kmer_rows + 2

    def test_etm_terminates_misses_early(self, small_layout, sorted_records, rng):
        records = sorted_records[: small_layout.refs_per_subarray]
        stored = {k for k, _ in records}
        sim = SieveSubarraySim(small_layout, records)
        early = 0
        for _ in range(30):
            q = int(rng.integers(0, 4**small_layout.k))
            if q in stored:
                continue
            outcome = sim.match_query(q)
            if outcome.etm_terminated_early:
                early += 1
                assert outcome.rows_activated < small_layout.kmer_rows
        assert early > 0  # random misses overwhelmingly terminate early

    def test_etm_disabled_scans_everything(self, small_layout, sorted_records, rng):
        records = sorted_records[: small_layout.refs_per_subarray]
        stored = {k for k, _ in records}
        sim = SieveSubarraySim(small_layout, records, etm_enabled=False)
        q = next(
            int(x) for x in rng.integers(0, 4**small_layout.k, size=100)
            if int(x) not in stored
        )
        outcome = sim.match_query(q)
        assert not outcome.hit
        assert outcome.rows_activated == small_layout.kmer_rows
        assert not outcome.etm_terminated_early

    def test_batch_slots_independent(self, small_layout, sorted_records, rng):
        records = sorted_records[: small_layout.refs_per_subarray]
        sim = SieveSubarraySim(small_layout, records)
        layer0 = records[: small_layout.refs_per_layer]
        miss = next(
            int(x) for x in rng.integers(0, 4**small_layout.k, size=200)
            if int(x) not in {k for k, _ in records}
            and sim.route_layer(int(x)) == 0
        )
        batch = [layer0[0][0], miss, layer0[-1][0]]
        sim.load_query_batch(batch, layer=0)
        results = [sim.match_slot(i) for i in range(3)]
        assert results[0].hit and results[0].payload == layer0[0][1]
        assert not results[1].hit
        assert results[2].hit and results[2].payload == layer0[-1][1]

    def test_write_command_accounting(self, small_dataset):
        """A destination of more than 64 queries loads as batches of <= 64,
        each charged groups x 2k prefetch-width write commands."""
        device = SieveDevice.from_database(small_dataset.database)
        layout = device.layout
        assert layout.queries_per_group == 64
        kmer, payload = small_dataset.database.sorted_records()[0]
        result = device.query([kmer] * 129)
        assert result.payload.tolist() == [payload] * 129
        assert layout.batch_write_commands == layout.num_groups * layout.kmer_rows
        assert device.stats.batches == 3
        assert device.stats.write_commands == 3 * layout.batch_write_commands

    def test_layers_route_correctly(self, small_layout, sorted_records):
        records = sorted_records[: small_layout.refs_per_subarray]
        if len(records) <= small_layout.refs_per_layer:
            pytest.skip("dataset too small for two layers")
        sim = SieveSubarraySim(small_layout, records)
        assert sim.num_layers_used == 2
        layer1_first = records[small_layout.refs_per_layer][0]
        assert sim.route_layer(layer1_first) == 1
        assert sim.route_layer(records[0][0]) == 0
        outcome = sim.match_query(layer1_first)
        assert outcome.hit and outcome.layer == 1

    def test_records_must_be_sorted_unique(self, small_layout):
        with pytest.raises(FunctionalError):
            SieveSubarraySim(small_layout, [(5, 1), (3, 2)])
        with pytest.raises(FunctionalError):
            SieveSubarraySim(small_layout, [(5, 1), (5, 2)])

    def test_capacity_enforced(self, small_layout):
        too_many = [(i, i) for i in range(small_layout.refs_per_subarray + 1)]
        with pytest.raises(LayoutError):
            SieveSubarraySim(small_layout, too_many)

    def test_empty_batch_rejected(self, small_layout, sorted_records):
        sim = SieveSubarraySim(small_layout, sorted_records[:4])
        with pytest.raises(FunctionalError):
            sim.load_query_batch([])

    def test_bad_slot_rejected(self, small_layout, sorted_records):
        sim = SieveSubarraySim(small_layout, sorted_records[:4])
        sim.load_query_batch([sorted_records[0][0]])
        with pytest.raises(FunctionalError):
            sim.match_slot(1)

    def test_bad_layer_rejected(self, small_layout, sorted_records):
        sim = SieveSubarraySim(small_layout, sorted_records[:4])
        with pytest.raises(FunctionalError):
            sim.load_query_batch([1], layer=5)

    @settings(deadline=None, max_examples=25)
    @given(st.data())
    def test_matches_reference_dict(self, data):
        """Property: the functional subarray agrees with a plain dict."""
        k = 6
        layout = SubarrayLayout(
            k=k, row_bits=40, rows_per_subarray=160,
            refs_per_group=8, queries_per_group=2, layers=2,
        )
        kmers = data.draw(
            st.sets(st.integers(0, 4**k - 1), min_size=1, max_size=layout.refs_per_subarray)
        )
        records = [(kmer, 1000 + i) for i, kmer in enumerate(sorted(kmers))]
        table = dict(records)
        sim = SieveSubarraySim(layout, records)
        queries = data.draw(
            st.lists(st.integers(0, 4**k - 1), min_size=1, max_size=8)
        )
        for q in queries:
            outcome = sim.match_query(q)
            assert outcome.hit == (q in table)
            assert outcome.payload == table.get(q)
