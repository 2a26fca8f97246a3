"""Tests for the column-wise subarray layout."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.faults import FaultInjector, FaultModel, fault_injection
from repro.genomics.encoding import bits_to_kmer, transpose_kmers
from repro.sieve import LayoutError, SubarrayLayout
from repro.sieve.functional import SieveSubarraySim
from repro.sieve.layout import GROUP_WIDTH, QUERIES_PER_GROUP, REFS_PER_GROUP


@pytest.fixture(scope="module")
def paper_layout():
    """The paper's exact geometry: k=31, 8192-bit rows, 576-wide groups."""
    return SubarrayLayout(k=31)


class TestPaperGeometry:
    def test_group_composition(self, paper_layout):
        """Section IV-A: 576 = 512 references + 64 queries."""
        assert GROUP_WIDTH == 576
        assert paper_layout.group_width == 576
        assert paper_layout.refs_per_group == REFS_PER_GROUP == 512
        assert paper_layout.queries_per_group == QUERIES_PER_GROUP == 64

    def test_groups_per_row(self, paper_layout):
        assert paper_layout.num_groups == 8192 // 576 == 14

    def test_refs_per_layer(self, paper_layout):
        assert paper_layout.refs_per_layer == 14 * 512 == 7168

    def test_kmer_rows(self, paper_layout):
        """One row per bit: 62 rows for k=31."""
        assert paper_layout.kmer_rows == 62

    def test_query_block_in_middle(self, paper_layout):
        """Figure 7(e): query columns at BL256-319 of each group."""
        cols = paper_layout.query_columns(0)
        assert cols.start == 256
        assert cols.stop == 320

    def test_batch_write_commands(self, paper_layout):
        """Section IV-A: (# pattern groups) x (k x 2) = 14 x 62."""
        assert paper_layout.batch_write_commands == 14 * 62

    def test_max_layers_packs_2048_rows(self, paper_layout):
        packed = paper_layout.with_max_layers()
        assert packed.layers == 2048 // paper_layout.layer_rows
        assert packed.layers >= 16
        assert packed.refs_per_subarray == packed.layers * 7168

    def test_storage_efficiency_reasonable(self, paper_layout):
        packed = paper_layout.with_max_layers()
        assert 0.3 < packed.storage_efficiency < 0.9


class TestValidation:
    def test_k_positive(self):
        with pytest.raises(LayoutError):
            SubarrayLayout(k=0)

    def test_group_must_fit_row(self):
        with pytest.raises(LayoutError):
            SubarrayLayout(k=5, row_bits=100, refs_per_group=512)

    def test_layers_must_fit(self):
        with pytest.raises(LayoutError):
            SubarrayLayout(k=31, rows_per_subarray=100, layers=2)

    def test_layers_positive(self):
        with pytest.raises(LayoutError):
            SubarrayLayout(k=31, layers=0)


class TestColumnMapping:
    def test_slot_column_roundtrip(self, small_layout):
        for slot in range(small_layout.refs_per_layer):
            col = small_layout.ref_slot_to_column(slot)
            assert small_layout.column_to_ref_slot(col) == slot

    def test_query_columns_rejected(self, small_layout):
        qcol = small_layout.query_columns(0)[0]
        with pytest.raises(LayoutError):
            small_layout.column_to_ref_slot(qcol)

    def test_tail_columns_rejected(self, small_layout):
        tail = small_layout.num_groups * small_layout.group_width
        if tail < small_layout.row_bits:
            with pytest.raises(LayoutError):
                small_layout.column_to_ref_slot(tail)

    def test_slots_sorted_by_column(self, small_layout):
        cols = [
            small_layout.ref_slot_to_column(s)
            for s in range(small_layout.refs_per_layer)
        ]
        assert cols == sorted(cols)

    def test_ref_and_query_columns_disjoint(self, small_layout):
        for g in range(small_layout.num_groups):
            refs = set(small_layout.ref_columns(g))
            queries = set(small_layout.query_columns(g))
            assert not (refs & queries)
            assert len(refs) == small_layout.refs_per_group
            assert len(queries) == small_layout.queries_per_group

    def test_out_of_range(self, small_layout):
        with pytest.raises(LayoutError):
            small_layout.ref_slot_to_column(small_layout.refs_per_layer)
        with pytest.raises(LayoutError):
            small_layout.column_to_ref_slot(small_layout.row_bits)
        with pytest.raises(LayoutError):
            small_layout.group_base(small_layout.num_groups)


class TestRowAddressing:
    def test_regions_in_order(self, small_layout):
        regions = [
            small_layout.region_of_row(r)
            for r in range(small_layout.layer_rows)
        ]
        k2 = small_layout.kmer_rows
        assert all(r == "pattern" for r in regions[:k2])
        assert regions[k2] == "offset"
        assert regions[-1] == "payload"

    def test_second_layer_offset(self, small_layout):
        base = small_layout.layer_base_row(1)
        assert base == small_layout.layer_rows
        assert small_layout.region_of_row(base) == "pattern"
        assert small_layout.pattern_row(1, 0) == base

    def test_unused_tail(self, small_layout):
        used = small_layout.layers * small_layout.layer_rows
        if used < small_layout.rows_per_subarray:
            assert small_layout.region_of_row(used) == "unused"

    def test_pattern_row_bounds(self, small_layout):
        with pytest.raises(LayoutError):
            small_layout.pattern_row(0, small_layout.kmer_rows)
        with pytest.raises(LayoutError):
            small_layout.pattern_row(small_layout.layers, 0)

    def test_offset_payload_locations_within_regions(self, small_layout):
        for layer in range(small_layout.layers):
            for slot in (0, small_layout.refs_per_layer - 1):
                row, col = small_layout.offset_location(layer, slot)
                assert small_layout.region_of_row(row) == "offset"
                assert 0 <= col < small_layout.row_bits
                row, col = small_layout.payload_location(layer, slot)
                assert small_layout.region_of_row(row) == "payload"

    def test_offset_locations_unique(self, small_layout):
        locs = {
            small_layout.offset_location(0, s)
            for s in range(small_layout.refs_per_layer)
        }
        assert len(locs) == small_layout.refs_per_layer


class TestBitImages:
    def test_ref_matrix_columns_decode(self, small_layout, rng):
        k = small_layout.k
        kmers = sorted(rng.choice(4**k, size=10, replace=False).tolist())
        matrix = small_layout.ref_bit_matrix(kmers)
        for slot, kmer in enumerate(kmers):
            col = small_layout.ref_slot_to_column(slot)
            assert bits_to_kmer(list(matrix[:, col]), k) == kmer

    def test_ref_matrix_query_columns_zero(self, small_layout, rng):
        k = small_layout.k
        kmers = sorted(rng.choice(4**k, size=5, replace=False).tolist())
        matrix = small_layout.ref_bit_matrix(kmers)
        for g in range(small_layout.num_groups):
            cols = small_layout.query_columns(g)
            assert (matrix[:, cols.start : cols.stop] == 0).all()

    def test_ref_matrix_capacity(self, small_layout):
        with pytest.raises(LayoutError):
            small_layout.ref_bit_matrix(list(range(small_layout.refs_per_layer + 1)))

    def test_query_matrix_replicated(self, small_layout):
        queries = [3, 77]
        block = small_layout.query_block(transpose_kmers(queries, small_layout.k))
        assert block.shape == (
            small_layout.kmer_rows,
            small_layout.queries_per_group,
        )
        assert not block[:, len(queries) :].any()
        for j, q in enumerate(queries):
            assert bits_to_kmer(list(block[:, j]), small_layout.k) == q
        # Loading the batch replicates the block into every group and
        # returns the cells it stored, group by group.
        sim = SieveSubarraySim(small_layout, [(5, 1)])
        stored = sim.load_query_batch(queries, 0)
        assert stored.shape == (
            small_layout.kmer_rows,
            small_layout.num_groups,
            len(queries),
        )
        cells = sim.array.peek_rows(0, small_layout.kmer_rows)
        for g in range(small_layout.num_groups):
            cols = small_layout.query_column_matrix[g]
            np.testing.assert_array_equal(cells[:, cols], block)
            np.testing.assert_array_equal(stored[:, g], block[:, : len(queries)])
        # The returned cells are a copy: a second load into the same
        # layer rewrites the query columns but not the first block.
        sim.load_query_batch(queries[::-1], 0)
        cells = sim.array.peek_rows(0, small_layout.kmer_rows)
        for g in range(small_layout.num_groups):
            cols = small_layout.query_column_matrix[g][: len(queries)]
            assert not np.array_equal(cells[:, cols], stored[:, g])
            np.testing.assert_array_equal(stored[:, g], block[:, : len(queries)])
        # Under load-time bit flips the returned cells are the corrupted
        # stored ones, not the block that was written.
        with fault_injection(FaultInjector(FaultModel(bit_flip_rate=0.2, seed=3))):
            sim = SieveSubarraySim(small_layout, [(5, 1)])
            stored = sim.load_query_batch(queries, 0)
        cells = sim.array.peek_rows(0, small_layout.kmer_rows)
        cols = small_layout.query_column_matrix[:, : len(queries)]
        np.testing.assert_array_equal(stored, cells[:, cols])
        assert not (stored == block[:, None, : len(queries)]).all()

    def test_query_matrix_batch_limit(self, small_layout):
        too_many = list(range(small_layout.queries_per_group + 1))
        with pytest.raises(LayoutError):
            small_layout.query_block(transpose_kmers(too_many, small_layout.k))

    @given(st.data())
    def test_ref_matrix_property(self, data):
        layout = SubarrayLayout(
            k=6, row_bits=40, rows_per_subarray=160,
            refs_per_group=8, queries_per_group=2,
        )
        kmers = data.draw(
            st.lists(
                st.integers(0, 4**6 - 1),
                min_size=1,
                max_size=layout.refs_per_layer,
                unique=True,
            ).map(sorted)
        )
        matrix = layout.ref_bit_matrix(kmers)
        for slot, kmer in enumerate(kmers):
            col = layout.ref_slot_to_column(slot)
            assert bits_to_kmer(list(matrix[:, col]), 6) == kmer
