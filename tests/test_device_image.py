"""Property test: the block-store device build writes the same cells as
the per-entry load it replaced.

``SieveSubarraySim`` and ``Type1BankSim`` write Regions 2 (offsets) and
3 (payloads) with one :meth:`~repro.dram.subarray.Subarray.load_entries`
block store per region.  The reference here is the per-entry algorithm,
kept only as a test oracle: one ``offset_location`` /
``payload_location`` lookup, one ``_int_to_bits`` and one ``load_bits``
per reference slot.  Every subarray's cells must match it exactly —
across a partial last layer, a partial last Region-2/3 row, the extreme
payloads 0 and 2^32 - 1, and both the paper's row geometry and the
small test layout — and, under a seeded bit-flip fault injector, so must
the injector's load count, flip count and fault schedule.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dram.subarray import Subarray
from repro.faults import FaultInjector, FaultModel, fault_injection
from repro.genomics.database import KmerDatabase
from repro.sieve import SieveDevice, Type1BankSim, Type1Layout
from repro.sieve.functional import (
    FunctionalError,
    SieveSubarraySim,
    _int_to_bits,
    _ints_to_bit_rows,
)
from repro.sieve.layout import OFFSET_BITS, PAYLOAD_BITS, SubarrayLayout

MAX_PAYLOAD = 2**32 - 1

#: The paper's row geometry (8192-bit rows, 576-column groups) cut to
#: two layers so the per-entry reference stays fast, and the small
#: two-layer test layout of ``conftest.py`` with 9-mers.
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

IMAGE_SETTINGS = settings(derandomize=True, deadline=None, max_examples=12)


def _per_entry_subarray(layout, records):
    """One subarray loaded the per-entry way (the pre-block-store path)."""
    array = Subarray(layout.rows_per_subarray, layout.row_bits)
    per_layer = layout.refs_per_layer
    for layer, start in enumerate(range(0, len(records), per_layer)):
        chunk = records[start : start + per_layer]
        matrix = layout.ref_bit_matrix([kmer for kmer, _ in chunk])
        base = layout.layer_base_row(layer)
        for bit in range(layout.kmer_rows):
            array.load_row(base + bit, matrix[bit])
        for slot in range(len(chunk)):
            row, col = layout.offset_location(layer, slot)
            array.load_bits(row, col, _int_to_bits(slot, OFFSET_BITS))
        for slot, (_, payload) in enumerate(chunk):
            row, col = layout.payload_location(layer, slot)
            array.load_bits(row, col, _int_to_bits(payload, PAYLOAD_BITS))
    return array


def _per_entry_type1(layout, records):
    """A Type-1 bank region loaded the per-entry way."""
    array = Subarray(layout.rows, layout.row_bits)
    bits = np.zeros((layout.kmer_rows, layout.row_bits), dtype=np.uint8)
    for slot, (kmer, _) in enumerate(records):
        bits[:, slot] = _int_to_bits(kmer, layout.kmer_rows)
    for row in range(layout.kmer_rows):
        array.load_row(row, bits[row])
    for slot in range(len(records)):
        row, col = layout.offset_location(slot)
        array.load_bits(row, col, _int_to_bits(slot, OFFSET_BITS))
    for slot, (_, payload) in enumerate(records):
        row, col = layout.payload_location(slot)
        array.load_bits(row, col, _int_to_bits(payload, PAYLOAD_BITS))
    return array


def _records(layout, count, seed):
    """``count`` sorted unique k-mers with random 32-bit payloads; the
    first payload is 0 and the last (the final slot of the last,
    possibly partial, row) is 2^32 - 1."""
    rng = np.random.default_rng(seed)
    space = 1 << layout.kmer_rows
    pool = np.unique(rng.integers(0, space, size=2 * count, dtype=np.uint64))
    kmers = np.sort(rng.choice(pool, size=count, replace=False))
    payloads = rng.integers(0, MAX_PAYLOAD, size=count, endpoint=True)
    payloads[0] = 0
    payloads[-1] = MAX_PAYLOAD
    return list(zip(kmers.tolist(), payloads.tolist()))


def _database(layout, records):
    database = KmerDatabase(layout.k)
    for kmer, payload in records:
        database.add(kmer, payload)
    return database


def _device_cells(device):
    return [
        device.subarrays[sid].array.peek_rows(0, device.layout.rows_per_subarray)
        for sid in sorted(device.subarrays)
    ]


def _reference_cells(layout, records):
    per_subarray = layout.refs_per_subarray
    return [
        _per_entry_subarray(layout, records[start : start + per_subarray])
        .peek_rows(0, layout.rows_per_subarray)
        for start in range(0, len(records), per_subarray)
    ]


@st.composite
def device_shapes(draw):
    """(layout name, record count, seed): whole subarrays, then whole
    layers, then a tail of 1..refs_per_layer slots — so the last layer
    and its last Region-2/3 row are often partial."""
    name = draw(st.sampled_from(sorted(LAYOUTS)))
    layout = LAYOUTS[name]
    subarrays = draw(st.integers(0, 2 if name == "small" else 1))
    layers = draw(st.integers(0, layout.layers - 1))
    tail = draw(st.integers(1, layout.refs_per_layer))
    count = subarrays * layout.refs_per_subarray + layers * layout.refs_per_layer
    return name, count + tail, draw(st.integers(0, 2**16))


class TestDeviceImage:
    @IMAGE_SETTINGS
    @given(device_shapes())
    # Partial last layer and partial last Region-2/3 row (paper rows
    # hold 256 entries, small rows 2).
    @example(("paper", 7168 + 300, 3))
    @example(("small", 96 + 48 + 7, 5))
    # Full last layer, full last row.
    @example(("paper", 2 * 7168, 4))
    @example(("small", 96, 6))
    def test_cells_match_per_entry_load(self, shape):
        name, count, seed = shape
        layout = LAYOUTS[name]
        records = _records(layout, count, seed)
        device = SieveDevice.from_database(_database(layout, records), layout=layout)
        got = _device_cells(device)
        want = _reference_cells(layout, records)
        assert len(got) == len(want)
        for cells, ref in zip(got, want):
            assert np.array_equal(cells, ref)

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    @pytest.mark.parametrize("payload", [-1, 2**32])
    def test_out_of_range_payload_raises(self, name, payload):
        layout = LAYOUTS[name]
        records = _records(layout, 10, 0)
        records[4] = (records[4][0], payload)
        with pytest.raises(FunctionalError, match="does not fit in 32 bits"):
            SieveSubarraySim(layout, records)
        with pytest.raises(FunctionalError, match="does not fit in 32 bits"):
            SieveDevice.from_database(_database(layout, records), layout=layout)

    def test_type1_cells_match_per_entry_load(self):
        layout = Type1Layout(k=8, row_bits=192, rows=128)
        # 192 records fill the last Region-2/3 row (6 entries a row), 148
        # leave it partial.
        for count in (192, 148):
            records = _records(layout, count, count)
            sim = Type1BankSim(layout, records)
            ref = _per_entry_type1(layout, records)
            assert np.array_equal(
                sim.array.peek_rows(0, layout.rows), ref.peek_rows(0, layout.rows)
            )
        records[3] = (records[3][0], 2**32)
        with pytest.raises(FunctionalError):
            Type1BankSim(layout, records)


# -- fault path ----------------------------------------------------------------


def _faulted_builds(build, reference, seed):
    """Cells and injector of the block-store build and of the per-entry
    reference, each under a fresh injector with the same seeded model."""
    model = FaultModel(bit_flip_rate=0.01, seed=seed)
    out = []
    for loader in (build, reference):
        injector = FaultInjector(model)
        with fault_injection(injector):
            cells = loader()
        out.append((cells, injector))
    return out


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_fault_schedule_matches_per_entry_load(name):
    """A seeded bit-flip injector sees the same loads, flips and schedule
    from the block-store device build as from the per-entry load."""
    layout = LAYOUTS[name]
    records = _records(layout, 2 * layout.refs_per_layer + 3, 9)
    database = _database(layout, records)
    clean = _device_cells(SieveDevice.from_database(database, layout=layout))
    (got, block), (want, entry) = _faulted_builds(
        lambda: [
            c.copy()
            for c in _device_cells(SieveDevice.from_database(database, layout=layout))
        ],
        lambda: _reference_cells(layout, records),
        seed=21,
    )
    assert block.stats.loads == entry.stats.loads
    assert block.stats.bits_flipped == entry.stats.bits_flipped > 0
    assert block.stats == entry.stats
    assert block.schedule == entry.schedule
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert not all(np.array_equal(a, b) for a, b in zip(got, clean))


def test_type1_fault_schedule_matches_per_entry_load():
    layout = Type1Layout(k=8, row_bits=192, rows=128)
    records = _records(layout, 148, 2)
    (got, block), (want, entry) = _faulted_builds(
        lambda: Type1BankSim(layout, records).array.peek_rows(0, layout.rows).copy(),
        lambda: _per_entry_type1(layout, records).peek_rows(0, layout.rows).copy(),
        seed=4,
    )
    assert block.stats == entry.stats
    assert block.stats.bits_flipped > 0
    assert block.schedule == entry.schedule
    assert np.array_equal(got, want)


class TestBlockStores:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        st.lists(st.integers(0, MAX_PAYLOAD), max_size=40),
        st.sampled_from([8, 16, 32, 64]),
    )
    def test_bit_rows_match_int_to_bits(self, values, width):
        values = [v % (1 << width) for v in values]
        rows = _ints_to_bit_rows(values, width)
        assert rows.shape == (len(values), width)
        for value, row in zip(values, rows):
            assert np.array_equal(row, _int_to_bits(value, width))

    def test_bit_rows_validation(self):
        with pytest.raises(FunctionalError):
            _ints_to_bit_rows([1], 12)
        with pytest.raises(FunctionalError):
            _ints_to_bit_rows([0, -1], 32)
        with pytest.raises(FunctionalError):
            _ints_to_bit_rows([2**32], 32)
        assert _ints_to_bit_rows([2**64 - 1], 64).all()

    def test_load_entries_validation(self):
        array = Subarray(4, 72)
        with pytest.raises(ValueError):
            array.load_entries(0, np.zeros(8, dtype=np.uint8))
        with pytest.raises(ValueError):
            array.load_entries(0, np.zeros((1, 73), dtype=np.uint8))
        # 72-bit rows hold two 32-bit entries (8 columns unused): seven
        # entries starting at row 1 would need rows 1..4.
        with pytest.raises(IndexError):
            array.load_entries(1, np.zeros((7, 32), dtype=np.uint8))
        array.load_entries(1, np.full((6, 32), 3, dtype=np.uint8))
        cells = array.peek_rows(0, 4)
        assert not cells[0].any()
        assert cells[1:, :64].all() and not cells[1:, 64:].any()
        array.load_entries(0, np.zeros((0, 32), dtype=np.uint8))
        assert array.peek_rows(0, 4).sum() == 6 * 32
