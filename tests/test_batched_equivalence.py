"""Property test: the batched query engine is bit-identical to the
scalar command-by-command path.

``SieveSubarraySim.match_all`` computes outcomes analytically (one
vectorized pass over the layer's Region-1 bit matrix) instead of
replaying every row activation, so its correctness rests entirely on
equivalence with the scalar reference.  These tests drive randomized —
but seeded, hence deterministic — layouts, reference databases, and
query batches through both paths and require *everything* observable to
agree:

* the full ``MatchOutcome`` dataclass per slot (hit, payload, column,
  ``rows_activated`` under the one-row-late ETM interrupt, flush
  cycles, early-termination flag, the CF result), rebuilt from the
  columnar ``MatchBatch`` by :func:`outcomes_from_batch`,
* the subarray's ``SubarrayStats`` (activations, precharges, reads,
  writes),
* the post-batch microarchitectural state: matcher latches and compare
  count, ETM cycle count, segment-OR, BSR, and SR chain — so a batched
  match can be followed by scalar commands and vice versa.

The suite-wide DRAM protocol sanitizer (see ``conftest.py``) is active
throughout, so the batched path's accounting is also sanitizer-checked.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultModel, StuckCell, fault_injection
from repro.genomics.encoding import transpose_kmers
from repro.sieve.column_finder import ColumnFindResult
from repro.sieve.functional import (
    FunctionalError,
    MatchBatch,
    MatchOutcome,
    PendingMatch,
    SieveSubarraySim,
)
from repro.sieve.layout import LayoutError, SubarrayLayout

TRIAL_SEEDS = list(range(12))


def outcomes_from_batch(sim, queries, batch: MatchBatch):
    """Per-query :class:`MatchOutcome` records of a ``match_all`` batch.

    A hit's Column Finder result is the closed form of the shifter run:
    it stops at the first live latch (``strict=False``), which is the
    reported column.
    """
    assert len(batch) == len(queries)
    segment_size = sim.etm.segment_size
    outcomes = []
    for i, query in enumerate(queries):
        hit = bool(batch.hit[i])
        column = int(batch.column[i])
        segment = column // segment_size
        cf = ColumnFindResult(
            column=column,
            segment=segment,
            bsr_shift_cycles=segment + 1,
            copy_cycles=1,
            rs_shift_cycles=column - segment * segment_size + 1,
        )
        outcomes.append(
            MatchOutcome(
                query=query,
                hit=hit,
                payload=int(batch.payload[i]) if hit else None,
                column=column if hit else None,
                layer=batch.layer,
                rows_activated=int(batch.rows_activated[i]),
                etm_flush_cycles=int(batch.etm_flush_cycles[i]),
                cf=cf if hit else None,
                etm_terminated_early=bool(batch.terminated_early[i]),
            )
        )
    return outcomes


def load_and_match(sim, layer, *batches):
    """Load ``batches`` into ``layer`` and match them as one destination."""
    blocks = [sim.load_query_batch(queries, layer) for queries in batches]
    return sim.match_all(PendingMatch(sim, layer, np.concatenate(blocks, axis=2)))


def random_trial(rng: np.random.Generator):
    """One random (layout, records, queries, etm, layer) configuration.

    Returns None when the sampled geometry does not fit a subarray —
    the caller resamples rather than constraining the space up front.
    """
    k = int(rng.integers(3, 8))
    refs_per_group = int(rng.integers(4, 14))
    queries_per_group = int(rng.integers(1, 5))
    num_groups = int(rng.integers(1, 4))
    layers = int(rng.integers(1, 3))
    row_bits = (refs_per_group + queries_per_group) * num_groups
    if row_bits < 32:  # Region 2/3 need a 32-bit offset/payload per row
        return None
    try:
        layout = SubarrayLayout(
            k=k,
            row_bits=row_bits,
            rows_per_subarray=240,
            refs_per_group=refs_per_group,
            queries_per_group=queries_per_group,
            layers=layers,
        )
    except LayoutError:
        return None

    space = 1 << (2 * k)
    capacity = min(layout.refs_per_subarray, space)
    num_records = int(rng.integers(1, capacity + 1))
    kmers = rng.choice(space, size=num_records, replace=False)
    records = [
        (int(kmer), int(rng.integers(0, 2**16)))
        for kmer in np.sort(kmers)
    ]

    batch_size = int(rng.integers(1, layout.queries_per_group + 1))
    queries = []
    for _ in range(batch_size):
        if records and rng.random() < 0.5:
            queries.append(records[int(rng.integers(0, len(records)))][0])
        else:
            queries.append(int(rng.integers(0, space)))
    etm_enabled = bool(rng.random() < 0.8)
    return layout, records, queries, etm_enabled


def run_both(layout, records, queries, etm_enabled):
    """Load the same batch into two identical sims; match both ways."""
    scalar = SieveSubarraySim(layout, records, etm_enabled=etm_enabled)
    batched = SieveSubarraySim(layout, records, etm_enabled=etm_enabled)
    layer = scalar.route_layer(queries[0])
    scalar.load_query_batch(queries, layer)
    scalar_outcomes = [scalar.match_slot(slot) for slot in range(len(queries))]
    batched_outcomes = outcomes_from_batch(
        batched, queries, load_and_match(batched, layer, queries)
    )
    return scalar, batched, scalar_outcomes, batched_outcomes


def assert_equivalent(scalar, batched, scalar_outcomes, batched_outcomes):
    assert batched_outcomes == scalar_outcomes
    assert batched.array.stats == scalar.array.stats
    assert batched.matchers.compare_count == scalar.matchers.compare_count
    assert np.array_equal(batched.matchers.latches, scalar.matchers.latches)
    assert batched.etm.cycles == scalar.etm.cycles
    assert np.array_equal(batched.etm.bsr, scalar.etm.bsr)
    assert np.array_equal(batched.etm._segment_or, scalar.etm._segment_or)
    assert np.array_equal(batched.etm._sr, scalar.etm._sr)


@pytest.mark.parametrize("seed", TRIAL_SEEDS)
def test_random_batches_bit_identical(seed):
    rng = np.random.default_rng(1_000 + seed)
    trial = None
    while trial is None:
        trial = random_trial(rng)
    layout, records, queries, etm_enabled = trial
    scalar, batched, s_out, b_out = run_both(
        layout, records, queries, etm_enabled
    )
    assert_equivalent(scalar, batched, s_out, b_out)


@pytest.mark.parametrize("etm_enabled", [True, False])
def test_hit_miss_mix_exhaustive_small_layout(small_layout, etm_enabled):
    """Deterministic corner mix on the shared fixture layout: exact hit,
    first-row divergence, last-row divergence, and a near-miss that
    shares all but the final bit with a reference."""
    space = 1 << (2 * small_layout.k)
    records = [(key, 100 + key % 7) for key in range(17, space, 9871)][
        : small_layout.refs_per_subarray
    ]
    near_miss = records[0][0] ^ 1  # flips the last (LSB) k-mer bit
    first_row_miss = records[0][0] ^ (space >> 1)
    queries = [records[0][0], near_miss, first_row_miss, records[-1][0]][
        : small_layout.queries_per_group
    ]
    scalar, batched, s_out, b_out = run_both(
        small_layout, records, queries, etm_enabled
    )
    assert_equivalent(scalar, batched, s_out, b_out)
    assert s_out[0].hit and s_out[0].payload == records[0][1]
    assert not s_out[1].hit


def test_batch_then_scalar_interleaving(small_layout):
    """State restored by the batched path supports continued scalar use:
    match a batch vectorized, then rematch slot 0 scalar on the same sim
    and compare against an all-scalar twin."""
    space = 1 << (2 * small_layout.k)
    records = [(key, key % 11) for key in range(3, space, 7001)][
        : small_layout.refs_per_subarray
    ]
    queries = [records[1][0], records[2][0] ^ 5][
        : small_layout.queries_per_group
    ]
    mixed = SieveSubarraySim(small_layout, records)
    twin = SieveSubarraySim(small_layout, records)
    load_and_match(mixed, 0, queries)
    twin.load_query_batch(queries, 0)
    [twin.match_slot(slot) for slot in range(len(queries))]
    assert mixed.match_slot(0) == twin.match_slot(0)
    assert mixed.array.stats == twin.array.stats


def test_device_level_batched_equals_scalar(small_layout, small_dataset):
    """Whole-device equivalence: ``query`` batched vs scalar on
    the shared synthetic dataset — responses and DeviceStats."""
    from repro.sieve import SieveDevice

    queries = sorted(
        {
            kmer
            for read in small_dataset.reads
            for kmer in read.kmers(small_dataset.k)
        }
    )
    fast = SieveDevice.from_database(small_dataset.database, layout=small_layout)
    slow = SieveDevice.from_database(small_dataset.database, layout=small_layout)
    fast_responses = fast.query(queries)
    slow_responses = slow.query_scalar(queries)
    assert fast_responses == slow_responses
    assert fast.stats == slow.stats
    for sid in fast.subarrays:
        assert fast.subarrays[sid].array.stats == slow.subarrays[sid].array.stats


def _per_run_query_load(sim, queries, layer):
    """Query-block write as one ``load_bits`` call per (row, group)."""
    layout = sim.layout
    block = layout.query_block(transpose_kmers(list(queries), layout.k))
    base = layout.layer_base_row(layer)
    for bit in range(layout.kmer_rows):
        for g in range(layout.num_groups):
            sim.array.load_bits(
                base + bit, layout.query_columns(g).start, block[bit]
            )


def _query_loads(layout, model):
    """Cells (and injector) after two query batches — the second one
    shorter, so stale slots must be zeroed — via the block store and
    via per-run loads."""
    space = 1 << (2 * layout.k)
    records = [(key, key % 7) for key in range(5, space, 4099)][
        : layout.refs_per_subarray
    ]
    batches = [
        ([records[0][0], 3, space - 1, records[5][0]], 1),
        ([records[2][0]], 0),
    ]
    results = []
    for block_store in (True, False):
        injector = None if model is None else FaultInjector(model)
        scope = nullcontext() if injector is None else fault_injection(injector)
        with scope:
            sim = SieveSubarraySim(layout, records)
            for queries, layer in batches:
                queries = queries[: layout.queries_per_group]
                if block_store:
                    sim.load_query_batch(queries, layer)
                else:
                    _per_run_query_load(sim, queries, layer)
        results.append((sim.array.peek_rows(0, sim.array.rows).copy(), injector))
    return results


def test_query_block_store_matches_per_run_loads(small_layout):
    (block_cells, _), (run_cells, _) = _query_loads(small_layout, None)
    assert np.array_equal(block_cells, run_cells)


def test_query_block_store_under_injector(small_layout):
    """With an injector installed the block store makes the same
    per-(row, group) load calls: identical loads, schedule and cells."""
    stuck = StuckCell(
        "unit0",
        small_layout.layer_base_row(1),
        int(small_layout.query_column_matrix[1, 2]),
        1,
    )
    model = FaultModel(bit_flip_rate=0.05, stuck_cells=(stuck,), seed=11)
    (block_cells, block_inj), (run_cells, run_inj) = _query_loads(
        small_layout, model
    )
    assert block_inj.stats == run_inj.stats
    assert block_inj.stats.stuck_applied > 0
    assert block_inj.schedule == run_inj.schedule
    assert np.array_equal(block_cells, run_cells)


def test_load_bit_block_validation():
    from repro.dram.subarray import Subarray

    array = Subarray(8, 32)
    starts = np.array([0, 16])
    with pytest.raises(ValueError):
        array.load_bit_block(0, starts, np.zeros((2, 3, 4), dtype=np.uint8))
    with pytest.raises(IndexError):
        array.load_bit_block(0, starts, np.zeros((2, 17), dtype=np.uint8))
    with pytest.raises(IndexError):
        array.load_bit_block(7, starts, np.zeros((2, 4), dtype=np.uint8))
    array.load_bit_block(6, starts, np.full((2, 4), 3, dtype=np.uint8))
    assert array.peek_rows(6, 8)[:, [0, 3, 16, 19]].all()
    assert array.peek_rows(6, 8).sum() == 16


@pytest.mark.parametrize("flip_rate", [0.0, 0.05], ids=["clean", "faulty"])
def test_load_bit_block_stack_equals_one_store_per_block(flip_rate, monkeypatch):
    """A stack whose blocks repeat first rows stores as one call per
    block, in order, does: the same cells and per-block stored cells
    and, under a fault injector, the same ``load_bits`` calls, counters
    and schedule."""
    from repro.dram.subarray import Subarray

    rng = np.random.default_rng(3)
    starts = np.array([2, 14, 26])
    firsts = [4, 0, 4, 9, 0, 4]
    blocks = rng.integers(0, 2, (len(firsts), 3, 8)).astype(bool)
    original = Subarray.load_bits
    runs = []
    for stacked in (True, False):
        array = Subarray(16, 40)
        calls = []

        def spy(self, row, col_start, bits):
            calls.append((row, col_start))
            return original(self, row, col_start, bits)

        injector = FaultInjector(FaultModel(bit_flip_rate=flip_rate, seed=5))
        with monkeypatch.context() as patch, (
            fault_injection(injector) if flip_rate else nullcontext()
        ):
            patch.setattr(Subarray, "load_bits", spy)
            if stacked:
                stored = array.load_bit_block(firsts, starts, blocks)
            else:
                stored = np.concatenate(
                    [array.load_bit_block(f, starts, b) for f, b in zip(firsts, blocks)]
                )
        runs.append((array.peek_rows(0, 16).copy(), stored, calls, injector))
    (cells, stored, calls, injector), (one_cells, one_stored, one_calls, one) = runs
    assert np.array_equal(cells, one_cells)
    assert stored.shape == (len(firsts), 3, len(starts), 8)
    assert np.array_equal(stored, one_stored)
    assert calls == one_calls
    assert len(calls) == (len(firsts) * 3 * len(starts) if flip_rate else 0)
    assert (injector.stats.loads, injector.stats.bits_flipped) == (
        one.stats.loads,
        one.stats.bits_flipped,
    )
    assert injector.schedule == one.schedule
    if flip_rate:
        assert injector.stats.bits_flipped > 0
    else:
        assert np.array_equal(stored, np.broadcast_to(blocks[:, :, None], stored.shape))


# -- multi-batch match_all and the columnar device path ----------------------

MULTI_SETTINGS = settings(derandomize=True, deadline=None, max_examples=25)


def _columns(batches):
    """Every :class:`MatchBatch` column, concatenated over ``batches``."""
    return {
        name: np.concatenate([getattr(batch, name) for batch in batches])
        for name in (
            "hit",
            "payload",
            "column",
            "rows_activated",
            "etm_flush_cycles",
            "terminated_early",
        )
    }


@MULTI_SETTINGS
@given(
    seed=st.integers(0, 2**31 - 1),
    num_batches=st.integers(2, 4),
    faulty=st.booleans(),
)
def test_pending_batches_match_like_separate_rounds(seed, num_batches, faulty):
    """N loads matched as one destination equal N load-and-match rounds and
    the scalar replay: every column, the ACT/PRE counters, the matcher
    latches and the ETM state — also on cells a nonzero-rate fault
    injector corrupted at load time."""
    rng = np.random.default_rng(seed)
    trial = None
    while trial is None:
        trial = random_trial(rng)
    layout, records, _, etm_enabled = trial
    space = 1 << (2 * layout.k)
    batches = [
        [
            records[int(rng.integers(0, len(records)))][0]
            if rng.random() < 0.5
            else int(rng.integers(0, space))
            for _ in range(int(rng.integers(1, layout.queries_per_group + 1)))
        ]
        for _ in range(num_batches)
    ]
    model = FaultModel(bit_flip_rate=2e-2 if faulty else 0.0, seed=seed)
    layer_pick = int(rng.integers(0, 1 << 16))

    def build(drive):
        injector = FaultInjector(model)
        with fault_injection(injector):
            sim = SieveSubarraySim(layout, records, etm_enabled=etm_enabled)
            results = drive(sim, layer_pick % sim.num_layers_used)
        return sim, results, injector

    def pooled(sim, layer):
        return [load_and_match(sim, layer, *batches)]

    def rounds(sim, layer):
        return [load_and_match(sim, layer, queries) for queries in batches]

    def scalar(sim, layer):
        out = []
        for queries in batches:
            sim.load_query_batch(queries, layer)
            outcomes = [sim.match_slot(s) for s in range(len(queries))]
            out.append(MatchBatch.from_outcomes(layer, outcomes))
        return out

    one, one_out, one_inj = build(pooled)
    assert len(one_out[0]) == sum(len(b) for b in batches)
    flat = [q for queries in batches for q in queries]
    for reference in (build(rounds), build(scalar)):
        sim, out, injector = reference
        assert injector.stats == one_inj.stats
        want = _columns(out)
        got = _columns(one_out)
        for name in want:
            assert np.array_equal(got[name], want[name]), name
        assert_equivalent(
            sim,
            one,
            outcomes_from_batch(sim, flat, MatchBatch(out[0].layer, **want)),
            outcomes_from_batch(one, flat, one_out[0]),
        )


def _device_from_records(layout, records):
    """A device over raw sorted records (any ``k``, no KmerDatabase)."""
    from repro.sieve import SieveDevice
    from repro.sieve.index import SubarrayIndex

    index, chunks = SubarrayIndex.build(
        [kmer for kmer, _ in records], layout.refs_per_subarray
    )
    payload_of = dict(records)
    subarrays = {
        sid: SieveSubarraySim(layout, [(kmer, payload_of[kmer]) for kmer in chunk])
        for sid, chunk in enumerate(chunks)
    }
    return SieveDevice(index, subarrays, layout)


def _device_case(case, small_dataset, small_layout):
    """(device factory, k, expected answers) of one device flavour."""
    from repro.genomics.database import KmerDatabase
    from repro.sieve import SieveDevice

    if case == "wide":
        rng = np.random.default_rng(77)
        layout = SubarrayLayout(
            k=33,
            row_bits=72,
            rows_per_subarray=256,
            refs_per_group=8,
            queries_per_group=4,
            layers=2,
        )
        # 66-bit k-mers: most exceed one word, so routing compares ints.
        kmers = sorted(
            {
                (int(high) << 4) | int(low)
                for high, low in zip(
                    rng.integers(1, 1 << 62, size=250), rng.integers(0, 16, size=250)
                )
            }
        )
        records = [(kmer, int(rng.integers(0, 2**16))) for kmer in kmers]
        return (lambda: _device_from_records(layout, records)), 33, dict(records)
    database = small_dataset.database
    if case == "canonical":
        database = KmerDatabase.from_genomes(
            ((g, g.taxon_id) for g in small_dataset.genomes),
            small_dataset.k,
            canonical=True,
            taxonomy=small_dataset.taxonomy,
        )
    return (
        lambda: SieveDevice.from_database(database, layout=small_layout),
        small_dataset.k,
        dict(database.sorted_records()),
    )


@pytest.mark.parametrize("case", ["plain", "canonical", "wide"])
def test_device_batched_equals_unbatched_on_mixed_calls(
    case, small_dataset, small_layout
):
    """``query == query_scalar`` on calls mixing
    hits across layers and subarrays, index-filtered gaps, random
    misses, duplicates and an empty call — responses, DeviceStats,
    every subarray's ACT/PRE counters and final latches/ETM state."""
    from repro.genomics.encoding import canonical_kmer

    make, k, answers = _device_case(case, small_dataset, small_layout)
    fast, slow = make(), make()
    stored = sorted(answers)
    entries = fast.index.entries
    gaps = [
        (a.last_kmer + b.first_kmer) // 2
        for a, b in zip(entries, entries[1:])
        if b.first_kmer - a.last_kmer > 1
    ]
    assert len(entries) > 1 and gaps
    rng = np.random.default_rng(5)
    space = 1 << (2 * k)
    calls = [[]]
    for size in (1, 7, 40, 150):
        call = [stored[int(i)] for i in rng.integers(0, len(stored), size)]
        call += [(int(v) * space) >> 62 for v in rng.integers(0, 1 << 62, size)]
        call += gaps[: size % 5 + 1] + [0, space - 1] + call[: size // 3]
        calls.append([call[int(i)] for i in rng.permutation(len(call))])
    for call in calls:
        got = fast.query(call)
        want = slow.query_scalar(call)
        assert got == want
        for query, response in zip(call, got):
            key = canonical_kmer(query, k) if fast.canonical else query
            assert type(response.query) is int and response.query == key
            assert response.payload == answers.get(key)
        assert fast.stats == slow.stats
    assert fast.stats.index_filtered > 0
    assert fast.stats.rows_histogram.sum() == fast.stats.queries
    for sid, sim in fast.subarrays.items():
        twin = slow.subarrays[sid]
        assert sim.array.stats == twin.array.stats
        assert np.array_equal(sim.matchers.latches, twin.matchers.latches)
        assert sim.etm.cycles == twin.etm.cycles
        assert np.array_equal(sim.etm._sr, twin.etm._sr)


# -- one match pass per device call ------------------------------------------

FUSED_LAYOUTS = {
    # Two ETM segments per row, so short layers use a segment prefix.
    "narrow": SubarrayLayout(
        k=6,
        row_bits=288,
        rows_per_subarray=160,
        refs_per_group=32,
        queries_per_group=4,
        layers=2,
    ),
    # k = 33: two-word rows, so every destination takes the general sweep.
    "wide": SubarrayLayout(
        k=33,
        row_bits=72,
        rows_per_subarray=256,
        refs_per_group=8,
        queries_per_group=4,
        layers=2,
    ),
}


def query_per_destination(device, kmers):
    """``device.query(kmers)`` with one ``match_all`` call per
    destination right after its loads: the reference of the fused pass.

    Routes each k-mer with the scalar ``route_layer``, serves the
    (subarray, layer) destinations in that order and charges
    :class:`DeviceStats` the way ``query`` does."""
    from repro.api import ResultBatch, key_array

    kmers = key_array(kmers)
    count = kmers.size
    sids = device.index.route_many(kmers)
    destinations = {}
    for i in np.flatnonzero(sids >= 0).tolist():
        sim = device.subarrays[int(sids[i])]
        key = (int(sids[i]), sim.route_layer(int(kmers[i])))
        destinations.setdefault(key, []).append(i)
    hit = np.zeros(count, dtype=bool)
    payload = np.zeros(count, dtype=np.int64)
    rows = np.zeros(count, dtype=np.int64)
    flush = np.zeros(count, dtype=np.int64)
    size = device.layout.queries_per_group
    for (sid, layer), positions in sorted(destinations.items()):
        sim = device.subarrays[sid]
        batches = [
            [int(kmers[p]) for p in positions[lo : lo + size]]
            for lo in range(0, len(positions), size)
        ]
        device.stats.write_commands += (
            len(batches) * device.layout.batch_write_commands
        )
        device.stats.batches += len(batches)
        result = load_and_match(sim, layer, *batches)
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


def subarray_state(sim):
    """Everything a match leaves on one subarray."""
    return (
        sim.array.stats,
        sim.matchers._enable.tolist(),
        sim.matchers.latches.tolist(),
        sim.matchers.compare_count,
        sim.etm.cycles,
        sim.etm.bsr.tolist(),
        sim.etm._segment_or.tolist(),
        sim.etm._sr.tolist(),
    )


def subarray_states(device):
    return {sid: subarray_state(sim) for sid, sim in device.subarrays.items()}


def fused_case(name, seed):
    """(layout, sorted records, calls) of one fused-pass example.

    Calls mix stored k-mers of every layer of every subarray, random
    misses, index-filtered gaps between subarrays, duplicates and an
    empty call; the last subarray is part-filled."""
    layout = FUSED_LAYOUTS[name]
    rng = np.random.default_rng(seed)
    space = 1 << (2 * layout.k)
    count = int(rng.integers(2, 4) * layout.refs_per_subarray + rng.integers(1, 60))
    keys = set()
    while len(keys) < count:
        keys.add((int(rng.integers(0, 1 << 62)) * space) >> 62)
    records = [(key, int(rng.integers(0, 2**16))) for key in sorted(keys)]
    stored = [key for key, _ in records]
    per = layout.refs_per_subarray
    gaps = [
        (stored[i - 1] + stored[i]) // 2
        for i in range(per, len(stored), per)
        if stored[i] - stored[i - 1] > 1
    ]
    calls = [[]]
    for size in rng.integers(1, 40, size=3).tolist():
        call = [stored[int(i)] for i in rng.integers(0, len(stored), size)]
        call += [(int(v) * space) >> 62 for v in rng.integers(0, 1 << 62, size // 2 + 1)]
        call += gaps + call[: size // 3]
        calls.append([call[int(i)] for i in rng.permutation(len(call))])
    return layout, records, calls


def _run_fused_case(name, seed, flip_rate):
    from repro.sieve import SieveDevice

    layout, records, calls = fused_case(name, seed)
    modes = {
        "fused": SieveDevice.query,
        "per_destination": query_per_destination,
        "scalar": SieveDevice.query_scalar,
    }
    runs = {}
    for mode, query in modes.items():
        # No injector at rate 0: the pristine block-store load path.
        injector = FaultInjector(FaultModel(bit_flip_rate=flip_rate, seed=seed))
        with fault_injection(injector) if flip_rate else nullcontext():
            device = _device_from_records(layout, records)
            answers = [query(device, call) for call in calls]
        runs[mode] = (answers, device, injector)
    return calls, runs


@settings(derandomize=True, deadline=None, max_examples=10)
@given(
    name=st.sampled_from(sorted(FUSED_LAYOUTS)),
    seed=st.integers(0, 2**31 - 1),
    # A low rate leaves some layers pristine, so sorted-neighbour and
    # fallback destinations meet in one pass; a high one corrupts most.
    flip_rate=st.sampled_from([0.0, 2e-4, 2e-2]),
)
def test_fused_pass_equals_per_destination_matching(name, seed, flip_rate):
    """One ``match_all`` pass over every destination of a call equals a
    ``match_all()`` per destination and the scalar replay: responses,
    DeviceStats, each subarray's ACT/PRE counters, Match-Enable,
    latches, ETM cycles, BSR/segment-OR/SR, and the fault injector's
    stats and schedule — with and without load-time bit flips, so
    sorted-neighbour and fallback destinations mix in one call."""
    calls, runs = _run_fused_case(name, seed, flip_rate)
    fused_answers, fused, fused_injector = runs["fused"]
    for mode in ("per_destination", "scalar"):
        answers, device, injector = runs[mode]
        assert fused_answers == answers, mode
        assert fused.stats == device.stats, mode
        assert subarray_states(fused) == subarray_states(device), mode
        assert fused_injector.stats == injector.stats, mode
        assert fused_injector.schedule == injector.schedule, mode
    assert len(fused_answers[0]) == 0


def test_fused_call_covers_two_layers_gaps_and_both_match_paths():
    """The sampled calls reach what the property test relies on: a
    subarray served on two layers in one call, index-filtered k-mers,
    duplicates — and, under faults, sorted-neighbour and fallback
    destinations in the same ``match_all`` pass."""
    from unittest import mock

    from repro.sieve import kernels

    layout, records, calls = fused_case("narrow", 3)
    device = _device_from_records(layout, records)

    def destinations_of(call):
        sids = device.index.route_many(np.array(call, dtype=np.uint64))
        return sids, {
            (int(s), device.subarrays[int(s)].route_layer(k))
            for s, k in zip(sids, call)
            if s >= 0
        }

    call = calls[-1]
    sids, destinations = destinations_of(call)
    assert (sids < 0).any() and len(set(call)) < len(call)
    assert len({s for s, _ in destinations}) < len(destinations)

    used = {"segment_divergence": 0, "first_divergence": 0}

    def spy(name):
        original = getattr(kernels, name)

        def counted(*args, **kwargs):
            used[name] += 1
            return original(*args, **kwargs)

        return mock.patch.object(kernels, name, counted)

    passes = []
    original_match_all = SieveSubarraySim.match_all

    def match_all(self, *destinations):
        passes.append(len(destinations))
        return original_match_all(self, *destinations)

    with spy("segment_divergence"), spy("first_divergence"), mock.patch.object(
        SieveSubarraySim, "match_all", match_all
    ):
        _, runs = _run_fused_case("narrow", 3, flip_rate=2e-4)
    # One pass over every destination of each non-empty fused call, then
    # one single-destination pass per destination of the reference loop;
    # under faults both kernels ran.
    per_call = [len(destinations_of(call)[1]) for call in calls[1:]]
    assert max(per_call) > 1
    assert passes == per_call + [1] * sum(per_call)
    assert used["segment_divergence"] and used["first_divergence"]
    assert runs["per_destination"][0] == runs["fused"][0]


def test_match_all_over_detached_destinations():
    """The blocks each load returns form a destination, so the same
    subarray can load its other layer before matching; ``match_all``
    over every destination then equals one ``match_all`` call per
    destination, an empty destination only sets the Match-Enable, and
    a pass needs at least one destination.  Layer 1
    holds 144 references, fewer than its second ETM segment's first
    slot (228), and its last query hits its last reference: the
    segment past the short layer must stay dead in the ETM state."""
    layout = FUSED_LAYOUTS["narrow"]
    size = layout.queries_per_group
    records = [(key, key % 97) for key in range(0, 4096, 7)][:400]
    fused, plain, scalar = (SieveSubarraySim(layout, records) for _ in range(3))
    layer_keys = [
        [records[0][0], records[3][0] ^ 1, records[9][0]],
        [records[-1][0], 1, records[-2][0], records[-5][0], records[-1][0]],
    ]
    taken, want, outcomes = [], [], []
    for layer, keys in enumerate(layer_keys):
        batches = [keys[lo : lo + size] for lo in range(0, len(keys), size)]
        blocks = [fused.load_query_batch(batch, layer) for batch in batches]
        taken.append(PendingMatch(fused, layer, np.concatenate(blocks, axis=2)))
        want.append(load_and_match(plain, layer, *batches))
        for batch in batches:
            scalar.load_query_batch(batch, layer)
            outcomes += [scalar.match_slot(s) for s in range(len(batch))]
    # A later load into layer 0 leaves the taken blocks as they were.
    for sim in (fused, plain, scalar):
        sim.load_query_batch([records[0][0]], 0)
    # An empty destination last: only the Match-Enable follows it.
    with pytest.raises(FunctionalError):
        fused.match_all()
    empty = np.zeros((layout.kmer_rows, layout.num_groups, 0), dtype=bool)
    taken.append(PendingMatch(fused, 0, empty))
    want.append(plain.match_all(PendingMatch(plain, 0, empty)))
    got = fused.match_all(*taken)
    assert got.layer == -1 and [len(t) for t in taken] == [3, 5, 0]
    for reference in (want, [MatchBatch.from_outcomes(-1, outcomes)]):
        for name, column in _columns([got]).items():
            assert np.array_equal(column, _columns(reference)[name]), name
    assert subarray_state(fused) == subarray_state(plain)
    # The scalar replay last matched layer 1, so only its enable differs.
    state, replay = subarray_state(fused), subarray_state(scalar)
    assert state[:1] + state[2:] == replay[:1] + replay[2:]
