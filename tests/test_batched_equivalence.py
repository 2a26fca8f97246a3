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
  cycles, early-termination flag, the CF result),
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

from repro.faults import FaultInjector, FaultModel, StuckCell, fault_injection
from repro.sieve.functional import SieveSubarraySim
from repro.sieve.layout import LayoutError, SubarrayLayout

TRIAL_SEEDS = list(range(12))


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
    batched.load_query_batch(queries, layer)
    scalar_outcomes = [scalar.match_slot(slot) for slot in range(len(queries))]
    batched_outcomes = batched.match_all()
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
    mixed.load_query_batch(queries, 0)
    twin.load_query_batch(queries, 0)
    mixed.match_all()
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
    fast_responses = fast.query(queries, batched=True)
    slow_responses = slow.query(queries, batched=False)
    assert fast_responses == slow_responses
    assert fast.stats == slow.stats
    for sid in fast.subarrays:
        assert fast.subarrays[sid].array.stats == slow.subarrays[sid].array.stats


def _per_run_query_load(sim, queries, layer):
    """Query-block write as one ``load_bits`` call per (row, group)."""
    layout = sim.layout
    block = layout.query_block_bits(list(queries))
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
