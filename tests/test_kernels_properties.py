"""Property suite for ``repro.sieve.kernels`` and the packed engine.

Three layers of bit-identity, all hypothesis-driven with deterministic
settings so CI never flakes:

* **kernel proper** — ``pack_bit_columns`` round-trips arbitrary bit
  matrices (including odd widths whose last word carries zero tail
  bits), ``bit_length64`` agrees with Python's ``int.bit_length``,
  ``first_divergence`` agrees with a scalar reference sweep, and
  ``segment_divergence`` (the single-word sorted-neighbour form) agrees
  with the per-segment max of the full divergence matrix and with the
  brute-force first matching column;
* **helper round trips** — the vectorized ``_int_to_bits`` /
  ``_bits_to_int`` / ``_bit_rows_to_ints`` conversions invert each
  other and match Python's binary formatting;
* **engine** — ``match_all`` produces outcomes, stats, and
  microarchitectural state bit-identical to the scalar path — with and
  without a nonzero :class:`FaultInjector` bit-flip rate corrupting the
  loaded arrays — on single-word layouts (the sorted-neighbour kernel)
  and on 2-word ``k > 32`` layouts (the per-group sweep); stuck cells
  that break either fast-path guard route it through the sweep with the
  same bit-identity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultModel, StuckCell, fault_injection
from repro.sieve import kernels
from repro.sieve.functional import (
    PendingMatch,
    SieveSubarraySim,
    _bit_rows_to_ints,
    _bits_to_int,
    _int_to_bits,
)
from repro.sieve.kernels import KernelError
from repro.sieve.layout import SubarrayLayout

from .test_batched_equivalence import (
    assert_equivalent,
    load_and_match,
    outcomes_from_batch,
    random_trial,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


def _random_bits(seed: int, rows: int, cols: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)


def _unpack_bit(packed: np.ndarray, row: int) -> np.ndarray:
    word, bit = divmod(row, kernels.WORD_BITS)
    shift = np.uint64(kernels.WORD_BITS - 1 - bit)
    return ((packed[word] >> shift) & np.uint64(1)).astype(np.uint8)


def _reference_first_divergence(
    ref_bits: np.ndarray, query_bits: np.ndarray
) -> np.ndarray:
    """Scalar reference: first row where each (query, column) differs."""
    rows, num_refs = ref_bits.shape
    num_queries = query_bits.shape[1]
    out = np.full((num_queries, num_refs), rows, dtype=np.int64)
    for n in range(num_queries):
        for r in range(num_refs):
            for row in range(rows):
                if ref_bits[row, r] != query_bits[row, n]:
                    out[n, r] = row
                    break
    return out


class TestPacking:
    # Widths straddle the word boundary on purpose: 63/64/65/130 cover
    # the full-word, exact-fit, and odd-tail cases.
    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.sampled_from([1, 7, 31, 63, 64, 65, 100, 128, 130]),
        cols=st.integers(1, 12),
    )
    def test_pack_round_trip(self, seed, rows, cols):
        bits = _random_bits(seed, rows, cols)
        packed = kernels.pack_bit_columns(bits)
        assert packed.shape == (kernels.words_for(rows), cols)
        for row in range(rows):
            assert np.array_equal(_unpack_bit(packed, row), bits[row])

    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.sampled_from([1, 63, 65, 100, 130]),
        cols=st.integers(1, 8),
    )
    def test_tail_bits_are_zero(self, seed, rows, cols):
        packed = kernels.pack_bit_columns(_random_bits(seed, rows, cols))
        for row in range(rows, packed.shape[0] * kernels.WORD_BITS):
            assert not _unpack_bit(packed, row).any()

    def test_zero_rows(self):
        packed = kernels.pack_bit_columns(np.zeros((0, 5), dtype=np.uint8))
        assert packed.shape == (0, 5)

    def test_words_for(self):
        assert [kernels.words_for(r) for r in (0, 1, 64, 65, 128, 129)] == [
            0, 1, 1, 2, 2, 3,
        ]
        with pytest.raises(KernelError):
            kernels.words_for(-1)

    def test_non_2d_rejected(self):
        with pytest.raises(KernelError):
            kernels.pack_bit_columns(np.zeros(4, dtype=np.uint8))


class TestBitLength:
    @SETTINGS
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_matches_python(self, values):
        words = np.array(values, dtype=np.uint64)
        expected = np.array([v.bit_length() for v in values], dtype=np.int64)
        assert np.array_equal(kernels.bit_length64(words), expected)

    def test_popcount_fallback_matches(self, monkeypatch):
        """The pre-numpy-2 byte-table path stays identical to
        ``np.bitwise_count``."""
        words = np.array(
            [0, 1, 2**63, 2**64 - 1, 0xDEADBEEF, 3], dtype=np.uint64
        )
        fast = kernels.bit_length64(words)
        monkeypatch.setattr(kernels, "_HAVE_BITWISE_COUNT", False)
        assert np.array_equal(kernels.bit_length64(words), fast)


class TestFirstDivergence:
    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.sampled_from([1, 5, 26, 63, 64, 65, 100, 130]),
        num_refs=st.integers(1, 10),
        num_queries=st.integers(1, 6),
    )
    def test_matches_scalar_reference(self, seed, rows, num_refs, num_queries):
        ref_bits = _random_bits(seed, rows, num_refs)
        query_bits = _random_bits(seed + 1, rows, num_queries)
        # Plant exact matches so the rows sentinel is exercised too.
        if num_refs > 1:
            query_bits[:, 0] = ref_bits[:, num_refs // 2]
        div = kernels.first_divergence(
            kernels.pack_bit_columns(ref_bits),
            kernels.pack_bit_columns(query_bits),
            rows,
        )
        assert np.array_equal(
            div, _reference_first_divergence(ref_bits, query_bits)
        )

    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.integers(1, kernels.WORD_BITS),
        data=st.data(),
    )
    def test_segment_divergence_is_per_segment_max(self, seed, rows, data):
        """Sorted-neighbour form == brute force over every column: the
        per-segment max of the full divergence matrix, and the first
        all-equal column for hits."""
        rng = np.random.default_rng(seed)
        space = 1 << rows
        num_refs = data.draw(st.integers(1, min(space, 24)))
        values = np.unique(
            rng.integers(0, space, size=num_refs, dtype=np.uint64)
        )
        num_refs = values.size
        # Segments of any width, one-reference segments included.
        cuts = data.draw(
            st.sets(st.integers(1, max(num_refs - 1, 1)), max_size=num_refs)
        )
        seg_starts = np.array(
            sorted({0} | {c for c in cuts if c < num_refs}), dtype=np.intp
        )
        # Random queries, plus below the minimum, above the maximum, and
        # exactly on (and next to) every segment boundary.
        lo, hi = int(values[0]), int(values[-1])
        probes = rng.integers(0, space, size=4, dtype=np.uint64).tolist()
        probes += [max(lo - 1, 0), min(hi + 1, space - 1), 0, space - 1]
        for start in seg_starts:
            edge = int(values[start])
            probes += [edge, max(edge - 1, 0), min(edge + 1, space - 1)]
        query = np.array(probes, dtype=np.uint64)
        shift = np.uint64(kernels.WORD_BITS - rows)
        ref_row, query_row = values << shift, query << shift

        seg_div, hit_slot, any_hit = kernels.segment_divergence(
            ref_row, query_row, rows, seg_starts
        )
        full = kernels.first_divergence(
            ref_row[None, :], query_row[None, :], rows
        )
        assert np.array_equal(
            seg_div, np.maximum.reduceat(full, seg_starts, axis=1)
        )
        hits = full == rows
        assert np.array_equal(any_hit, hits.any(axis=1))
        assert np.array_equal(
            hit_slot[any_hit], hits.argmax(axis=1)[any_hit]
        )

        # Two runs in one call: the whole row, then a prefix of it whose
        # segments past the prefix hold no reference (-1).
        cut = data.draw(st.integers(1, num_refs))
        both = kernels.segment_divergence(
            np.concatenate([ref_row, ref_row[:cut]]),
            np.concatenate([query_row, query_row]),
            rows,
            seg_starts,
            runs=((0, num_refs, num_refs + cut), (0, query.size, 2 * query.size)),
        )
        used = seg_starts[seg_starts < cut]
        short = np.full_like(seg_div, -1)
        short[:, : used.size] = np.maximum.reduceat(full[:, :cut], used, axis=1)
        short_hits = hits[:, :cut]
        assert np.array_equal(both[0], np.concatenate([seg_div, short]))
        assert np.array_equal(
            both[2], np.concatenate([any_hit, short_hits.any(axis=1)])
        )
        found = np.concatenate([any_hit, short_hits.any(axis=1)])
        assert np.array_equal(
            both[1][found],
            np.concatenate([hits.argmax(axis=1), short_hits.argmax(axis=1)])[found],
        )

    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.integers(1, kernels.WORD_BITS),
        layout=st.sampled_from(["ascending", "shuffled", "overlapping"]),
        num_runs=st.integers(1, 6),
    )
    def test_multi_run_equals_single_runs(self, seed, rows, layout, num_runs):
        """One multi-run call equals the single-run calls concatenated:
        runs whose words ascend across run boundaries (one search over
        the whole row), disjoint runs out of order (several layers of
        one subarray matched in serving order) and overlapping runs
        (both searched in ``(run, word)`` key space), with one-reference
        runs and runs without queries among them."""
        rng = np.random.default_rng(seed)
        space = 1 << rows
        lengths = rng.integers(1, 6, size=num_runs)
        if layout == "overlapping":
            runs = [
                np.unique(rng.integers(0, space, size=n, dtype=np.uint64))
                for n in lengths
            ]
        else:
            # Disjoint ranges: one sorted draw cut into consecutive runs.
            values = np.unique(
                rng.integers(0, space, size=lengths.sum(), dtype=np.uint64)
            )
            cuts = rng.choice(
                np.arange(1, max(values.size, 2)),
                size=min(num_runs - 1, values.size - 1),
                replace=False,
            )
            runs = np.split(values, np.sort(cuts))
            if layout == "shuffled":
                runs = [runs[i] for i in rng.permutation(len(runs))]
        queries = []
        for run in runs:
            count = int(rng.integers(0, 5))
            probes = rng.integers(0, space, size=count, dtype=np.uint64).tolist()
            if count:
                probes += [int(run[0]), int(run[-1]), min(int(run[-1]) + 1, space - 1)]
            queries.append(np.array(probes, dtype=np.uint64))
        shift = np.uint64(kernels.WORD_BITS - rows)
        seg_starts = np.array([0, 2, 3], dtype=np.intp)
        got = kernels.segment_divergence(
            np.concatenate(runs) << shift,
            np.concatenate(queries) << shift,
            rows,
            seg_starts,
            runs=(
                np.cumsum([0] + [run.size for run in runs]),
                np.cumsum([0] + [query.size for query in queries]),
            ),
        )
        singles = [
            kernels.segment_divergence(run << shift, query << shift, rows, seg_starts)
            for run, query in zip(runs, queries)
        ]
        for column, name in enumerate(("seg_div", "hit_slot", "any_hit")):
            want = np.concatenate([single[column] for single in singles])
            assert np.array_equal(got[column], want), name

    def test_word_count_mismatch_rejected(self):
        ref = np.zeros((2, 3), dtype=np.uint64)
        query = np.zeros((1, 2), dtype=np.uint64)
        with pytest.raises(KernelError):
            kernels.first_divergence(ref, query, 65)
        with pytest.raises(KernelError):
            kernels.first_divergence(ref, ref, 64)

    def test_segment_divergence_validation(self):
        refs = np.arange(4, dtype=np.uint64)
        starts = np.array([0, 2])
        with pytest.raises(KernelError):
            kernels.segment_divergence(refs[None, :], refs, 8, starts)
        with pytest.raises(KernelError):
            kernels.segment_divergence(refs[:0], refs, 8, starts[:1])
        with pytest.raises(KernelError):
            kernels.segment_divergence(refs, refs, 65, starts)
        with pytest.raises(KernelError):
            kernels.segment_divergence(refs, refs, 0, starts)
        for runs in (((0, 2, 2, 4), (0, 1, 2, 4)), ((0, 4), (0, 2, 4)), ((0, 3), (0, 4))):
            with pytest.raises(KernelError):
                kernels.segment_divergence(refs, refs, 8, starts, runs=runs)


class TestIntBitsRoundTrip:
    @SETTINGS
    @given(data=st.data(), width=st.integers(1, 64))
    def test_round_trip(self, data, width):
        value = data.draw(st.integers(0, 2**width - 1))
        bits = _int_to_bits(value, width)
        assert bits.shape == (width,)
        assert np.array_equal(
            bits,
            np.array([int(c) for c in format(value, f"0{width}b")],
                     dtype=np.uint8),
        )
        assert _bits_to_int(bits) == value

    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        num_bytes=st.integers(1, 6),
        rows=st.integers(1, 10),
    )
    def test_bit_rows_to_ints_matches_scalar(self, seed, num_bytes, rows):
        bits = _random_bits(seed, rows, 8 * num_bytes)
        got = _bit_rows_to_ints(bits)
        assert np.array_equal(
            got,
            np.array([_bits_to_int(bits[r]) for r in range(rows)],
                     dtype=np.int64),
        )

    def test_bit_rows_to_ints_rejects_odd_width(self):
        from repro.sieve.functional import FunctionalError

        with pytest.raises(FunctionalError):
            _bit_rows_to_ints(np.zeros((2, 7), dtype=np.uint8))


def _wide_trial(k: int, seed: int):
    """A 2-word Region-1 layout (``32 < k <= 64``): no stored cells can
    satisfy the single-word sorted-neighbour kernel, so ``match_all``
    runs the per-group ``first_divergence`` sweep even on pristine
    cells.  The batch mixes exact hits, a last-row near miss, a
    first-row miss and a random probe; the ETM is on at odd ``k``."""
    rng = np.random.default_rng(30_000 + seed)
    layout = SubarrayLayout(
        k=k,
        row_bits=72,
        rows_per_subarray=256,
        refs_per_group=8,
        queries_per_group=4,
        layers=2,
    )
    assert kernels.words_for(layout.kmer_rows) == 2

    def draw() -> int:
        return (int(rng.integers(0, 1 << k)) << k) | int(rng.integers(0, 1 << k))

    kmers = sorted({draw() for _ in range(layout.refs_per_subarray)})
    records = [(kmer, int(rng.integers(0, 2**16))) for kmer in kmers]
    # The batch is matched against the second layer (queries[0] routes
    # there); its first-row and last-row misses flip a record's MSB/LSB.
    layer_two = records[layout.refs_per_layer :]
    queries = [
        layer_two[3][0],
        layer_two[5][0] ^ 1,
        layer_two[-1][0] ^ (1 << (2 * k - 1)),
        draw(),
    ]
    return layout, records, queries, k % 2 == 1


def _case_seed(case) -> int:
    """Integer seed of an engine case (``"k40"`` -> 40)."""
    return case if isinstance(case, int) else int(case[1:])


def _trial(case, salt: int = 0):
    """Engine inputs: a random single-word trial for an integer case, or
    a :func:`_wide_trial` for ``"k33"`` / ``"k40"``."""
    if isinstance(case, str):
        return _wide_trial(_case_seed(case), salt)
    rng = np.random.default_rng(20_000 + salt + case)
    trial = None
    while trial is None:
        trial = random_trial(rng)
    return trial


WIDE_CASES = ["k33", "k40"]


class TestEngineBitIdentity:
    @pytest.mark.parametrize("case", [*range(6), *WIDE_CASES])
    def test_every_kernel_matches_scalar(self, case):
        layout, records, queries, etm_enabled = _trial(case)
        scalar = SieveSubarraySim(layout, records, etm_enabled=etm_enabled)
        fast = SieveSubarraySim(layout, records, etm_enabled=etm_enabled)
        layer = scalar.route_layer(queries[0])
        scalar.load_query_batch(queries, layer)
        s_out = [scalar.match_slot(s) for s in range(len(queries))]
        f_out = outcomes_from_batch(
            fast, queries, load_and_match(fast, layer, queries)
        )
        assert_equivalent(scalar, fast, s_out, f_out)

    @pytest.mark.parametrize("case", [*range(4), *WIDE_CASES])
    def test_bit_identity_under_faults(self, case):
        """Load-time bit flips corrupt every replica identically (same
        seeded model, fresh injector per build), so the batched engine
        must reproduce the scalar path's answers on the *corrupted*
        arrays too."""
        layout, records, queries, etm_enabled = _trial(case, salt=100)
        model = FaultModel(bit_flip_rate=2e-2, seed=9_000 + _case_seed(case))

        def build(match):
            injector = FaultInjector(model)
            with fault_injection(injector):
                sim = SieveSubarraySim(
                    layout, records, etm_enabled=etm_enabled
                )
                layer = sim.route_layer(queries[0])
                block = sim.load_query_batch(queries, layer)
                outcomes = match(sim, PendingMatch(sim, layer, block))
            return sim, outcomes, injector

        scalar, s_out, s_inj = build(
            lambda sim, _: [sim.match_slot(s) for s in range(len(queries))]
        )
        fast, f_out, f_inj = build(
            lambda sim, loaded: outcomes_from_batch(
                sim, queries, sim.match_all(loaded)
            )
        )
        assert f_inj.stats.bits_flipped == s_inj.stats.bits_flipped
        assert_equivalent(scalar, fast, s_out, f_out)


def _guard_case(layout):
    """Records and queries whose words all have a clear MSB (row 0), so a
    stuck-at-1 cell in row 0 raises exactly one word above its peers."""
    space = 1 << (2 * layout.k)
    records = [(key, 10 + key % 13) for key in range(17, space // 2, 997)][
        : layout.refs_per_layer
    ]
    queries = [records[0][0], records[1][0] ^ 2, records[-1][0], 5][
        : layout.queries_per_group
    ]
    return records, queries


class TestFastPathGuards:
    """The auto engine runs the sorted-neighbour kernel only when (a) the
    layer's stored words ascend and (b) every group holds the same query
    replica; each broken guard falls back to the general sweep and stays
    bit-identical to the scalar replay on the corrupted cells."""

    @staticmethod
    def _run(layout, records, queries, model, monkeypatch):
        calls = []
        original = kernels.segment_divergence

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(kernels, "segment_divergence", spy)

        def build(match):
            injector = FaultInjector(model)
            with fault_injection(injector):
                sim = SieveSubarraySim(layout, records)
                block = sim.load_query_batch(queries, 0)
                outcomes = match(sim, PendingMatch(sim, 0, block))
            return sim, outcomes, injector

        scalar, s_out, s_inj = build(
            lambda sim, _: [sim.match_slot(s) for s in range(len(queries))]
        )
        fast, f_out, f_inj = build(
            lambda sim, loaded: outcomes_from_batch(
                sim, queries, sim.match_all(loaded)
            )
        )
        assert f_inj.schedule == s_inj.schedule
        assert_equivalent(scalar, fast, s_out, f_out)
        return len(calls), s_out

    def test_pristine_cells_take_fast_path(self, small_layout, monkeypatch):
        records, queries = _guard_case(small_layout)
        calls, outcomes = self._run(
            small_layout, records, queries, FaultModel(), monkeypatch
        )
        assert calls == 1
        assert [o.hit for o in outcomes] == [True, False, True, False]

    def test_stuck_cell_breaking_order_falls_back(
        self, small_layout, monkeypatch
    ):
        records, queries = _guard_case(small_layout)
        stuck = StuckCell(
            "unit0",
            small_layout.layer_base_row(0),
            int(small_layout.ref_slot_columns[0]),
            1,
        )
        calls, outcomes = self._run(
            small_layout,
            records,
            queries,
            FaultModel(stuck_cells=(stuck,)),
            monkeypatch,
        )
        assert calls == 0
        # Slot 0 now reads as a different k-mer: its query misses.
        assert not outcomes[0].hit and outcomes[2].hit

    def test_corrupted_query_replica_falls_back(
        self, small_layout, monkeypatch
    ):
        records, queries = _guard_case(small_layout)
        last_group = small_layout.num_groups - 1
        stuck = StuckCell(
            "unit0",
            small_layout.layer_base_row(0),
            int(small_layout.query_column_matrix[last_group, 0]),
            1,
        )
        calls, _ = self._run(
            small_layout,
            records,
            queries,
            FaultModel(stuck_cells=(stuck,)),
            monkeypatch,
        )
        assert calls == 0
