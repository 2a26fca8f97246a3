"""Property + golden tests for the read-mapping pipeline.

Three pillars pin :mod:`repro.mapping` (docs/MAPPING.md):

1. **Aligner exactness** — the bit-parallel ``semiglobal_distance`` is
   hypothesis-checked against a brute-force plain-Python reference and
   against the row-at-a-time numpy DP kept here as a test reference
   (long reads past one 64-bit word, non-ACGT bytes, short windows).
   The numpy full and banded edit-distance DPs are checked against
   brute force too: the banded one must *equal* the unbanded distance
   whenever that distance fits the band, and report ``None`` otherwise
   — the band is an error budget, never an approximation knob.  The
   q-gram pre-alignment filter must never reject a window the aligner
   accepts, and ``SeedExtender.extend`` must equal a loop that aligns
   every ranked candidate.
2. **Seed-and-extend completeness** — for a planted read, every
   reference location a brute-force full scan accepts (Hamming within
   the edit budget *and* at least one exact surviving seed) must appear
   in ``MappingResult.locations``.  This is the filter contract: the
   Sieve backend may only prune locations no seed supports.
3. **Topology bit-identity** — mapping answers are byte-identical
   across the whole backend matrix (scalar database, Sieve device,
   2-shard service plain/dedup+cached, 1/2/4-worker cluster), pinned
   against the committed ``tests/data/mapping_golden.json`` matrix.
   Refresh only via ``tests/golden/make_mapping_golden.py``.

Fault interaction mirrors ``test_faults_properties.py``: a zero-rate
injector must be invisible to mapping, and a mapping-sweep point
(:func:`repro.experiments.mapping.mapping_point`) must replay
byte-identically from its seed tag.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from collections import Counter
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ResultBatch
from repro.cluster import ClusterBackend
from repro.faults import FaultInjector, FaultModel, fault_injection
from repro.experiments.mapping import MAPPING_READS, mapping_point
from repro.genomics import KmerDatabase, build_dataset
from repro.genomics.sequence import DnaSequence
from repro.mapping import (
    Candidate,
    MappingConfig,
    MappingError,
    MappingResult,
    ReadMapper,
    SeedExtender,
    SeedIndex,
    SeedIndexError,
    SemiglobalResult,
    build_extension_model,
    semiglobal_distance,
)
from repro.mapping.aligner import (
    QGRAM,
    modelled_cells,
    qgram_codes,
    qgram_filter,
)
from repro.serialization import save_segments
from repro.service import ClassificationService, ServiceConfig, ServiceError
from repro.service.config import ClusterConfig
from repro.sieve import SieveDevice

DATA_DIR = Path(__file__).resolve().parent / "data"
MAPPING_GOLDEN = json.loads(
    (DATA_DIR / "mapping_golden.json").read_text(encoding="utf-8")
)

dna = st.text(alphabet="ACGT", max_size=16)


# ---------------------------------------------------------------------------
# Brute-force references (plain Python, obviously-correct)
# ---------------------------------------------------------------------------


def ref_edit_distance(a: str, b: str) -> int:
    """Textbook Wagner-Fischer, no vectorization, no banding."""
    m, n = len(a), len(b)
    prev = list(range(n + 1))
    for i in range(1, m + 1):
        cur = [i] + [0] * n
        for j in range(1, n + 1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (a[i - 1] != b[j - 1]),
            )
        prev = cur
    return prev[n]


def ref_semiglobal(read: str, window: str) -> int:
    """Best distance of ``read`` vs any (possibly empty) substring."""
    best = len(read)
    for i in range(len(window) + 1):
        for j in range(i, len(window) + 1):
            best = min(best, ref_edit_distance(read, window[i:j]))
    return best


def hamming(a: str, b: str) -> int:
    assert len(a) == len(b)
    return sum(x != y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Vectorized DP references (numpy, one read-row at a time)
#
# The insertion recurrence ``cur[j] = min(t[j], cur[j-1] + 1)`` closes
# into one vector step by the min-plus prefix identity
# ``cur[j] = minimum.accumulate(t - arange)[j] + j`` (exact for unit
# indel cost).  The banded DP keeps rows in band-offset coordinates
# ``d = j - i + band``, so its work per row is ``2 * band + 1`` cells.
# ---------------------------------------------------------------------------


def _codes(s: str) -> np.ndarray:
    return np.frombuffer(s.encode("ascii"), dtype=np.uint8)


def edit_distance(a: str, b: str) -> int:
    """Unbanded Levenshtein distance (vectorized full DP)."""
    m, n = len(a), len(b)
    if m == 0 or n == 0:
        return m + n
    a_codes = _codes(a)
    b_codes = _codes(b)
    idx = np.arange(n + 1, dtype=np.int64)
    prev = idx.copy()
    for i in range(1, m + 1):
        t = prev + 1
        t[1:] = np.minimum(t[1:], prev[:-1] + (b_codes != a_codes[i - 1]))
        prev = np.minimum.accumulate(t - idx) + idx
    return int(prev[n])


def banded_edit_distance(a: str, b: str, band: int) -> Optional[int]:
    """Levenshtein distance if it is ``<= band``, else ``None``.

    Restricting the DP to ``|i - j| <= band`` only discards alignments
    with more than ``band`` indels, and every alignment with at most
    ``band`` total edits satisfies the restriction, so the result is
    exact below the band.
    """
    if band < 0:
        raise ValueError(f"band must be >= 0, got {band}")
    m, n = len(a), len(b)
    if abs(m - n) > band:
        return None
    if m == 0 or n == 0:
        return m + n if m + n <= band else None
    a_codes = _codes(a)
    b_codes = _codes(b)
    width = 2 * band + 1
    offsets = np.arange(width, dtype=np.int64)
    inf = m + n + 1
    # Row 0 in offset coordinates: column j = d - band costs j inserts.
    j_row = offsets - band
    prev = np.where((j_row >= 0) & (j_row <= n), j_row, inf)
    for i in range(1, m + 1):
        j_row = i - band + offsets
        valid = (j_row >= 0) & (j_row <= n)
        # Substitution arrives from (i-1, j-1): the *same* offset d.
        j_sub = np.clip(j_row - 1, 0, n - 1)
        sub = prev + (b_codes[j_sub] != a_codes[i - 1])
        sub = np.where(j_row >= 1, sub, inf)
        # Deletion (consume a[i-1], j unchanged) arrives from offset d+1.
        dele = np.concatenate((prev[1:], [inf])) + 1
        t = np.minimum(sub, dele)
        t = np.where(valid, t, inf)
        cur = np.minimum.accumulate(t - offsets) + offsets
        prev = np.where(valid, np.minimum(cur, inf), inf)
    distance = int(prev[n - m + band])
    return distance if distance <= band else None


def dp_semiglobal(read: str, window: str) -> int:
    """Semi-global distance by the full ``(m + 1) x (n + 1)`` DP.

    Row 0 is all zeros (free leading gap in the window); the answer is
    the minimum of the last row (free trailing gap).
    """
    m, n = len(read), len(window)
    if m == 0:
        return 0
    if n == 0:
        return m
    read_codes = _codes(read)
    window_codes = _codes(window)
    idx = np.arange(n + 1, dtype=np.int64)
    prev = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, m + 1):
        t = prev + 1
        t[1:] = np.minimum(
            t[1:], prev[:-1] + (window_codes != read_codes[i - 1])
        )
        prev = np.minimum.accumulate(t - idx) + idx
    return int(prev.min())


# ---------------------------------------------------------------------------
# Aligner exactness
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(a=dna, b=dna)
def test_edit_distance_matches_reference(a, b):
    assert edit_distance(a, b) == ref_edit_distance(a, b)


@settings(max_examples=60, deadline=None)
@given(a=dna, b=dna, band=st.integers(0, 6))
def test_banded_is_exact_within_band_else_none(a, b, band):
    truth = ref_edit_distance(a, b)
    banded = banded_edit_distance(a, b, band)
    if truth <= band:
        assert banded == truth
    else:
        assert banded is None


@settings(max_examples=40, deadline=None)
@given(
    read=st.text(alphabet="ACGT", min_size=1, max_size=8),
    window=st.text(alphabet="ACGT", max_size=10),
)
def test_semiglobal_matches_brute_force(read, window):
    outcome = semiglobal_distance(read, window)
    assert outcome.distance == ref_semiglobal(read, window)
    assert outcome.distance == dp_semiglobal(read, window)
    if window:
        assert outcome.cells == len(read) * (len(window) + 1)


def assert_matches_dp(read: str, window: str) -> None:
    outcome = semiglobal_distance(read, window)
    assert outcome.distance == dp_semiglobal(read, window)
    # The modelled DP's size; an empty window computes no cells.
    assert outcome.cells == (len(read) * (len(window) + 1) if window else 0)


@st.composite
def read_in_window(draw, alphabet="ACGT", min_read=65, max_read=300):
    """A read plus a window: an edited copy of it inside random flanks,
    or (one case in four) unrelated random sequence."""

    def text(lo, hi):
        return st.text(alphabet=alphabet, min_size=lo, max_size=hi)

    read = draw(text(min_read, max_read))
    if draw(st.integers(0, 3)) == 0:
        return read, draw(text(0, max_read + 20))
    body = list(read)
    for _ in range(draw(st.integers(0, 12))):
        pos = draw(st.integers(0, len(body)))
        op = draw(st.sampled_from("sid"))
        base = draw(st.sampled_from(alphabet))
        if op == "i" or pos == len(body):
            body.insert(pos, base)
        elif op == "s":
            body[pos] = base
        else:
            del body[pos]
    return read, draw(text(0, 10)) + "".join(body) + draw(text(0, 10))


@settings(max_examples=40, deadline=None)
@given(case=read_in_window())
def test_semiglobal_matches_dp_past_one_word(case):
    # 65-300 bases: a fixed 64-bit port would drop the high rows.
    assert_matches_dp(*case)


@settings(max_examples=40, deadline=None)
@given(case=read_in_window(alphabet="ACGTNacgtn-*", min_read=1, max_read=90))
def test_semiglobal_matches_dp_on_non_acgt_bytes(case):
    # Match masks compare bytes exactly: two ``N`` bytes are a match.
    assert_matches_dp(*case)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), read=st.text(alphabet="ACGTN", min_size=1, max_size=150))
def test_semiglobal_matches_dp_on_windows_shorter_than_read(data, read):
    window = data.draw(st.text(alphabet="ACGTN", max_size=len(read) - 1))
    assert_matches_dp(read, window)


@settings(max_examples=25, deadline=None)
@given(read=st.text(alphabet="ACGTN", min_size=1, max_size=300))
def test_semiglobal_of_identical_read_and_window_is_zero(read):
    outcome = semiglobal_distance(read, read)
    assert outcome.distance == 0
    assert outcome.cells == len(read) * (len(read) + 1)


def test_aligner_edge_cases():
    assert edit_distance("", "ACG") == 3
    assert edit_distance("ACG", "") == 3
    assert banded_edit_distance("", "AC", 1) is None
    assert banded_edit_distance("", "AC", 2) == 2
    assert semiglobal_distance("", "ACGT") == SemiglobalResult(0, 0)
    assert semiglobal_distance("ACG", "") == SemiglobalResult(3, 0)
    assert semiglobal_distance("NN", "ANNA").distance == 0
    with pytest.raises(ValueError):
        banded_edit_distance("A", "A", -1)


# ---------------------------------------------------------------------------
# Pre-alignment q-gram filter
# ---------------------------------------------------------------------------


def ref_shared_qgrams(read: str, window: str) -> int:
    """Shared q-grams with multiplicity, every non-ACGT byte one symbol."""

    def grams(s: str) -> Counter:
        s = "".join(c if c in "ACGT" else "x" for c in s)
        return Counter(s[i : i + QGRAM] for i in range(len(s) - QGRAM + 1))

    return sum((grams(read) & grams(window)).values())


@st.composite
def filter_case(draw):
    """A read, an edited copy of it in flanks (or unrelated sequence),
    windows shorter than q or empty, and a budget up to 8 edits."""
    alphabet = "ACGTNacgtn-*"
    read, window = draw(read_in_window(alphabet, min_read=0, max_read=40))
    short = draw(
        st.lists(st.text(alphabet=alphabet, max_size=QGRAM - 1), max_size=2)
    )
    return read, [window, *short], draw(st.integers(0, 8))


@settings(max_examples=60, deadline=None)
@given(case=filter_case())
def test_qgram_filter_never_rejects_an_acceptable_window(case):
    read, windows, max_edits = case
    passed = qgram_filter(
        qgram_codes(read), [qgram_codes(w) for w in windows], max_edits
    )
    need = (len(read) - QGRAM + 1) - QGRAM * max_edits
    assert passed.shape == (len(windows),)
    for window, ok in zip(windows, passed):
        # Exactly the lemma's count, with multiplicity ...
        assert ok == (ref_shared_qgrams(read, window) >= need)
        # ... so every window the aligner accepts passes.
        if semiglobal_distance(read, window).distance <= max_edits:
            assert ok
    if need <= 0:
        assert passed.all()


def test_qgram_filter_edge_cases():
    assert qgram_codes("ACGTN").tolist() == [38, 194]
    assert qgram_codes("acgt").tolist() == qgram_codes("NNNN").tolist()
    assert qgram_codes("ACG").size == qgram_codes("").size == 0
    read = qgram_codes("ACGTACGTAC")  # 7 q-grams
    windows = [qgram_codes(w) for w in ("ACGTACGTAC", "TTTTTTTT", "", "AC")]
    assert qgram_filter(read, windows, 0).tolist() == [True] + [False] * 3
    # need = 7 - 4 * 2 < 0: nothing is filtered, not even empty windows.
    assert qgram_filter(read, windows, 2).all()
    assert qgram_filter(qgram_codes("ACG"), windows, 0).all()
    assert qgram_filter(read, [], 0).shape == (0,)
    # One formula for modelled cells, aligned or filtered.
    assert modelled_cells(0, 5) == modelled_cells(5, 0) == 0
    assert modelled_cells(3, 4) == 15
    assert semiglobal_distance("ACG", "").cells == modelled_cells(3, 0)


# ---------------------------------------------------------------------------
# Seed-and-extend completeness
# ---------------------------------------------------------------------------


@st.composite
def planted_case(draw):
    k = draw(st.integers(3, 5))
    genome = draw(st.text(alphabet="ACGT", min_size=30, max_size=60))
    read_len = draw(st.integers(k + 4, 18))
    start = draw(st.integers(0, len(genome) - read_len))
    budget = draw(st.integers(0, 2))
    error_at = draw(
        st.lists(
            st.integers(0, read_len - 1), max_size=budget, unique=True
        )
    )
    return k, genome, read_len, start, budget, error_at


def _mutate(window: str, error_at) -> str:
    order = "ACGT"
    bases = list(window)
    for pos in error_at:
        bases[pos] = order[(order.index(bases[pos]) + 1) % 4]
    return "".join(bases)


@settings(max_examples=50, deadline=None)
@given(case=planted_case())
def test_extension_finds_every_seeded_location_a_full_scan_finds(case):
    """Filter contract: when ``band`` covers the edit budget, the
    pipeline recovers every location that (a) a brute-force Hamming
    scan accepts within the budget and (b) keeps at least one exact
    seed — the only locations a membership filter can support."""
    k, genome, read_len, start, budget, error_at = case
    read_str = _mutate(genome[start : start + read_len], error_at)
    genome_seq = DnaSequence("g0", genome, taxon_id=1)
    config = MappingConfig(
        band=budget, max_edits=budget, max_candidates=10_000
    )
    extender = SeedExtender(
        SeedIndex.from_genomes([genome_seq], k), [genome_seq], config
    )
    backend = KmerDatabase.from_genomes([(genome_seq, 1)], k=k)
    mapper = ReadMapper(backend, extender)
    read = DnaSequence("planted", read_str)
    result = mapper.map_read(read)

    found = {(loc[0], loc[1]) for loc in result.locations}
    for q in range(len(genome) - read_len + 1):
        window = genome[q : q + read_len]
        if hamming(read_str, window) > budget:
            continue
        seeded = any(
            read_str[o : o + k] == genome[q + o : q + o + k]
            for o in range(read_len - k + 1)
        )
        if not seeded:
            continue
        assert (0, q) in found, (
            f"full scan accepts genome position {q} "
            f"(<= {budget} substitutions, live seed) but the pipeline "
            f"reported locations {sorted(found)}"
        )
        (distance,) = [
            loc[2] for loc in result.locations if loc[:2] == (0, q)
        ]
        assert distance <= hamming(read_str, window)

    # extend() is a pure function of (read, filter answers).
    again = mapper.map_read(read)
    assert again.to_payload() == result.to_payload()


def test_canonical_backend_is_a_transparent_superset_filter(small_dataset):
    """A canonical backend hits more k-mers (either strand), but extra
    hits have no forward occurrence, so the *candidate* set — and every
    location-level answer — is identical to the forward-strand filter
    (the strand contract in docs/MAPPING.md)."""
    pairs = [(g, g.taxon_id) for g in small_dataset.genomes]
    forward = KmerDatabase.from_genomes(
        pairs, k=small_dataset.k, taxonomy=small_dataset.taxonomy
    )
    canonical = KmerDatabase.from_genomes(
        pairs,
        k=small_dataset.k,
        canonical=True,
        taxonomy=small_dataset.taxonomy,
    )

    def located(backend):
        extender = SeedExtender(
            SeedIndex.from_genomes(small_dataset.genomes, small_dataset.k),
            small_dataset.genomes,
            MappingConfig(),
        )
        return [
            {
                key: payload[key]
                for key in (
                    "read_id",
                    "mapped",
                    "genome_index",
                    "position",
                    "edit_distance",
                    "candidates",
                    "locations",
                )
            }
            for payload in (
                r.to_payload()
                for r in ReadMapper(backend, extender).map_reads(
                    small_dataset.reads
                )
            )
        ]

    assert located(forward) == located(canonical)


# ---------------------------------------------------------------------------
# Seed grouping: the array form equals the dict loop it replaced
# ---------------------------------------------------------------------------


def dict_candidates(index: SeedIndex, read_offsets, kmers):
    """``SeedIndex.candidates`` as a plain dict loop: the reference.

    Every occurrence of every seed votes for ``(genome, position -
    read_offset)``; buckets rank by descending support, then ``(genome,
    diagonal)``."""
    votes = {}
    for read_offset, kmer in zip(read_offsets, kmers):
        for genome_index, position in index.occurrences(kmer):
            bucket = (genome_index, position - read_offset)
            votes[bucket] = votes.get(bucket, 0) + 1
    ranked = sorted(votes.items(), key=lambda item: (-item[1], item[0]))
    return [Candidate(g, d, support) for (g, d), support in ranked]


@st.composite
def seed_case(draw):
    """Short repetitive genomes (many repeated k-mers, so support ties
    and multi-occurrence seeds are common) and seeds that mix present
    k-mers, absent ones, and offsets past their occurrences (negative
    diagonals)."""
    k = draw(st.integers(1, 4))
    genomes = [
        DnaSequence(f"g{i}", bases, taxon_id=i + 1)
        for i, bases in enumerate(
            draw(
                st.lists(
                    st.text(alphabet="ACGT", min_size=k, max_size=40),
                    min_size=1,
                    max_size=3,
                )
            )
        )
    ]
    present = sorted({kmer for g in genomes for kmer in g.kmer_list(k)})
    kmer = st.one_of(
        st.sampled_from(present), st.integers(0, (1 << (2 * k)) - 1)
    )
    seeds = draw(st.lists(st.tuples(st.integers(0, 60), kmer), max_size=40))
    return k, genomes, seeds


@settings(max_examples=100, deadline=None)
@given(case=seed_case())
def test_array_candidates_equal_dict_reference(case):
    k, genomes, seeds = case
    index = SeedIndex.from_genomes(genomes, k)
    offsets = np.array([o for o, _ in seeds], dtype=np.int64)
    kmers = np.array([q for _, q in seeds], dtype=np.uint64)
    got = index.candidates(offsets, kmers)
    assert got == dict_candidates(index, offsets.tolist(), kmers.tolist())
    assert index.candidates(offsets[:0], kmers[:0]) == []


def test_candidates_rank_ties_and_negative_diagonals():
    genome = DnaSequence("g0", "ACGTACGTAC", taxon_id=1)
    index = SeedIndex.from_genomes([genome, genome], 4)
    acgt = index.occurrences(0b00011011)  # ACGT at 0 and 4, both genomes
    assert acgt == [(0, 0), (0, 4), (1, 0), (1, 4)]
    absent = 0b11111111  # TTTT
    got = index.candidates(
        np.array([0, 4, 9, 6]), np.array([0b00011011] * 3 + [absent])
    )
    assert got == dict_candidates(index, [0, 4, 9, 6], [0b00011011] * 3 + [absent])
    # Diagonal 0 gets two votes per genome (offsets 0 and 4 agree);
    # the rest tie at one vote and rank by (genome, diagonal).
    assert got[:2] == [Candidate(0, 0, 2), Candidate(1, 0, 2)]
    assert [c.diagonal for c in got[2:5]] == [-9, -5, -4]


# ---------------------------------------------------------------------------
# Filtered extension equals aligning every candidate
# ---------------------------------------------------------------------------


def reference_extend(index, genomes, config, cost_model, read, results):
    """``SeedExtender.extend`` without the filter: align every ranked
    candidate with ``semiglobal_distance`` and charge its cells."""
    offsets = np.flatnonzero(results.hit)
    ranked = [
        c
        for c in index.candidates(offsets, results.queries[offsets])
        if c.support >= config.min_seed_hits
    ][: config.max_candidates]
    accepted, dp_cells = [], 0
    for c in ranked:
        bases = genomes[c.genome_index].bases
        start = min(max(c.diagonal - config.band, 0), len(bases))
        end = min(max(c.diagonal + len(read.bases) + config.band, 0), len(bases))
        outcome = semiglobal_distance(read.bases, bases[start:end])
        dp_cells += outcome.cells
        cost_model.charge(c.genome_index, start, end - start, outcome.cells)
        if outcome.distance <= config.max_edits:
            accepted.append((c.genome_index, c.diagonal, outcome.distance))
    best = min(accepted, key=lambda loc: (loc[2], loc[0], loc[1]), default=None)
    return MappingResult(
        read_id=read.seq_id,
        mapped=best is not None,
        taxon_id=None if best is None else genomes[best[0]].taxon_id,
        genome_index=None if best is None else best[0],
        position=None if best is None else best[1],
        edit_distance=None if best is None else best[2],
        kmers_total=len(results),
        seed_hits=int(offsets.size),
        candidates=len(ranked),
        dp_cells=dp_cells,
        locations=tuple(accepted),
    )


@pytest.mark.parametrize("extension", ["host", "insitu"])
@pytest.mark.parametrize("band", [3, 8])
def test_filtered_extend_equals_aligning_every_candidate(
    golden_dataset, band, extension
):
    config = MappingConfig(band=band, max_edits=band, extension=extension)
    index = SeedIndex.from_genomes(golden_dataset.genomes, golden_dataset.k)
    extender = SeedExtender(index, golden_dataset.genomes, config)
    reference_model = build_extension_model(config)
    for read in golden_dataset.reads:
        results = golden_dataset.database.query(read.kmer_list(golden_dataset.k))
        assert extender.extend(read, results) == reference_extend(
            index, golden_dataset.genomes, config, reference_model, read, results
        )
    assert extender.cost_model.as_dict() == reference_model.as_dict()
    stats = extender.stats_dict()
    assert stats["dp_cells"] == reference_model.stats.dp_cells
    # The host aligns only what the filter passes.
    assert stats["mapped"] <= stats["aligned"] <= stats["candidates"]
    if band == 8:
        assert stats["aligned"] < stats["candidates"]


def test_filter_keeps_a_window_at_exactly_the_bound():
    """A read at the genome's end with two substitutions ``q`` apart
    shares exactly ``need`` q-grams with its clipped window, so the
    extender must hand the window every one of them to map it."""
    genome = DnaSequence(
        "g0", "TGGCCAAAATGTGGTGGGGTCTGACTGATGTAATAGACCCCAAAAGGGCGTCCTTTCGTG"
    )
    start = len(genome.bases) - 20
    read = DnaSequence("tight", _mutate(genome.bases[start:], [3, 11]))
    band = 2
    window = genome.bases[start - band :]
    assert ref_shared_qgrams(read.bases, window) == (20 - QGRAM + 1) - QGRAM * band
    extender = SeedExtender(
        SeedIndex.from_genomes([genome], 5),
        [genome],
        MappingConfig(band=band, max_edits=band),
    )
    result = ReadMapper(
        KmerDatabase.from_genomes([(genome, 1)], k=5), extender
    ).map_read(read)
    assert (result.position, result.edit_distance) == (start, 2)
    assert extender.stats.aligned == 1


# ---------------------------------------------------------------------------
# Topology bit-identity, pinned by the committed golden matrix
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden_dataset():
    return build_dataset(**MAPPING_GOLDEN["dataset_params"])


@pytest.fixture(scope="module")
def golden_segments(golden_dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("mapping-segments")
    save_segments(golden_dataset.database, path)
    return path


def golden_extender(dataset) -> SeedExtender:
    return SeedExtender(
        SeedIndex.from_genomes(dataset.genomes, dataset.k),
        dataset.genomes,
        MappingConfig(**MAPPING_GOLDEN["mapping_config"]),
    )


def mapping_digest(payloads) -> str:
    canonical = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def serve_mappings(service, reads):
    """Submit every read at once, drain, and return the responses."""

    async def drive():
        await service.start()
        futures = [service.submit_mapping(read) for read in reads]
        responses = await asyncio.gather(*futures)
        await service.stop(drain=True)
        return responses

    return asyncio.run(drive())


def serve_mapping_payloads(dataset, backends, config):
    service = ClassificationService(
        backends, config, extender=golden_extender(dataset)
    )
    responses = serve_mappings(service, dataset.reads)
    return [r.mapping.to_payload() for r in responses], service.stats()


def test_golden_matches_small_dataset_fixture(small_dataset):
    """The golden's embedded dataset parameters must stay in lockstep
    with the tier-1 ``small_dataset`` fixture (tests/conftest.py)."""
    params = MAPPING_GOLDEN["dataset_params"]
    rebuilt = build_dataset(**params)
    assert rebuilt.k == small_dataset.k
    assert [g.bases for g in rebuilt.genomes] == [
        g.bases for g in small_dataset.genomes
    ]
    assert [r.bases for r in rebuilt.reads] == [
        r.bases for r in small_dataset.reads
    ]


def test_scalar_reference_matches_golden(golden_dataset):
    payloads = [
        r.to_payload()
        for r in ReadMapper(
            golden_dataset.database, golden_extender(golden_dataset)
        ).map_reads(golden_dataset.reads)
    ]
    assert payloads == MAPPING_GOLDEN["results"]
    assert mapping_digest(payloads) == MAPPING_GOLDEN["digest"]


def test_sieve_device_matches_golden(golden_dataset):
    device = SieveDevice.from_database(golden_dataset.database)
    payloads = [
        r.to_payload()
        for r in ReadMapper(
            device, golden_extender(golden_dataset)
        ).map_reads(golden_dataset.reads)
    ]
    assert payloads == MAPPING_GOLDEN["results"]


@pytest.mark.parametrize(
    "overrides",
    [{}, {"dedup": True, "cache_capacity": 256}],
    ids=["plain", "dedup-cached"],
)
def test_sharded_service_matches_golden(golden_dataset, overrides):
    config = ServiceConfig(
        num_shards=2,
        max_linger_s=0.0,
        queue_depth=len(golden_dataset.reads),
        **overrides,
    )
    backends = [
        SieveDevice.from_database(golden_dataset.database) for _ in range(2)
    ]
    payloads, stats = serve_mapping_payloads(
        golden_dataset, backends, config
    )
    assert payloads == MAPPING_GOLDEN["results"]
    assert stats["mapping"]["reads"] == len(golden_dataset.reads)
    assert stats["mapping"]["mapped"] == sum(
        1 for p in payloads if p["mapped"]
    )
    assert stats["mapping"]["extension"]["model"] == "host"
    assert stats["mapping"]["aligned"] <= stats["mapping"]["candidates"]


@pytest.mark.parametrize("workers", MAPPING_GOLDEN["worker_counts"])
def test_cluster_backend_matches_golden(
    golden_dataset, golden_segments, workers
):
    backend = ClusterBackend(
        str(golden_segments), ClusterConfig(workers=workers)
    )
    try:
        payloads, _ = serve_mapping_payloads(
            golden_dataset,
            [backend],
            ServiceConfig(
                num_shards=1,
                max_linger_s=0.0,
                queue_depth=len(golden_dataset.reads),
            ),
        )
    finally:
        backend.close()
    assert payloads == MAPPING_GOLDEN["results"]


# ---------------------------------------------------------------------------
# Fault interaction
# ---------------------------------------------------------------------------


def test_zero_rate_injection_is_transparent_for_mapping(golden_dataset):
    """A mounted injector with every rate at zero must not perturb a
    single mapping answer (mirrors test_faults_properties.py)."""
    injector = FaultInjector(FaultModel())
    with fault_injection(injector):
        device = SieveDevice.from_database(golden_dataset.database)
        payloads = [
            r.to_payload()
            for r in ReadMapper(
                device, golden_extender(golden_dataset)
            ).map_reads(golden_dataset.reads)
        ]
    assert payloads == MAPPING_GOLDEN["results"]
    assert injector.stats.bits_flipped == 0


def test_mapping_sweep_job_replays_byte_identically():
    first = mapping_point(8, 5e-3)
    second = mapping_point(8, 5e-3)
    assert first == second
    assert first["bits_flipped"] > 0
    assert first["schedule_digest"] == second["schedule_digest"]


def test_mapping_sweep_job_zero_rate_flips_nothing():
    payload = mapping_point(8, 0.0)
    assert payload["bits_flipped"] == 0
    assert payload["reads"] == MAPPING_READS


# ---------------------------------------------------------------------------
# Cost models: answers are model-blind, prices differ
# ---------------------------------------------------------------------------


def test_extension_models_agree_on_answers(golden_dataset):
    index = SeedIndex.from_genomes(golden_dataset.genomes, golden_dataset.k)

    def run(extension):
        extender = SeedExtender(
            index, golden_dataset.genomes, MappingConfig(extension=extension)
        )
        payloads = [
            r.to_payload()
            for r in ReadMapper(
                golden_dataset.database, extender
            ).map_reads(golden_dataset.reads)
        ]
        return payloads, extender.stats_dict()

    host_payloads, host_stats = run("host")
    insitu_payloads, insitu_stats = run("insitu")
    assert host_payloads == insitu_payloads == MAPPING_GOLDEN["results"]
    assert host_stats["extension"]["model"] == "host"
    assert insitu_stats["extension"]["model"] == "insitu"
    assert host_stats["extension"]["time_ns"] > 0.0
    assert insitu_stats["extension"]["time_ns"] > 0.0
    assert insitu_stats["extension"]["ledger_accesses"] > 0
    # Same work counted, different price model.
    assert host_stats["dp_cells"] == insitu_stats["dp_cells"]
    assert (
        host_stats["extension"]["dp_cells"]
        == insitu_stats["extension"]["dp_cells"]
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"band": -1},
        {"band": 2, "max_edits": 3},
        {"max_edits": -1, "band": 0},
        {"min_seed_hits": 0},
        {"max_candidates": 0},
        {"extension": "gpu"},
    ],
)
def test_mapping_config_rejects_invalid(kwargs):
    with pytest.raises(MappingError):
        MappingConfig(**kwargs)


def test_seed_index_rejects_invalid():
    with pytest.raises(SeedIndexError):
        SeedIndex.from_genomes([], 5)
    with pytest.raises(SeedIndexError):
        SeedIndex.from_genomes([DnaSequence("g", "ACGTACGT")], 0)
    with pytest.raises(SeedIndexError):
        SeedIndex.from_genomes([DnaSequence("g", "ACG")], 5)


def test_extender_rejects_mismatched_inputs(small_dataset):
    index = SeedIndex.from_genomes(
        small_dataset.genomes[:1], small_dataset.k
    )
    with pytest.raises(MappingError):
        SeedExtender(index, small_dataset.genomes)

    extender = SeedExtender(
        SeedIndex.from_genomes(small_dataset.genomes, small_dataset.k),
        small_dataset.genomes,
    )
    with pytest.raises(MappingError):
        extender.extend(small_dataset.reads[0], ResultBatch.from_results([]))


def test_read_mapper_rejects_k_mismatch(small_dataset):
    wrong_k = SeedExtender(
        SeedIndex.from_genomes(small_dataset.genomes, small_dataset.k - 2),
        small_dataset.genomes,
    )
    with pytest.raises(MappingError):
        ReadMapper(small_dataset.database, wrong_k)


def test_service_requires_extender_for_mapping(small_dataset):
    service = ClassificationService([small_dataset.database])
    with pytest.raises(ServiceError):
        service.submit_mapping(small_dataset.reads[0])


def test_service_rejects_extender_k_mismatch(small_dataset):
    wrong_k = SeedExtender(
        SeedIndex.from_genomes(small_dataset.genomes, small_dataset.k - 2),
        small_dataset.genomes,
    )
    with pytest.raises(ServiceError):
        ClassificationService([small_dataset.database], extender=wrong_k)


class SlowExtender(SeedExtender):
    """A seed extender whose every ``extend`` costs a fixed host sleep."""

    def __init__(self, *args, sleep_s: float, **kwargs):
        super().__init__(*args, **kwargs)
        self.sleep_s = sleep_s

    def extend(self, read, results):
        time.sleep(self.sleep_s)
        return super().extend(read, results)


def test_mapping_latency_includes_host_extension(golden_dataset):
    """``wall_ms`` is stamped after each request's own extension: in one
    coalesced batch the last answer waited for every read's extension."""
    reads = golden_dataset.reads[:4]
    sleep_s = 0.03
    extender = SlowExtender(
        SeedIndex.from_genomes(golden_dataset.genomes, golden_dataset.k),
        golden_dataset.genomes,
        MappingConfig(**MAPPING_GOLDEN["mapping_config"]),
        sleep_s=sleep_s,
    )
    service = ClassificationService(
        [golden_dataset.database],
        ServiceConfig(num_shards=1, max_batch_kmers=4096, max_linger_s=0.0),
        extender=extender,
    )
    responses = serve_mappings(service, reads)
    assert [r.coalesced_requests for r in responses] == [len(reads)] * len(
        reads
    )
    assert [r.mapping.read_id for r in responses] == [
        read.seq_id for read in reads
    ]
    walls = [r.wall_ms for r in responses]
    assert walls[-1] >= len(reads) * sleep_s * 1e3
    assert walls == sorted(walls)
    assert service.stats()["mapping"]["reads"] == len(reads)
