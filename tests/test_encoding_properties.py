"""Property-based tests (hypothesis) for repro.genomics.encoding.

Three invariant families over random DNA strings and k-mer values:

* vectorized/scalar agreement: ``pack_kmers`` vs ``iter_kmers`` vs
  per-window ``encode_kmer`` (and vs the weighted-sum packer it
  replaced), ``pack_batch_kmers`` vs each read's ``kmer_list``, and
  ``canonical_kmers``/``revcomp_values`` vs their scalar counterparts;
* involutions and idempotence: reverse-complement twice is the
  identity, canonicalization is idempotent and revcomp-invariant;
* round trips: encode/decode of bases, k-mers, sequences, and the
  bit-plane views.

Deterministic settings (``derandomize=True``, no deadline) so CI never
flakes on example timing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genomics.encoding import (
    MAX_PACKED_K,
    bits_to_kmer,
    canonical_kmer,
    canonical_kmers,
    decode_kmer,
    decode_sequence,
    encode_kmer,
    encode_sequence,
    iter_kmers,
    kmer_bits,
    pack_batch_kmers,
    pack_kmers,
    reverse_complement,
    revcomp_value,
    revcomp_values,
)
from repro.genomics.sequence import DnaSequence

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)

dna = st.text(alphabet="ACGT", min_size=0, max_size=96)
small_k = st.integers(min_value=1, max_value=MAX_PACKED_K)


@st.composite
def dna_with_k(draw):
    """A DNA string paired with a packable k no longer than the string."""
    k = draw(st.integers(min_value=1, max_value=16))
    seq = draw(st.text(alphabet="ACGT", min_size=k, max_size=64))
    return seq, k


@st.composite
def kmer_value(draw):
    """A (value, k) pair with the value inside k's 2-bit code space."""
    k = draw(small_k)
    value = draw(st.integers(min_value=0, max_value=4**k - 1))
    return value, k


class TestScalarVectorEquivalence:
    @SETTINGS
    @given(dna_with_k())
    def test_pack_kmers_matches_scalar_windows(self, seq_k):
        seq, k = seq_k
        packed = pack_kmers(seq, k)
        expected = [encode_kmer(seq[i:i + k]) for i in range(len(seq) - k + 1)]
        assert packed.tolist() == expected

    @SETTINGS
    @given(dna_with_k())
    def test_pack_kmers_matches_iter_kmers(self, seq_k):
        seq, k = seq_k
        assert pack_kmers(seq, k).tolist() == list(iter_kmers(seq, k))

    @SETTINGS
    @given(st.lists(kmer_value(), min_size=0, max_size=24), small_k)
    def test_vectorized_canonical_matches_scalar(self, pairs, k):
        values = np.asarray(
            [v % (4**k) for v, _ in pairs], dtype=np.uint64
        )
        vectorized = canonical_kmers(values, k)
        scalar = [canonical_kmer(int(v), k) for v in values]
        assert vectorized.tolist() == scalar

    @SETTINGS
    @given(st.lists(kmer_value(), min_size=0, max_size=24), small_k)
    def test_vectorized_revcomp_matches_scalar(self, pairs, k):
        values = np.asarray(
            [v % (4**k) for v, _ in pairs], dtype=np.uint64
        )
        vectorized = revcomp_values(values, k)
        scalar = [revcomp_value(int(v), k) for v in values]
        assert vectorized.tolist() == scalar


def weighted_sum_pack(seq, k):
    """The strided weighted-sum packer ``pack_kmers`` used to be."""
    if len(seq) < k:
        return np.empty(0, dtype=np.uint64)
    codes = encode_sequence(seq).astype(np.uint64)
    windows = np.lib.stride_tricks.sliding_window_view(codes, k)
    shifts = np.arange(k - 1, -1, -1, dtype=np.uint64) * np.uint64(2)
    return (windows * (np.uint64(1) << shifts)).sum(axis=1, dtype=np.uint64)


@st.composite
def read_batch(draw, ks=(1, 5, 31, 32)):
    """A k and a batch of 0-6 reads, each 0 to 3k bases long."""
    k = draw(st.sampled_from(ks))
    reads = draw(
        st.lists(
            st.text(alphabet="ACGT", min_size=0, max_size=3 * k),
            min_size=0,
            max_size=6,
        )
    )
    return reads, k


def concatenated_kmer_lists(reads, k):
    return [
        kmer
        for i, bases in enumerate(reads)
        for kmer in DnaSequence(f"r{i}", bases).kmer_list(k)
    ]


class TestBatchPacking:
    @SETTINGS
    @given(st.text(alphabet="ACGT", min_size=0, max_size=96), small_k)
    def test_pack_kmers_keeps_the_weighted_sum_words(self, seq, k):
        new = pack_kmers(seq, k)
        old = weighted_sum_pack(seq, k)
        assert new.dtype == old.dtype == np.uint64
        assert new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("k", [31, 32])
    def test_pack_kmers_keeps_the_words_of_a_genome(self, k):
        rng = np.random.default_rng(7)
        genome = "".join(rng.choice(list("ACGT"), size=20_000))
        assert pack_kmers(genome, k).tobytes() == weighted_sum_pack(
            genome, k
        ).tobytes()

    @SETTINGS
    @given(read_batch())
    def test_batch_equals_each_reads_kmer_list(self, batch):
        reads, k = batch
        packed = pack_batch_kmers(reads, k)
        assert packed.dtype == np.uint64
        assert packed.tolist() == concatenated_kmer_lists(reads, k)

    @pytest.mark.parametrize("k", [1, 5, 31, 32, 33])
    def test_empty_batch(self, k):
        assert len(pack_batch_kmers([], k)) == 0

    @pytest.mark.parametrize("k", [1, 5, 31, 32])
    def test_reads_shorter_than_k_contribute_nothing(self, k):
        reads = ["A" * (k - 1), "C" * (k + 1), "", "G" * (k - 1), "T" * k]
        packed = pack_batch_kmers(reads, k)
        assert packed.tolist() == concatenated_kmer_lists(reads, k)
        assert len(packed) == 3

    @SETTINGS
    @given(read_batch(ks=(33, 40)))
    def test_wide_k_is_the_list_of_each_reads_kmers(self, batch):
        reads, k = batch
        packed = pack_batch_kmers(reads, k)
        assert isinstance(packed, list)
        assert packed == concatenated_kmer_lists(reads, k)


class TestInvolutions:
    @SETTINGS
    @given(dna)
    def test_reverse_complement_is_involution(self, seq):
        assert reverse_complement(reverse_complement(seq)) == seq

    @SETTINGS
    @given(kmer_value())
    def test_revcomp_value_is_involution(self, pair):
        value, k = pair
        assert revcomp_value(revcomp_value(value, k), k) == value

    @SETTINGS
    @given(kmer_value())
    def test_canonicalization_is_idempotent(self, pair):
        value, k = pair
        once = canonical_kmer(value, k)
        assert canonical_kmer(once, k) == once

    @SETTINGS
    @given(kmer_value())
    def test_canonical_invariant_under_revcomp(self, pair):
        value, k = pair
        assert canonical_kmer(value, k) == canonical_kmer(
            revcomp_value(value, k), k
        )

    @SETTINGS
    @given(kmer_value())
    def test_canonical_picks_min_of_strand_pair(self, pair):
        value, k = pair
        assert canonical_kmer(value, k) == min(value, revcomp_value(value, k))


class TestRoundTrips:
    @SETTINGS
    @given(st.text(alphabet="ACGT", min_size=1, max_size=MAX_PACKED_K))
    def test_kmer_encode_decode_round_trip(self, kmer):
        assert decode_kmer(encode_kmer(kmer), len(kmer)) == kmer

    @SETTINGS
    @given(kmer_value())
    def test_kmer_decode_encode_round_trip(self, pair):
        value, k = pair
        assert encode_kmer(decode_kmer(value, k)) == value

    @SETTINGS
    @given(dna)
    def test_sequence_round_trip(self, seq):
        assert decode_sequence(encode_sequence(seq)) == seq

    @SETTINGS
    @given(kmer_value())
    def test_bit_plane_round_trip(self, pair):
        value, k = pair
        assert bits_to_kmer(kmer_bits(value, k), k) == value
