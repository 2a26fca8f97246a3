"""Unit and property tests for the 2-bit encoding layer."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.api import key_array
from repro.genomics import encoding as enc

KMERS = st.text(alphabet="ACGT", min_size=1, max_size=32)


class TestBaseCodes:
    def test_ncbi_assignment(self):
        assert enc.encode_base("A") == 0b00
        assert enc.encode_base("C") == 0b01
        assert enc.encode_base("G") == 0b10
        assert enc.encode_base("T") == 0b11

    def test_case_insensitive(self):
        assert enc.encode_base("a") == enc.encode_base("A")
        assert enc.encode_base("t") == enc.encode_base("T")

    def test_decode_roundtrip(self):
        for base in "ACGT":
            assert enc.decode_base(enc.encode_base(base)) == base

    def test_invalid_base_raises(self):
        with pytest.raises(enc.EncodingError):
            enc.encode_base("N")

    def test_invalid_code_raises(self):
        with pytest.raises(enc.EncodingError):
            enc.decode_base(4)


class TestKmerPacking:
    def test_known_value(self):
        # A=00 C=01 G=10 T=11, MSB first: ACGT = 0b00011011
        assert enc.encode_kmer("ACGT") == 0b00011011

    def test_first_base_in_high_bits(self):
        assert enc.encode_kmer("TAAA") > enc.encode_kmer("AAAT")

    def test_alphanumeric_order_equals_numeric_order(self):
        kmers = ["AACTG", "ACGTA", "CCCCC", "GATTA", "TTTTT"]
        values = [enc.encode_kmer(k) for k in kmers]
        assert values == sorted(values)

    def test_decode_needs_k(self):
        assert enc.decode_kmer(0, 3) == "AAA"

    def test_decode_out_of_range(self):
        with pytest.raises(enc.EncodingError):
            enc.decode_kmer(1 << 10, 5)

    def test_decode_negative(self):
        with pytest.raises(enc.EncodingError):
            enc.decode_kmer(-1, 5)

    @given(KMERS)
    def test_roundtrip(self, kmer):
        assert enc.decode_kmer(enc.encode_kmer(kmer), len(kmer)) == kmer

    @given(KMERS)
    def test_value_in_range(self, kmer):
        value = enc.encode_kmer(kmer)
        assert 0 <= value < 4 ** len(kmer)


class TestSequenceCodecs:
    def test_encode_sequence(self):
        np.testing.assert_array_equal(
            enc.encode_sequence("ACGT"), np.array([0, 1, 2, 3], dtype=np.uint8)
        )

    def test_encode_sequence_rejects_n(self):
        with pytest.raises(enc.EncodingError):
            enc.encode_sequence("ACGN")

    def test_decode_sequence(self):
        assert enc.decode_sequence([0, 1, 2, 3]) == "ACGT"

    @given(st.text(alphabet="ACGT", min_size=1, max_size=200))
    def test_sequence_roundtrip(self, seq):
        assert enc.decode_sequence(enc.encode_sequence(seq)) == seq


class TestBitViews:
    def test_kmer_bits_msb_first(self):
        assert enc.kmer_bits(enc.encode_kmer("ACGT"), 4) == [0, 0, 0, 1, 1, 0, 1, 1]

    def test_bits_to_kmer_inverse(self):
        value = enc.encode_kmer("GATTA")
        assert enc.bits_to_kmer(enc.kmer_bits(value, 5), 5) == value

    def test_bits_to_kmer_wrong_length(self):
        with pytest.raises(enc.EncodingError):
            enc.bits_to_kmer([0, 1], 5)

    def test_bits_to_kmer_bad_bit(self):
        with pytest.raises(enc.EncodingError):
            enc.bits_to_kmer([0, 2] * 5, 5)

    @given(KMERS)
    def test_bit_roundtrip(self, kmer):
        value = enc.encode_kmer(kmer)
        k = len(kmer)
        assert enc.bits_to_kmer(enc.kmer_bits(value, k), k) == value


class TestFirstDiff:
    def test_identical(self):
        v = enc.encode_kmer("ACGTA")
        assert enc.first_diff_bit(v, v, 5) == 10
        assert enc.first_diff_base(v, v, 5) == 5

    def test_first_base_differs(self):
        a, b = enc.encode_kmer("ACGTA"), enc.encode_kmer("TCGTA")
        assert enc.first_diff_bit(a, b, 5) == 0
        assert enc.first_diff_base(a, b, 5) == 0

    def test_second_bit_of_first_base(self):
        a, b = enc.encode_kmer("ACGTA"), enc.encode_kmer("CCGTA")
        # A=00 vs C=01 differ in the second (LSB) bit of base 0.
        assert enc.first_diff_bit(a, b, 5) == 1
        assert enc.first_diff_base(a, b, 5) == 0

    def test_last_base(self):
        a, b = enc.encode_kmer("ACGTA"), enc.encode_kmer("ACGTC")
        assert enc.first_diff_base(a, b, 5) == 4

    @given(KMERS, KMERS)
    def test_symmetry(self, x, y):
        if len(x) != len(y):
            return
        k = len(x)
        a, b = enc.encode_kmer(x), enc.encode_kmer(y)
        assert enc.first_diff_bit(a, b, k) == enc.first_diff_bit(b, a, k)

    @given(KMERS)
    def test_prefix_property(self, kmer):
        """first_diff_base equals the length of the common prefix."""
        k = len(kmer)
        for i in range(k):
            other = list(kmer)
            other[i] = {"A": "C", "C": "G", "G": "T", "T": "A"}[other[i]]
            b = enc.encode_kmer("".join(other))
            assert enc.first_diff_base(enc.encode_kmer(kmer), b, k) == i
            break  # one mutation position suffices per example


class TestReverseComplement:
    def test_simple(self):
        assert enc.reverse_complement("ACGT") == "ACGT"
        assert enc.reverse_complement("AAAA") == "TTTT"
        assert enc.reverse_complement("GATTACA") == "TGTAATC"

    def test_invalid(self):
        with pytest.raises(enc.EncodingError):
            enc.reverse_complement("ACGX")

    @given(st.text(alphabet="ACGT", min_size=1, max_size=64))
    def test_involution(self, seq):
        assert enc.reverse_complement(enc.reverse_complement(seq)) == seq

    @given(KMERS)
    def test_revcomp_value_matches_string(self, kmer):
        k = len(kmer)
        via_string = enc.encode_kmer(enc.reverse_complement(kmer))
        assert enc.revcomp_value(enc.encode_kmer(kmer), k) == via_string

    @given(KMERS)
    def test_canonical_is_min(self, kmer):
        k = len(kmer)
        v = enc.encode_kmer(kmer)
        canon = enc.canonical_kmer(v, k)
        assert canon == min(v, enc.revcomp_value(v, k))
        # canonical is idempotent
        assert enc.canonical_kmer(canon, k) == canon


class TestIterKmers:
    def test_count(self):
        assert len(list(enc.iter_kmers("ACGTACGT", 3))) == 6

    def test_values(self):
        assert list(enc.iter_kmers("ACGT", 2)) == [
            enc.encode_kmer("AC"),
            enc.encode_kmer("CG"),
            enc.encode_kmer("GT"),
        ]

    def test_short_sequence(self):
        assert list(enc.iter_kmers("AC", 5)) == []

    def test_bad_k(self):
        with pytest.raises(ValueError):
            list(enc.iter_kmers("ACGT", 0))

    @given(st.text(alphabet="ACGT", min_size=5, max_size=60), st.integers(1, 5))
    def test_rolling_matches_direct(self, seq, k):
        rolled = list(enc.iter_kmers(seq, k))
        direct = [enc.encode_kmer(seq[i : i + k]) for i in range(len(seq) - k + 1)]
        assert rolled == direct


class TestTranspose:
    def test_shape(self):
        values = [enc.encode_kmer(s) for s in ["ACG", "TTT", "GAT"]]
        matrix = enc.transpose_kmers(values, 3)
        assert matrix.shape == (6, 3)

    def test_columns_are_kmers(self):
        values = [enc.encode_kmer(s) for s in ["ACGT", "TGCA"]]
        matrix = enc.transpose_kmers(values, 4)
        for col, value in enumerate(values):
            assert enc.bits_to_kmer(list(matrix[:, col]), 4) == value

    def test_rows_are_bit_planes(self):
        values = [enc.encode_kmer(s) for s in ["AAAA", "TTTT"]]
        matrix = enc.transpose_kmers(values, 4)
        assert (matrix[:, 0] == 0).all()
        assert (matrix[:, 1] == 1).all()

    def test_out_of_range_value(self):
        with pytest.raises(enc.EncodingError):
            enc.transpose_kmers([4**3], 3)

    @pytest.mark.parametrize(
        "values, k, bad",
        [
            ([5, -1, 7], 3, -1),
            (np.array([5, -2], dtype=np.int64), 3, -2),
            (np.array([1, 4**3], dtype=np.uint64), 3, 4**3),
            # k = 32 fills a whole word: 2^64 is the first value past it,
            # and a negative next to 2^63 must not round through float64.
            ([0, 2**64], 32, 2**64),
            ([-1, 2**63], 32, -1),
            # k > 32 falls back to Python ints.
            ([3, 4**33], 33, 4**33),
            ([-5, 4**33 - 1], 33, -5),
        ],
    )
    def test_out_of_range_reports_the_value(self, values, k, bad):
        with pytest.raises(enc.EncodingError, match=f"value {bad} out of range"):
            enc.transpose_kmers(values, k)

    @pytest.mark.parametrize("k", [31, 32, 33, 40])
    def test_word_boundary_and_wide_fallback(self, k):
        """Both ends of the range at k = 32 (the last one-word k) and
        above it, from lists and from arrays, match the bit-serial
        view of every value."""
        top = 4**k - 1
        values = [0, 1, top, top >> 1, (top >> 3) ^ 5]
        matrix = enc.transpose_kmers(values, k)
        assert matrix.shape == (2 * k, len(values)) and matrix.dtype == np.uint8
        for col, value in enumerate(values):
            assert list(matrix[:, col]) == enc.kmer_bits(value, k)
        assert np.array_equal(
            enc.transpose_kmers(key_array(values), k), matrix
        )
        assert enc.transpose_kmers([], k).shape == (2 * k, 0)

    @given(st.lists(st.integers(0, 4**6 - 1), min_size=1, max_size=20))
    def test_roundtrip_random(self, values):
        matrix = enc.transpose_kmers(values, 6)
        for col, value in enumerate(values):
            assert enc.bits_to_kmer(list(matrix[:, col]), 6) == value
