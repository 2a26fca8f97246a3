"""Two-bit DNA base encoding and bit-level utilities.

Sieve stores reference k-mers in binary using the NCBI 2-bit code
(paper Section IV-A): ``A -> 00``, ``C -> 01``, ``G -> 10``, ``T -> 11``.
Figure 6 of the paper lists a different assignment (``T -> 10``,
``G -> 11``); the two are bijective relabelings, so every result in the
paper is invariant under the choice.  We standardize on the Section IV
(NCBI) code throughout the repository.

This module provides:

* per-base encode/decode tables,
* packing of a k-mer string into an integer (the representation used by
  the k-mer-to-subarray index, Section IV-D),
* bit-serial views of an encoded k-mer: Sieve compares one *bit* per DRAM
  row activation, most-significant base first, so the natural hardware
  ordering of a k-mer is its sequence of ``2k`` bits.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Sequence, Union

import numpy as np

#: The four canonical DNA bases in encoding order.
BASES = "ACGT"

#: Bits used per base.
BITS_PER_BASE = 2

#: Map from base character to its 2-bit code.
BASE_TO_CODE = {"A": 0b00, "C": 0b01, "G": 0b10, "T": 0b11}

#: Map from 2-bit code to base character.
CODE_TO_BASE = {code: base for base, code in BASE_TO_CODE.items()}

#: Watson-Crick complements.
COMPLEMENT = {"A": "T", "T": "A", "C": "G", "G": "C"}

# Vectorized translation table: ASCII byte -> 2-bit code (255 = invalid).
_ASCII_TO_CODE = np.full(256, 255, dtype=np.uint8)
for _base, _code in BASE_TO_CODE.items():
    _ASCII_TO_CODE[ord(_base)] = _code
    _ASCII_TO_CODE[ord(_base.lower())] = _code
# Shared read-only across forked fleet workers.
_ASCII_TO_CODE.setflags(write=False)


class EncodingError(ValueError):
    """Raised when a sequence contains characters outside ``ACGT``."""


# The first character :func:`encode_sequence` would reject.
_INVALID_BASE = re.compile(r"[^ACGTacgt]")


def check_bases(seq: str) -> None:
    """Raise :class:`EncodingError` unless ``seq`` is all ``ACGT``.

    Accepts exactly what :func:`encode_sequence` accepts (either case),
    with one regex scan and no array built.
    """
    bad = _INVALID_BASE.search(seq)
    if bad is not None:
        raise EncodingError(f"invalid DNA base: {bad.group()!r}")


def encode_base(base: str) -> int:
    """Return the 2-bit code of a single base (case-insensitive)."""
    try:
        return BASE_TO_CODE[base.upper()]
    except KeyError:
        raise EncodingError(f"invalid DNA base: {base!r}") from None


def decode_base(code: int) -> str:
    """Return the base character for a 2-bit code."""
    try:
        return CODE_TO_BASE[code]
    except KeyError:
        raise EncodingError(f"invalid 2-bit base code: {code!r}") from None


def encode_kmer(kmer: str) -> int:
    """Pack a k-mer string into an integer, first base in the high bits.

    This is the integer representation consulted by the k-mer-to-subarray
    index table (paper Section IV-D): alphanumeric order of k-mer strings
    equals numeric order of the packed integers, which is what makes
    range-based subarray routing correct.
    """
    value = 0
    for base in kmer:
        value = (value << BITS_PER_BASE) | encode_base(base)
    return value


def decode_kmer(value: int, k: int) -> str:
    """Inverse of :func:`encode_kmer` for a k-mer of length ``k``."""
    if value < 0 or value >= (1 << (BITS_PER_BASE * k)):
        raise EncodingError(f"value {value} out of range for k={k}")
    bases = []
    for shift in range((k - 1) * BITS_PER_BASE, -1, -BITS_PER_BASE):
        bases.append(decode_base((value >> shift) & 0b11))
    return "".join(bases)


def encode_sequence(seq: str) -> np.ndarray:
    """Encode a DNA string into a ``uint8`` array of 2-bit codes."""
    raw = np.frombuffer(seq.encode("ascii"), dtype=np.uint8)
    codes = _ASCII_TO_CODE[raw]
    if (codes == 255).any():
        bad = seq[int(np.argmax(codes == 255))]
        raise EncodingError(f"invalid DNA base: {bad!r}")
    return codes


def decode_sequence(codes: Sequence[int]) -> str:
    """Decode an iterable of 2-bit codes back into a DNA string."""
    return "".join(decode_base(int(c)) for c in codes)


def kmer_bits(value: int, k: int) -> List[int]:
    """Expand a packed k-mer into its ``2k`` bits, MSB (first base) first.

    Sieve's vertical layout stores these bits along a bitline, one DRAM
    row per bit; row ``i`` of Region 1 holds bit ``i`` of every reference
    k-mer in the subarray (paper Figure 7(e)).
    """
    nbits = BITS_PER_BASE * k
    return [(value >> (nbits - 1 - i)) & 1 for i in range(nbits)]


def bits_to_kmer(bits: Sequence[int], k: int) -> int:
    """Inverse of :func:`kmer_bits`."""
    if len(bits) != BITS_PER_BASE * k:
        raise EncodingError(
            f"expected {BITS_PER_BASE * k} bits for k={k}, got {len(bits)}"
        )
    value = 0
    for bit in bits:
        bit = int(bit)
        if bit not in (0, 1):
            raise EncodingError(f"invalid bit: {bit!r}")
        value = (value << 1) | bit
    return value


def first_diff_bit(a: int, b: int, k: int) -> int:
    """Index of the first differing bit between two packed k-mers.

    Bits are indexed MSB-first (the order rows are activated in Sieve).
    Returns ``2k`` when the k-mers are identical.  This quantity drives
    the Early Termination Mechanism: ETM can stop activating rows for a
    candidate as soon as the first differing bit has been compared.
    """
    nbits = BITS_PER_BASE * k
    diff = a ^ b
    if diff == 0:
        return nbits
    return nbits - diff.bit_length()


def first_diff_base(a: int, b: int, k: int) -> int:
    """Index of the first differing *base* between two packed k-mers.

    Returns ``k`` when identical.  Figure 6 of the paper characterizes
    this distribution: 96.9 % of first mismatches fall within the first
    five bases.
    """
    bit = first_diff_bit(a, b, k)
    return bit // BITS_PER_BASE


def reverse_complement(seq: str) -> str:
    """Return the reverse complement of a DNA string."""
    try:
        return "".join(COMPLEMENT[b] for b in reversed(seq.upper()))
    except KeyError as exc:
        raise EncodingError(f"invalid DNA base: {exc.args[0]!r}") from None


def canonical_kmer(value: int, k: int) -> int:
    """Return the lexicographically smaller of a k-mer and its revcomp.

    Metagenomic classifiers (Kraken, CLARK) index canonical k-mers so a
    read and its reverse-complement strand hit the same records.
    """
    return min(value, revcomp_value(value, k))


def revcomp_value(value: int, k: int) -> int:
    """Reverse complement of a packed k-mer, computed on the integer."""
    result = 0
    for _ in range(k):
        base = value & 0b11
        result = (result << BITS_PER_BASE) | (base ^ 0b11)
        value >>= BITS_PER_BASE
    return result


_PAIR_MASK = np.uint64(0x3333333333333333)
_NIBBLE_MASK = np.uint64(0x0F0F0F0F0F0F0F0F)


def revcomp_values(values: np.ndarray, k: int) -> np.ndarray:
    """Vectorized :func:`revcomp_value` over a ``uint64`` k-mer array.

    Complementing a base flips both its bits, so the whole word is
    inverted once; the 2-bit bases are then reversed across the word
    (swap bases within nibbles, nibbles within bytes, then the bytes)
    and shifted down so the k-mer's last base lands in the low bits.
    Bits above the k-mer's ``2k`` are shifted out, as in the scalar
    loop, which never reads them.
    """
    if k <= 0 or k > MAX_PACKED_K:
        raise EncodingError(
            f"revcomp_values supports 1 <= k <= {MAX_PACKED_K}, got {k}"
        )
    x = ~np.asarray(values, dtype=np.uint64)
    x = ((x >> np.uint64(2)) & _PAIR_MASK) | ((x & _PAIR_MASK) << np.uint64(2))
    x = ((x >> np.uint64(4)) & _NIBBLE_MASK) | (
        (x & _NIBBLE_MASK) << np.uint64(4)
    )
    return x.byteswap() >> np.uint64(64 - BITS_PER_BASE * k)


def canonical_kmers(values: np.ndarray, k: int) -> np.ndarray:
    """Vectorized :func:`canonical_kmer` over a ``uint64`` k-mer array."""
    values = np.asarray(values, dtype=np.uint64)
    return np.minimum(values, revcomp_values(values, k))


def cache_key_kmer(value: int, k: int, canonical: bool = True) -> int:
    """Deterministic identity key for caching one k-mer's query answer.

    Two queries may share a cached result exactly when the backend is
    guaranteed to answer them identically.  Canonical backends
    (``BackendCapabilities.canonical``) fold a k-mer and its reverse
    complement onto the same record, so their cache key is the
    canonical form; non-canonical backends distinguish strands and key
    on the raw packed value.  This is the one canonicalization seam the
    service-layer result cache goes through (``repro.service.cache``).
    """
    return canonical_kmer(value, k) if canonical else value


#: Largest k whose packed representation fits one 64-bit word, the
#: precondition for the vectorized sliding-window packer.
MAX_PACKED_K = 64 // BITS_PER_BASE


def pack_kmers(seq: str, k: int) -> np.ndarray:
    """All packed k-mers of ``seq`` as a ``uint64`` array (vectorized).

    The sliding-window equivalent of :func:`iter_kmers` for ``k <= 32``:
    the sequence is 2-bit encoded in one pass and every window is packed
    by ``k`` shift-or passes over the code array (pass ``i`` ORs in each
    window's base ``i``), so a length-``L`` sequence costs ``O(L * k)``
    numpy element operations and one ``L``-word buffer instead of ``L``
    Python loop iterations.  This is the packer behind every
    genome-indexing and read-shredding hot loop.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if k > MAX_PACKED_K:
        raise EncodingError(
            f"pack_kmers supports k <= {MAX_PACKED_K} (64-bit packing), got {k}"
        )
    if len(seq) < k:
        return np.empty(0, dtype=np.uint64)
    codes = encode_sequence(seq).astype(np.uint64)
    n = len(codes) - k + 1
    words = codes[:n].copy()
    for i in range(1, k):
        words <<= np.uint64(BITS_PER_BASE)
        words |= codes[i : i + n]
    return words


def pack_batch_kmers(
    seqs: Sequence[str], k: int
) -> Union[np.ndarray, List[int]]:
    """Every sequence's packed k-mers, concatenated in sequence order.

    Equal to joining each ``iter_kmers(seq, k)`` in turn, in one array
    pass for ``k <= 32``: the sequences are joined, :func:`pack_kmers`
    packs every window of the joined string, and one ``np.repeat``
    index keeps the windows that lie inside a single sequence (a
    sequence shorter than ``k`` contributes none).  Wider k-mers are
    Python ints, so above 32 the result is the list of each
    sequence's :func:`iter_kmers`.
    """
    if k > MAX_PACKED_K:
        return [kmer for seq in seqs for kmer in iter_kmers(seq, k)]
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    counts = np.maximum(lengths - (k - 1), 0)
    words = pack_kmers("".join(seqs), k)
    # Window j of sequence r starts at its first base in the joined
    # string plus j; shift each run of output slots onto those starts.
    starts = np.cumsum(lengths) - lengths
    firsts = np.cumsum(counts) - counts
    index = np.arange(int(counts.sum())) + np.repeat(starts - firsts, counts)
    return words[index]


def iter_kmers(seq: str, k: int) -> Iterator[int]:
    """Yield packed k-mers from every window of ``seq`` (rolling encode).

    A length-``L`` sequence yields ``L - k + 1`` k-mers, the count used
    by the paper's Table II workload summary.  For ``k <= 32`` the
    windows are packed in one vectorized pass (:func:`pack_kmers`) and
    yielded from the array; wider k-mers fall back to the Python-level
    rolling encode over unbounded ints.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if len(seq) < k:
        return
    if k <= MAX_PACKED_K:
        yield from pack_kmers(seq, k).tolist()
        return
    mask = (1 << (BITS_PER_BASE * k)) - 1
    value = encode_kmer(seq[:k])
    yield value
    for base in seq[k:]:
        value = ((value << BITS_PER_BASE) | encode_base(base)) & mask
        yield value


def transpose_kmers(values: Sequence[int], k: int) -> np.ndarray:
    """Transpose packed k-mers into the column-wise Sieve layout.

    Returns a ``(2k, len(values))`` uint8 bit matrix: entry ``[r, c]`` is
    bit ``r`` (MSB-first) of k-mer ``c``.  Row ``r`` is exactly the data
    a single DRAM row activation delivers to the matchers.  This is the
    host-side "transpose the database" API call of Section IV-C.

    Values are range-checked as one array (its minimum and maximum);
    wider than 64 bits (``k > 32``) they are Python ints in an object
    array, shifted plane by plane.
    """
    nbits = BITS_PER_BASE * k
    words = np.asarray(values)
    if words.dtype.kind not in "iu":
        # Beyond one machine word (or a signed/unsigned mix numpy would
        # make float64): keep every value an exact Python int.
        words = np.array(values, dtype=object)
    if words.size == 0:
        return np.empty((nbits, 0), dtype=np.uint8)
    low, high = int(words.min()), int(words.max())
    if low < 0 or high >= 1 << nbits:
        raise EncodingError(
            f"value {low if low < 0 else high} out of range for k={k}"
        )
    if nbits <= 64:
        # Vectorized path: one shift-and-mask per bit plane.
        packed = words.astype(np.uint64)
        shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
        return ((packed[None, :] >> shifts[:, None]) & np.uint64(1)).astype(
            np.uint8
        )
    shifts = np.arange(nbits - 1, -1, -1).astype(object)
    return ((words.astype(object)[None, :] >> shifts[:, None]) & 1).astype(np.uint8)
