"""Bit-packed first-divergence kernels (word-parallel Region-1 matching).

These kernels back ``SieveSubarraySim.match_all``
(:mod:`repro.sieve.functional`).  They pack Region-1 bit columns into
``uint64`` words (MSB-first, matching Region-1 row order: row ``r``
lands at bit ``63 - r`` of word ``r // 64``) and compute every
query/column *first-divergence* row with one ``np.bitwise_xor`` pass
plus a vectorized first-set-bit trick — the word-granularity analogue
of what the sense-amplifier matchers do bit-serially.

:func:`first_divergence` locates the leading set bit of each XOR word
with :func:`bit_length64`; the bit-identity property suite
(``tests/test_kernels_properties.py``) compares it against a scalar
reference sweep and against the scalar simulator.

For single-word layouts whose stored reference words ascend,
:func:`segment_divergence` skips the full XOR matrix altogether: it
binary-searches each query's insertion point and reads only the two
neighbouring columns per ETM segment.

Tail bits past ``rows`` in the last word are zero on both sides of the
XOR by construction (:func:`pack_bit_columns` zero-pads), so odd widths
can never introduce a phantom divergence.

This module is deliberately free of wall-clock reads (SV012) and of
mutable module state (SV009): fleet workers fork with these tables
mapped copy-on-write, and benchmarks time the kernels from outside.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Bits per packed word.
WORD_BITS = 64


class KernelError(ValueError):
    """Raised on invalid kernel inputs."""


def _build_pop8() -> np.ndarray:
    """Set-bit count of every byte value (numpy<2 popcount fallback)."""
    table = np.empty(256, dtype=np.uint8)
    for value in range(256):
        table[value] = bin(value).count("1")
    return table


_POP8 = _build_pop8()
_POP8.setflags(write=False)

#: ``np.bitwise_count`` landed in numpy 2.0; older interpreters fall
#: back to a byte-view table lookup with identical results.
_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")


def bit_length64(words: np.ndarray) -> np.ndarray:
    """Per-element bit length of a uint64 array (0 for the zero word).

    Classic smear-then-popcount: OR the leading set bit into every
    lower position, then count the set bits.
    """
    smeared = words | (words >> np.uint64(1))
    smeared |= smeared >> np.uint64(2)
    smeared |= smeared >> np.uint64(4)
    smeared |= smeared >> np.uint64(8)
    smeared |= smeared >> np.uint64(16)
    smeared |= smeared >> np.uint64(32)
    if _HAVE_BITWISE_COUNT:
        return np.bitwise_count(smeared).astype(np.int64)
    counts = _POP8[smeared.view(np.uint8)]
    return counts.reshape(*smeared.shape, 8).sum(axis=-1, dtype=np.int64)


def words_for(rows: int) -> int:
    """Packed ``uint64`` words needed to hold ``rows`` bits."""
    if rows < 0:
        raise KernelError(f"rows must be >= 0, got {rows}")
    return -(-rows // WORD_BITS)


def pack_bit_columns(bits: np.ndarray) -> np.ndarray:
    """Pack an ``(R, C)`` 0/1 matrix into ``(ceil(R/64), C)`` uint64 words.

    Column ``c``'s bit ``r`` lands at bit ``63 - (r % 64)`` of word
    ``r // 64`` (MSB-first, mirroring the Region-1 row order), and tail
    bits past ``R`` in the last word are zero — the invariant
    :func:`first_divergence` relies on.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2:
        raise KernelError(f"bit matrix must be 2-D, got shape {bits.shape}")
    rows, cols = bits.shape
    num_words = words_for(rows)
    if rows == 0:
        return np.zeros((0, cols), dtype=np.uint64)
    as_bytes = np.packbits(bits, axis=0, bitorder="big")
    padded = np.zeros((num_words * 8, cols), dtype=np.uint64)
    padded[: as_bytes.shape[0]] = as_bytes
    shifts = np.arange(7, -1, -1, dtype=np.uint64) * np.uint64(8)
    return np.bitwise_or.reduce(
        padded.reshape(num_words, 8, cols) << shifts[None, :, None], axis=1
    )


def segment_divergence(
    ref_row: np.ndarray,
    query_row: np.ndarray,
    rows: int,
    seg_starts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max first-divergence per reference segment, sorted-neighbour form.

    ``ref_row`` holds one packed word per reference column and must be
    strictly ascending; ``query_row`` holds one packed word per query;
    both pack ``rows <= 64`` bit rows (a single-word layout, every
    ``k <= 32``).  ``seg_starts`` are the ascending segment start
    offsets into ``ref_row``, the first one 0.

    Against a fixed query ``q``, the first-divergence row of an
    ascending word sequence is unimodal around ``q``'s insertion point
    ``ins``: it never decreases up to ``ins - 1`` and never increases
    from ``ins`` on.  The maximum over a contiguous segment ``[a, b)``
    therefore sits at one of the two clipped neighbours
    ``clip(ins - 1, a, b - 1)`` and ``clip(ins, a, b - 1)``, and is
    ``64 - bit_length(min(q ^ left, q ^ right))`` — or ``rows`` when
    that minimum is zero (tail bits past ``rows`` are zero on both
    sides, so a nonzero word always diverges before ``rows``).

    Returns ``(seg_div, hit_slot, any_hit)``: the ``(N, num_segments)``
    int64 per-segment maxima, and per query the column ``ins`` (clipped
    into range) plus whether that column equals the query — with unique
    ascending words it is the only column that can.
    """
    ref_row = np.asarray(ref_row, dtype=np.uint64)
    query_row = np.asarray(query_row, dtype=np.uint64)
    if ref_row.ndim != 1 or query_row.ndim != 1 or ref_row.size == 0:
        raise KernelError(
            "segment_divergence takes non-empty 1-D reference and 1-D "
            f"query words, got shapes {ref_row.shape} and {query_row.shape}"
        )
    if not 0 < rows <= WORD_BITS:
        raise KernelError(
            f"segment_divergence covers 1..{WORD_BITS} rows, got {rows}"
        )
    seg_starts = np.asarray(seg_starts, dtype=np.intp)
    seg_last = np.append(seg_starts[1:], ref_row.size) - 1
    ins = np.searchsorted(ref_row, query_row)[:, None]
    left = ref_row[np.clip(ins - 1, seg_starts, seg_last)]
    right = ref_row[np.clip(ins, seg_starts, seg_last)]
    query = query_row[:, None]
    nearest = np.minimum(left ^ query, right ^ query)
    seg_div = np.where(
        nearest == np.uint64(0),
        np.int64(rows),
        WORD_BITS - bit_length64(nearest),
    )
    hit_slot = np.minimum(ins[:, 0], ref_row.size - 1)
    return seg_div, hit_slot, ref_row[hit_slot] == query_row


def first_divergence(
    ref_words: np.ndarray, query_words: np.ndarray, rows: int
) -> np.ndarray:
    """First-divergence row of every (query, reference-column) pair.

    ``ref_words`` is ``(W, R)`` and ``query_words`` ``(W, N)``, both
    packed by :func:`pack_bit_columns` over the same ``rows`` bit rows
    (``W == words_for(rows)``).  Returns an ``(N, R)`` int64 matrix
    where entry ``[n, r]`` is the first row at which column ``r``
    differs from query ``n`` — or ``rows`` when they agree on every row
    (a match).
    """
    ref_words = np.asarray(ref_words, dtype=np.uint64)
    query_words = np.asarray(query_words, dtype=np.uint64)
    if ref_words.ndim != 2 or query_words.ndim != 2:
        raise KernelError("packed word matrices must be 2-D")
    num_words = words_for(rows)
    if ref_words.shape[0] != num_words or query_words.shape[0] != num_words:
        raise KernelError(
            f"expected {num_words} words for {rows} rows, got "
            f"{ref_words.shape[0]} (ref) and {query_words.shape[0]} (query)"
        )
    num_refs = ref_words.shape[1]
    num_queries = query_words.shape[1]
    div = np.full((num_queries, num_refs), rows, dtype=np.int64)
    # Later words first: where an earlier word also differs, its (lower)
    # divergence row overwrites on the next iteration.
    for w in range(num_words - 1, -1, -1):
        xor = query_words[w][:, None] ^ ref_words[w][None, :]
        nonzero = xor != 0
        if not nonzero.any():
            continue
        # MSB-first packing: the first divergent row is the leading set
        # bit, i.e. 64 - bit_length (the zero word is masked out below).
        bit = WORD_BITS - bit_length64(xor)
        div = np.where(nonzero, w * WORD_BITS + bit, div)
    return div
