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

from typing import Optional, Sequence, Tuple

import numpy as np

#: Bits per packed word.
WORD_BITS = 64

#: The end bound of a run's last segment: none (the run's length cuts it).
_NO_END = np.array([np.iinfo(np.intp).max], dtype=np.intp)
_NO_END.setflags(write=False)


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
    # Column-major copy, zero-padded to whole words, so packbits runs
    # along contiguous memory; each 8-byte run is one big-endian word.
    padded = np.zeros((cols, num_words * WORD_BITS), dtype=np.uint8)
    padded[:, :rows] = bits.T
    big_endian = np.packbits(padded, axis=1, bitorder="big").view(">u8")
    return np.ascontiguousarray(big_endian.T, dtype=np.uint64)


def segment_divergence(
    ref_row: np.ndarray,
    query_row: np.ndarray,
    rows: int,
    seg_starts: np.ndarray,
    runs: Optional[Tuple[Sequence[int], Sequence[int]]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max first-divergence per reference segment, sorted-neighbour form.

    ``ref_row`` holds one packed word per reference column and must be
    strictly ascending within each run (below); ``query_row`` holds one
    packed word per query; both pack ``rows <= 64`` bit rows (a
    single-word layout, every ``k <= 32``).  ``seg_starts`` are the ascending segment start
    offsets into ``ref_row``, the first one 0.

    ``runs = (ref_bounds, query_bounds)`` matches several destinations
    in one pass: run ``r`` matches ``query_row[query_bounds[r] :
    query_bounds[r + 1]]`` against its own non-empty, strictly
    ascending ``ref_row[ref_bounds[r] : ref_bounds[r + 1]]``, with
    ``seg_starts`` counted from the run's first reference.  ``None`` is
    the single run over all of ``ref_row``.  One insertion search covers
    every run: when each run starts above the previous run's last word
    the whole row ascends and is searched as it is; otherwise each word
    is keyed by ``(run, word)`` (:func:`_run_keys`), one ascending key
    space whatever order the runs come in.

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
    int64 per-segment maxima (-1 for a segment that starts at or past
    the end of the query's run: it holds none of its references), and
    per query the column ``ins`` of its run (clipped into range,
    counted from the run start) plus whether that column equals the
    query — with unique ascending words it is the only column that can.
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
    if runs is None:
        runs = ((0, ref_row.size), (0, query_row.size))
    ref_bounds = np.asarray(runs[0], dtype=np.intp)
    query_bounds = np.asarray(runs[1], dtype=np.intp)
    lengths = ref_bounds[1:] - ref_bounds[:-1]
    counts = query_bounds[1:] - query_bounds[:-1]
    if (
        ref_bounds.shape != query_bounds.shape
        or ref_bounds[0] != 0
        or query_bounds[0] != 0
        or ref_bounds[-1] != ref_row.size
        or query_bounds[-1] != query_row.size
        or min(lengths.tolist()) <= 0
        or min(counts.tolist()) < 0
    ):
        raise KernelError(
            "runs must split ref_row into non-empty runs and query_row "
            "into as many ascending ranges"
        )
    base = np.repeat(ref_bounds[:-1], counts)
    length = np.repeat(lengths, counts)
    inner = ref_bounds[1:-1]
    if (ref_row[inner] > ref_row[inner - 1]).all():
        # A query's insertion point in the whole ascending row, clipped
        # into its run, is its insertion point in the run.
        ins = np.searchsorted(ref_row, query_row) - base
        np.minimum(np.maximum(ins, 0, out=ins), length, out=ins)
    else:
        ins = np.searchsorted(
            _run_keys(np.repeat(np.arange(lengths.size), lengths), ref_row),
            _run_keys(np.repeat(np.arange(counts.size), counts), query_row),
        ) - base
    # Each segment's last column within the query's run; a segment past
    # the run's end clamps to the run's last reference, a valid index
    # whose result is masked below.
    seg_starts = np.asarray(seg_starts, dtype=np.intp)
    seg_last = np.concatenate((seg_starts[1:], _NO_END))
    seg_last = np.minimum(seg_last, length[:, None]) - 1
    offset = base[:, None]
    left = np.maximum(ins[:, None] - 1, seg_starts)
    left = ref_row[np.minimum(left, seg_last, out=left) + offset]
    right = np.maximum(ins[:, None], seg_starts)
    right = ref_row[np.minimum(right, seg_last, out=right) + offset]
    query = query_row[:, None]
    nearest = np.minimum(left ^ query, right ^ query)
    seg_div = WORD_BITS - bit_length64(nearest)
    seg_div[nearest == 0] = rows
    seg_div[seg_starts >= length[:, None]] = -1
    hit_slot = np.minimum(ins, length - 1)
    return seg_div, hit_slot, ref_row[base + hit_slot] == query_row


def _run_keys(runs: np.ndarray, words: np.ndarray) -> np.ndarray:
    """``(run, word)`` pairs as 16-byte big-endian strings, which numpy
    orders byte by byte: by run, then by word."""
    keys = np.empty((words.size, 2), dtype=">u8")
    keys[:, 0] = runs
    keys[:, 1] = words
    return keys.view("S16").ravel()


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
