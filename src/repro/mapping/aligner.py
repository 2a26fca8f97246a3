"""Bit-parallel semi-global alignment for the extend stage.

Seed-filter-and-extend read mapping (docs/MAPPING.md) verifies each
candidate with one primitive, :func:`semiglobal_distance`: align the
whole read against a reference *window* with free gaps at the window's
ends (the read is consumed end to end; the window is entered and left
anywhere), at unit Levenshtein cost.  The candidate windows the seed
stage produces are already clipped to ``read_length + 2 * band``
columns, so the window slack *is* the band.

The distance is computed with Myers' bit-vector algorithm (Myers,
J. ACM 1999, in Hyyrö's formulation).  The read is the pattern: bit
``i`` of each vector stands for read row ``i + 1`` of the modelled
``(m + 1) x (n + 1)`` DP, and plain Python ints serve as ``m``-bit
vectors, so there is no 64-base word limit.  For every read byte ``c``
a match mask ``peq[c]`` holds the rows whose base equals ``c`` by exact
byte comparison (two ``N`` bytes match, as in the DP).  One window
column then updates the vertical deltas ``Pv``/``Mv`` (+1/-1 between
adjacent rows) with a handful of word operations::

    Xv = Eq | Mv
    Xh = (((Eq & Pv) + Pv) ^ Pv) | Eq
    Ph = Mv | ~(Xh | Pv)          Mh = Pv & Xh
    Ph <<= 1                      Mh <<= 1
    Pv = Mh | ~(Xv | Ph)          Mv = Ph & Xv

Complement is ``^ mask``; a carry or shift can set bit ``m``, which
nothing reads and the mask on ``Pv`` clears.  Row 0 is all zeros (free
starts in the window), so no carry enters the shifted ``Ph``.  The last
row starts at ``m`` in column 0 and moves by the horizontal delta at
bit ``m - 1``; the answer is its minimum over all columns, exactly the
DP's ``min`` of the last row.

:attr:`SemiglobalResult.cells` is the size of that *modelled* DP,
``m * (n + 1)``, not the host's word operations: the mapping cost
models (:mod:`repro.mapping.cost`) price host or in-situ extension per
DP cell from it.  The row-at-a-time numpy DP in
``tests/test_mapping_properties.py`` is the reference it is checked
against.

Most candidates fail verification, so the extend stage first runs a
lossless q-gram filter (:func:`qgram_filter`) and aligns only windows
that can be within ``max_edits``.  By the q-gram lemma (Jokinen and
Ukkonen 1991), a read of length ``m`` within ``e`` edits of some
substring of a window shares at least ``need = (m - q + 1) - q * e``
q-grams with the window, counted with multiplicity: each edit destroys
at most ``q`` of the read's ``m - q + 1`` q-grams, the rest occur at
distinct positions of the substring, and the substring's q-grams are a
sub-multiset of the window's.  A window below ``need`` therefore cannot
be accepted.  Codes use a five-symbol alphabet: ``A``/``C``/``G``/``T``
are 0-3 and every other byte is 4.  Collapsing symbols can only turn
mismatches into matches, so the collapsed distance is at most the real
one and the bound still holds (``N`` == ``N`` matches in both).  When
``need <= 0`` (reads shorter than ``q``, large ``e``) nothing is
filtered.  :func:`modelled_cells` is the one formula for a candidate's
modelled DP, aligned or filtered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

#: q-gram length of the pre-alignment filter.
QGRAM = 4
#: Distinct q-gram codes over the five-symbol alphabet.
QGRAM_SPACE = 5**QGRAM

#: Byte -> filter symbol: ``A``/``C``/``G``/``T`` are 0-3, all else 4.
_SYMBOLS = np.full(256, 4, dtype=np.uint16)
_SYMBOLS[np.frombuffer(b"ACGT", dtype=np.uint8)] = np.arange(4)
_SYMBOLS.setflags(write=False)


@dataclass(frozen=True)
class SemiglobalResult:
    """Extension outcome: best distance over the window + modelled DP cells."""

    distance: int
    cells: int


def modelled_cells(m: int, n: int) -> int:
    """Cells of the modelled ``(m + 1) x (n + 1)`` DP a candidate is
    priced by: ``m * (n + 1)``, and none when either side is empty."""
    return m * (n + 1) if m and n else 0


def semiglobal_distance(read: str, window: str) -> SemiglobalResult:
    """Best edit distance of ``read`` against any substring of ``window``.

    Semi-global ("glocal") alignment: the read is consumed end to end,
    the window contributes free leading/trailing gaps.  This is the
    verification step of seed-and-extend — the window is the candidate
    neighbourhood a surviving seed's diagonal selects.
    """
    m, n = len(read), len(window)
    if m == 0 or n == 0:
        return SemiglobalResult(m, modelled_cells(m, n))
    peq: Dict[int, int] = {}
    bit = 1
    for code in read.encode("ascii"):
        peq[code] = peq.get(code, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv, mv = mask, 0
    score = best = m
    for code in window.encode("ascii"):
        eq = peq.get(code, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ((xh | pv) ^ mask)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
            if score < best:
                best = score
        ph <<= 1
        pv = ((mh << 1) | ((xv | ph) ^ mask)) & mask
        mv = ph & xv
    return SemiglobalResult(best, modelled_cells(m, n))


def qgram_codes(seq: str) -> np.ndarray:
    """Base-5 codes of every q-gram of ``seq`` (``uint16``, one per
    start, none when ``seq`` is shorter than :data:`QGRAM`)."""
    symbols = _SYMBOLS[np.frombuffer(seq.encode("ascii"), dtype=np.uint8)]
    count = symbols.size - QGRAM + 1
    if count <= 0:
        return np.zeros(0, dtype=np.uint16)
    codes = symbols[:count].copy()
    for offset in range(1, QGRAM):
        codes *= 5
        codes += symbols[offset : offset + count]
    return codes


def qgram_filter(
    read_codes: np.ndarray,
    window_codes: Sequence[np.ndarray],
    max_edits: int,
) -> np.ndarray:
    """Which windows may hold the read within ``max_edits`` edits.

    ``read_codes`` and each of ``window_codes`` come from
    :func:`qgram_codes`.  A window passes when it shares at least
    ``need = len(read_codes) - QGRAM * max_edits`` q-grams with the
    read; that is the lemma's bound for reads of at least ``QGRAM``
    bases, and ``need <= 0`` for shorter ones, which passes everything.
    All windows are counted with one ``bincount``.
    """
    count = len(window_codes)
    need = read_codes.size - QGRAM * max_edits
    if need <= 0 or count == 0:
        return np.ones(count, dtype=bool)
    lengths = [codes.size for codes in window_codes]
    keys = np.concatenate(window_codes).astype(np.int64)
    keys += np.repeat(np.arange(0, count * QGRAM_SPACE, QGRAM_SPACE), lengths)
    window_counts = np.bincount(keys, minlength=count * QGRAM_SPACE)
    read_counts = np.bincount(read_codes, minlength=QGRAM_SPACE)
    shared = np.minimum(
        window_counts.reshape(count, QGRAM_SPACE), read_counts
    ).sum(axis=1)
    return shared >= need


__all__ = [
    "QGRAM",
    "SemiglobalResult",
    "modelled_cells",
    "qgram_codes",
    "qgram_filter",
    "semiglobal_distance",
]
