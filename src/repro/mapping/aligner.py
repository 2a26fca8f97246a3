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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class SemiglobalResult:
    """Extension outcome: best distance over the window + modelled DP cells."""

    distance: int
    cells: int


def semiglobal_distance(read: str, window: str) -> SemiglobalResult:
    """Best edit distance of ``read`` against any substring of ``window``.

    Semi-global ("glocal") alignment: the read is consumed end to end,
    the window contributes free leading/trailing gaps.  This is the
    verification step of seed-and-extend — the window is the candidate
    neighbourhood a surviving seed's diagonal selects.
    """
    m, n = len(read), len(window)
    if m == 0:
        return SemiglobalResult(0, 0)
    if n == 0:
        return SemiglobalResult(m, 0)
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
    return SemiglobalResult(best, m * (n + 1))


__all__ = ["SemiglobalResult", "semiglobal_distance"]
