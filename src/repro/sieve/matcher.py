"""Bit-serial matcher array (paper Figure 7d).

One matcher sits behind every sense amplifier of an enhanced row buffer:
an XNOR gate compares the reference bit on the bitline with the query
bit broadcast on the group's shared bus, an AND gate folds the result
into a 1-bit latch, and a Match-Enable signal lets individual matchers
be bypassed (query columns, empty slots).

The latch semantics are *running exact-match*: the latch holds 1 iff the
reference has matched the query on every bit compared so far.  Latches
are preset to 1 before a new query starts.
"""

from __future__ import annotations

import numpy as np


class MatcherError(ValueError):
    """Raised on shape or protocol errors in the matcher array."""


class MatcherArray:
    """A row-buffer-wide array of XNOR/AND/latch matchers."""

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise MatcherError(f"width must be positive, got {width}")
        self.width = width
        self._latches = np.ones(width, dtype=np.uint8)
        #: Matchers with enable=0 are bypassed and their latch is pinned 0
        #: so they can never be reported as matches.
        self._enable = np.ones(width, dtype=np.uint8)
        self.compare_count = 0

    @property
    def latches(self) -> np.ndarray:
        """Read-only view of the latch bits."""
        view = self._latches.view()
        view.flags.writeable = False
        return view

    def set_enable(self, enable: np.ndarray) -> None:
        """Install the Match-Enable mask (1 = participate, 0 = bypass)."""
        enable = np.asarray(enable, dtype=np.uint8)
        if enable.shape != (self.width,):
            raise MatcherError(
                f"enable mask must have shape ({self.width},), got {enable.shape}"
            )
        self._enable = enable & 1

    def reset(self) -> None:
        """Preset all enabled latches to 1 (start of a new query)."""
        self._latches = self._enable.copy()
        self.compare_count = 0

    def compare(self, ref_bits: np.ndarray, query_bit: int) -> None:
        """One row cycle: fold XNOR(ref, query) into every enabled latch.

        ``ref_bits`` is the activated row (one bit per column);
        ``query_bit`` is the bit broadcast on the shared bus this cycle.
        """
        if query_bit not in (0, 1):
            raise MatcherError(f"query bit must be 0/1, got {query_bit!r}")
        ref_bits = np.asarray(ref_bits, dtype=np.uint8)
        if ref_bits.shape != (self.width,):
            raise MatcherError(
                f"row must have shape ({self.width},), got {ref_bits.shape}"
            )
        xnor = np.uint8(1) - ((ref_bits ^ np.uint8(query_bit)) & np.uint8(1))
        self._latches &= xnor & self._enable
        self.compare_count += 1

    def compare_per_column(self, ref_bits: np.ndarray, query_bits: np.ndarray) -> None:
        """Grouped variant: per-column query bits (one bus per group).

        Used by the subarray simulator, where each pattern group
        broadcasts its own copy of the selected query's bit.
        """
        ref_bits = np.asarray(ref_bits, dtype=np.uint8)
        query_bits = np.asarray(query_bits, dtype=np.uint8)
        if ref_bits.shape != (self.width,) or query_bits.shape != (self.width,):
            raise MatcherError("row and query vectors must both span the array")
        xnor = np.uint8(1) - ((ref_bits ^ query_bits) & np.uint8(1))
        self._latches &= xnor & self._enable
        self.compare_count += 1

    def load_state(self, latches: np.ndarray, compare_count: int) -> None:
        """Install latch contents computed by the batched fast path.

        The vectorized matcher evaluates all row cycles of a query in one
        pass; this restores the exact state a cycle-by-cycle replay would
        have left behind.
        """
        latches = np.asarray(latches, dtype=np.uint8)
        if latches.shape != (self.width,):
            raise MatcherError(
                f"latch row must have shape ({self.width},), got {latches.shape}"
            )
        if compare_count < 0:
            raise MatcherError(f"compare_count must be >= 0, got {compare_count}")
        self._latches = latches.copy()
        self.compare_count = compare_count

    def any_match(self) -> bool:
        """True while at least one candidate is still alive."""
        return bool(self._latches.any())

    def match_columns(self) -> np.ndarray:
        """Columns whose latch still holds 1."""
        return np.flatnonzero(self._latches)
