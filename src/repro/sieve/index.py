"""K-mer-to-subarray index (paper Section IV-D).

Reference k-mers are globally sorted and packed into subarrays in order;
the index keeps, per subarray, an 8-byte subarray ID plus the integer
values of the first and last k-mers stored there.  Routing a query is a
binary search over the (sorted, disjoint) ranges — the table scales
linearly with device capacity, not with k, and stays under 2 MB even for
a 500 GB device.

Queries whose value falls between two subarray ranges are guaranteed
misses and are answered at the host without touching the accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..api import key_array

#: Bytes per index entry: 8-byte subarray ID + two packed k-mers (8 B each).
INDEX_ENTRY_BYTES = 24


class IndexError_(ValueError):
    """Raised on malformed index construction or routing."""


@dataclass(frozen=True)
class IndexEntry:
    """One subarray's range: [first_kmer, last_kmer], inclusive."""

    subarray_id: int
    first_kmer: int
    last_kmer: int

    def __post_init__(self) -> None:
        if self.first_kmer > self.last_kmer:
            raise IndexError_(
                f"subarray {self.subarray_id}: first k-mer {self.first_kmer} "
                f"> last {self.last_kmer}"
            )


class SubarrayIndex:
    """Range index from packed query k-mer to destination subarray."""

    def __init__(self, entries: Sequence[IndexEntry]) -> None:
        self._entries = list(entries)
        for prev, cur in zip(self._entries, self._entries[1:]):
            if cur.first_kmer <= prev.last_kmer:
                raise IndexError_(
                    f"subarray ranges overlap or are unsorted: "
                    f"{prev.subarray_id} ends at {prev.last_kmer}, "
                    f"{cur.subarray_id} starts at {cur.first_kmer}"
                )
        # Routing tables, built once: every call routes through them.
        self._firsts = key_array([e.first_kmer for e in self._entries])
        self._lasts = key_array([e.last_kmer for e in self._entries])
        self._ids = np.array(
            [e.subarray_id for e in self._entries], dtype=np.int64
        )

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> List[IndexEntry]:
        return list(self._entries)

    def route(self, kmer: int) -> Optional[int]:
        """Destination subarray ID for a query, or None (guaranteed miss)."""
        sid = int(self.route_many(key_array([kmer]))[0])
        return None if sid < 0 else sid

    def route_many(self, kmers: np.ndarray) -> np.ndarray:
        """:meth:`route` of every k-mer in a :func:`key_array`, with -1
        for a guaranteed miss (one binary search for the whole array)."""
        if not self._entries:
            return np.full(len(kmers), -1, dtype=np.int64)
        pos = np.searchsorted(self._firsts, kmers, side="right") - 1
        clipped = np.maximum(pos, 0)
        routed = (pos >= 0) & (kmers <= self._lasts[clipped])
        return np.where(routed, self._ids[clipped], -1)

    def size_bytes(self) -> int:
        """Host memory footprint of the table."""
        return len(self._entries) * INDEX_ENTRY_BYTES

    @classmethod
    def build(
        cls,
        sorted_kmers: Sequence[int],
        refs_per_subarray: int,
        first_subarray_id: int = 0,
    ) -> Tuple["SubarrayIndex", List[List[int]]]:
        """Partition globally sorted k-mers into subarray-sized chunks.

        Returns the index plus the per-subarray k-mer lists (the load
        image for the device).  Raises when the input is not strictly
        ascending (duplicate reference k-mers would break the Column
        Finder's uniqueness guarantee).
        """
        return cls._build(sorted_kmers, refs_per_subarray, first_subarray_id)

    @staticmethod
    def naive_index_bytes(k: int, id_bytes: int = 8) -> int:
        """Footprint of the naive scheme Section IV-D rejects.

        A direct k-mer -> destination table needs one entry per possible
        k-mer: ``4^k`` ids — exponential in k, hopeless past k ~ 16.
        The range index instead scales linearly with device capacity
        (:meth:`size_bytes`).
        """
        if k <= 0:
            raise IndexError_(f"k must be positive, got {k}")
        return (4**k) * id_bytes

    @classmethod
    def _build(
        cls,
        sorted_kmers: Sequence[int],
        refs_per_subarray: int,
        first_subarray_id: int = 0,
    ) -> Tuple["SubarrayIndex", List[List[int]]]:
        """Partition globally sorted k-mers into subarray-sized chunks.

        Returns the index plus the per-subarray k-mer lists (the load
        image for the device).  Raises when the input is not strictly
        ascending (duplicate reference k-mers would break the Column
        Finder's uniqueness guarantee).
        """
        if refs_per_subarray <= 0:
            raise IndexError_(
                f"refs_per_subarray must be positive, got {refs_per_subarray}"
            )
        for a, b in zip(sorted_kmers, sorted_kmers[1:]):
            if b <= a:
                raise IndexError_(
                    "reference k-mers must be strictly ascending and unique"
                )
        chunks: List[List[int]] = []
        entries: List[IndexEntry] = []
        for start in range(0, len(sorted_kmers), refs_per_subarray):
            chunk = list(sorted_kmers[start : start + refs_per_subarray])
            sid = first_subarray_id + len(chunks)
            entries.append(IndexEntry(sid, chunk[0], chunk[-1]))
            chunks.append(chunk)
        return cls(entries), chunks
