"""Plain sorted-list k-mer index (the third software structure the paper
names in Section II: "purely hash table or sorted list approaches").

A flat array of 12-byte records sorted by k-mer, searched with binary
search.  Compared to Kraken's signature buckets it has *no* locality
structure at all — every probe of the log2(N) search lands on a
different cache line of a multi-GB array, which makes it the cleanest
demonstration of the paper's memory-wall argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..api import BackendCapabilities, ScalarQueryBackendBase

#: Record size: 8-byte k-mer + 4-byte taxon (Section II).
RECORD_BYTES = 12


class SortedListError(ValueError):
    """Raised on malformed construction."""


@dataclass(frozen=True)
class SortedLookup:
    """Result of one traced binary search."""

    taxon: Optional[int]
    probes: int
    addresses: Tuple[int, ...]


class SortedKmerList:
    """Binary-searched flat record array: k-mer -> taxon."""

    def __init__(
        self, records: Iterable[Tuple[int, int]], base_address: int = 0
    ) -> None:
        items = sorted(records)
        if not items:
            raise SortedListError("cannot build an empty sorted list")
        for (a, _), (b, _) in zip(items, items[1:]):
            if a == b:
                raise SortedListError(f"duplicate k-mer {a}")
        self._keys: List[int] = [k for k, _ in items]
        self._values: List[int] = [v for _, v in items]
        self.base_address = base_address

    def __len__(self) -> int:
        return len(self._keys)

    def memory_bytes(self) -> int:
        return len(self._keys) * RECORD_BYTES

    def get(self, kmer: int) -> Optional[int]:
        return self.traced_lookup(kmer).taxon

    def traced_lookup(self, kmer: int) -> SortedLookup:
        """Binary search recording every record address touched."""
        lo, hi = 0, len(self._keys) - 1
        addresses = []
        taxon = None
        while lo <= hi:
            mid = (lo + hi) // 2
            addresses.append(self.base_address + mid * RECORD_BYTES)
            if self._keys[mid] == kmer:
                taxon = self._values[mid]
                break
            if self._keys[mid] < kmer:
                lo = mid + 1
            else:
                hi = mid - 1
        return SortedLookup(
            taxon=taxon, probes=len(addresses), addresses=tuple(addresses)
        )

    def expected_probes(self) -> float:
        """~log2(N) probes per lookup."""
        import math

        return math.log2(max(len(self._keys), 2))


class SortedListClassifier(ScalarQueryBackendBase):
    """Classifier over the flat sorted list (LMAT-class tooling).

    Implements the :class:`repro.api.QueryBackend` protocol over the
    flat list's scalar binary search.
    """

    def __init__(self, database) -> None:
        super().__init__()
        self.k = database.k
        self.canonical = database.canonical
        self.degraded = database.capabilities().degraded
        self.index = SortedKmerList(list(database.items()))

    def get(self, kmer: int) -> Optional[int]:
        if self.canonical:
            from ..genomics.encoding import canonical_kmer

            kmer = canonical_kmer(kmer, self.k)
        return self.index.get(kmer)

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="sortedlist-classifier",
            kind="host-sorted-list",
            k=self.k,
            canonical=self.canonical,
            degraded=self.degraded,
        )
