"""CLARK/LMAT-style chained hash table, built from scratch.

CLARK and LMAT store the reference k-mer set in a hash table with the
k-mer pattern as key and the taxon label as value (paper Section II).
We implement the table over flat arrays with explicit *addresses* so a
lookup can report exactly which memory locations it touched — that
trace, fed to the cache simulator, reproduces the paper's observation
that hash-table k-mer lookups miss the cache on nearly every access
(chain traversal lands on unrelated lines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..api import BackendCapabilities, ScalarQueryBackendBase

#: Memory-image field sizes (12-byte records, Section II).
BUCKET_SLOT_BYTES = 8
ENTRY_BYTES = 16  # 8 B key + 4 B taxon + 4 B next


class HashTableError(ValueError):
    """Raised on malformed construction."""


@dataclass(frozen=True)
class LookupTrace:
    """Result of one traced lookup."""

    taxon: Optional[int]
    addresses: Tuple[int, ...]
    chain_length: int


def _mix(key: int) -> int:
    """64-bit finalizer (splitmix64-style) for bucket selection."""
    key = (key ^ (key >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    key = (key ^ (key >> 27)) * 0x94D049BB133111EB % 2**64
    return key ^ (key >> 31)


class ChainedHashTable:
    """Flat-array chained hash table: k-mer -> taxon.

    The memory image is two regions, mirroring a real implementation:
    a bucket array of entry indices at ``bucket_base`` and an entry
    array (key, taxon, next) at ``entry_base``.
    """

    def __init__(
        self,
        records: Iterable[Tuple[int, int]],
        load_factor: float = 0.7,
        bucket_base: int = 0,
    ) -> None:
        if not 0.05 <= load_factor <= 1.0:
            raise HashTableError(f"load_factor must be in [0.05, 1], got {load_factor}")
        items = list(records)
        if not items:
            raise HashTableError("cannot build an empty hash table")
        self.num_buckets = max(1, int(len(items) / load_factor))
        self._buckets: List[int] = [-1] * self.num_buckets
        self._keys: List[int] = []
        self._values: List[int] = []
        self._next: List[int] = []
        self.bucket_base = bucket_base
        self.entry_base = bucket_base + self.num_buckets * BUCKET_SLOT_BYTES
        for key, value in items:
            self._insert(key, value)

    def __len__(self) -> int:
        return len(self._keys)

    def _bucket_of(self, key: int) -> int:
        return _mix(key) % self.num_buckets

    def _insert(self, key: int, value: int) -> None:
        bucket = self._bucket_of(key)
        idx = self._buckets[bucket]
        while idx != -1:
            if self._keys[idx] == key:
                self._values[idx] = value
                return
            idx = self._next[idx]
        self._keys.append(key)
        self._values.append(value)
        self._next.append(self._buckets[bucket])
        self._buckets[bucket] = len(self._keys) - 1

    def get(self, key: int) -> Optional[int]:
        """Plain lookup: taxon or None."""
        idx = self._buckets[self._bucket_of(key)]
        while idx != -1:
            if self._keys[idx] == key:
                return self._values[idx]
            idx = self._next[idx]
        return None

    def traced_lookup(self, key: int) -> LookupTrace:
        """Lookup that records every byte address it touches."""
        bucket = self._bucket_of(key)
        addresses = [self.bucket_base + bucket * BUCKET_SLOT_BYTES]
        idx = self._buckets[bucket]
        chain = 0
        taxon = None
        while idx != -1:
            addresses.append(self.entry_base + idx * ENTRY_BYTES)
            chain += 1
            if self._keys[idx] == key:
                taxon = self._values[idx]
                break
            idx = self._next[idx]
        return LookupTrace(taxon=taxon, addresses=tuple(addresses), chain_length=chain)

    def memory_bytes(self) -> int:
        """Footprint of the memory image."""
        return (
            self.num_buckets * BUCKET_SLOT_BYTES + len(self._keys) * ENTRY_BYTES
        )

    def mean_chain_length(self) -> float:
        """Average chain length over occupied buckets."""
        lengths = []
        for head in self._buckets:
            if head == -1:
                continue
            n = 0
            idx = head
            while idx != -1:
                n += 1
                idx = self._next[idx]
            lengths.append(n)
        return sum(lengths) / len(lengths) if lengths else 0.0


class ClarkClassifier(ScalarQueryBackendBase):
    """CLARK-style classifier: hash-table engine + majority voting.

    Implements the :class:`repro.api.QueryBackend` protocol over the
    chained hash table's scalar probe.
    """

    def __init__(self, database) -> None:
        super().__init__()
        records = list(database.items())
        self.k = database.k
        self.canonical = database.canonical
        self.degraded = database.capabilities().degraded
        self.table = ChainedHashTable(records)

    def get(self, kmer: int) -> Optional[int]:
        if self.canonical:
            from ..genomics.encoding import canonical_kmer

            kmer = canonical_kmer(kmer, self.k)
        return self.table.get(kmer)

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="clark-classifier",
            kind="host-hash-table",
            k=self.k,
            canonical=self.canonical,
            degraded=self.degraded,
        )
