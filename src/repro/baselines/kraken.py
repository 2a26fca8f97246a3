"""Kraken-style signature-bucketed sorted-list index, built from scratch.

Kraken (paper Section II) hybridizes a hash table and a sorted list:
k-mers sharing a *signature* (their minimizer) land in the same bucket,
which is searched with binary search.  Because two adjacent query
k-mers overlap by k-1 bases they often share a minimizer, so the bucket
fetched for one lookup may serve the next — the locality optimization
the paper measures at only ~8 % effectiveness on real data.

The memory image is flat (bucket offsets region + packed sorted records
region) so traced lookups report the addresses they touch, like the hash
table in :mod:`repro.baselines.hashtable`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..api import BackendCapabilities, ScalarQueryBackendBase
from ..genomics.encoding import BITS_PER_BASE
from ..genomics.sequence import DnaSequence

#: Record size in the packed bucket region (8 B k-mer + 4 B taxon).
RECORD_BYTES = 12
OFFSET_SLOT_BYTES = 8


class KrakenIndexError(ValueError):
    """Raised on malformed construction or queries."""


@dataclass(frozen=True)
class BucketLookup:
    """Result of one traced lookup."""

    taxon: Optional[int]
    signature: int
    probes: int
    addresses: Tuple[int, ...]
    same_bucket_as_previous: bool


def minimizer(kmer: int, k: int, m: int) -> int:
    """Smallest m-mer inside a packed k-mer (Kraken's signature).

    Scans all k - m + 1 windows of the packed representation.
    """
    if not 0 < m <= k:
        raise KrakenIndexError(f"minimizer length {m} must be in (0, {k}]")
    mask = (1 << (BITS_PER_BASE * m)) - 1
    best = None
    for start in range(k - m + 1):
        shift = BITS_PER_BASE * (k - m - start)
        window = (kmer >> shift) & mask
        if best is None or window < best:
            best = window
    assert best is not None
    return best


class SignatureSortedIndex:
    """Minimizer-bucketed sorted-record index: k-mer -> taxon."""

    def __init__(
        self,
        records: Iterable[Tuple[int, int]],
        k: int,
        m: int = 8,
        base_address: int = 0,
    ) -> None:
        items = sorted(records)
        if not items:
            raise KrakenIndexError("cannot build an empty index")
        self.k = k
        self.m = m
        buckets: Dict[int, List[Tuple[int, int]]] = {}
        for kmer, taxon in items:
            buckets.setdefault(minimizer(kmer, k, m), []).append((kmer, taxon))
        # Pack buckets contiguously, each sorted (items were pre-sorted).
        self._signatures = sorted(buckets)
        self._sig_pos = {sig: i for i, sig in enumerate(self._signatures)}
        self._bucket_keys: List[List[int]] = []
        self._bucket_vals: List[List[int]] = []
        self._bucket_offsets: List[int] = []
        offset = 0
        for sig in self._signatures:
            entries = buckets[sig]
            self._bucket_keys.append([kmer for kmer, _ in entries])
            self._bucket_vals.append([taxon for _, taxon in entries])
            self._bucket_offsets.append(offset)
            offset += len(entries)
        self.total_records = offset
        self.offset_base = base_address
        self.record_base = (
            base_address + len(self._signatures) * OFFSET_SLOT_BYTES
        )
        self._last_signature: Optional[int] = None

    def __len__(self) -> int:
        return self.total_records

    @property
    def num_buckets(self) -> int:
        return len(self._signatures)

    def get(self, kmer: int) -> Optional[int]:
        """Plain lookup: taxon or None."""
        return self.traced_lookup(kmer).taxon

    def traced_lookup(self, kmer: int) -> BucketLookup:
        """Binary-search lookup recording the addresses it touches."""
        sig = minimizer(kmer, self.k, self.m)
        same = sig == self._last_signature
        self._last_signature = sig
        pos = self._sig_pos.get(sig)
        if pos is None:
            # Bucket-directory probe only; no such signature in the DB.
            return BucketLookup(None, sig, 0, (self.offset_base,), same)
        keys = self._bucket_keys[pos]
        base = self.record_base + self._bucket_offsets[pos] * RECORD_BYTES
        addresses = [self.offset_base + pos * OFFSET_SLOT_BYTES]
        probes = 0
        lo, hi = 0, len(keys) - 1
        taxon = None
        while lo <= hi:
            mid = (lo + hi) // 2
            addresses.append(base + mid * RECORD_BYTES)
            probes += 1
            if keys[mid] == kmer:
                taxon = self._bucket_vals[pos][mid]
                break
            if keys[mid] < kmer:
                lo = mid + 1
            else:
                hi = mid - 1
        return BucketLookup(taxon, sig, probes, tuple(addresses), same)

    def memory_bytes(self) -> int:
        return (
            len(self._signatures) * OFFSET_SLOT_BYTES
            + self.total_records * RECORD_BYTES
        )

    def bucket_size_stats(self) -> Tuple[float, int]:
        """(mean, max) bucket sizes."""
        sizes = [len(b) for b in self._bucket_keys]
        return sum(sizes) / len(sizes), max(sizes)

    def consecutive_same_bucket_fraction(
        self, reads: Sequence[DnaSequence]
    ) -> float:
        """Fraction of consecutive query k-mers indexing the same bucket.

        The paper measures ~8 % on Kraken's own datasets — the locality
        the hybrid structure was designed for barely materializes.
        """
        same = 0
        total = 0
        for read in reads:
            prev: Optional[int] = None
            for kmer in read.kmers(self.k):
                sig = minimizer(kmer, self.k, self.m)
                if prev is not None:
                    total += 1
                    if sig == prev:
                        same += 1
                prev = sig
        if total == 0:
            raise KrakenIndexError("no consecutive k-mers in the read set")
        return same / total


class KrakenClassifier(ScalarQueryBackendBase):
    """Kraken-style classifier: signature index + majority voting.

    Implements the :class:`repro.api.QueryBackend` protocol; ``query``
    probes the signature-bucketed index per k-mer.
    """

    def __init__(self, database, m: int = 8) -> None:
        super().__init__()
        self.k = database.k
        self.canonical = database.canonical
        self.degraded = database.capabilities().degraded
        self.index = SignatureSortedIndex(list(database.items()), database.k, m)

    def get(self, kmer: int) -> Optional[int]:
        if self.canonical:
            from ..genomics.encoding import canonical_kmer

            kmer = canonical_kmer(kmer, self.k)
        return self.index.get(kmer)

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="kraken-classifier",
            kind="host-signature-index",
            k=self.k,
            canonical=self.canonical,
            degraded=self.degraded,
        )
