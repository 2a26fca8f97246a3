"""Reference k-mer database (k-mer pattern -> taxon label).

This is the offline-built structure every k-mer matching pipeline in the
paper consumes: CLARK/LMAT keep it in a hash table, Kraken in a
signature-bucketed sorted list, and Sieve transposes it column-wise onto
DRAM bitlines.  The database itself is engine-agnostic: a mapping from
packed canonical-or-raw k-mers to taxon ids, plus the size accounting
(~12 bytes per record, paper Section II) that the capacity planning and
the CPU cache model use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..api import BackendCapabilities, QueryBackendBase, ResultBatch, key_array
from .encoding import canonical_kmer, canonical_kmers, decode_kmer, pack_kmers
from .sequence import DnaSequence
from .taxonomy import Taxonomy

#: Bytes per k-mer record in real tools (paper Section II: "k-mer records
#: are typically around 12 bytes"): 8-byte key + 4-byte taxon id.
KMER_RECORD_BYTES = 12


class DatabaseError(ValueError):
    """Raised on inconsistent database construction or queries."""


@dataclass(frozen=True)
class DatabaseStats:
    """Size summary of a built database."""

    k: int
    num_kmers: int
    num_taxa: int
    record_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.num_kmers * self.record_bytes

    @property
    def total_gib(self) -> float:
        return self.total_bytes / 2**30


class KmerDatabase(QueryBackendBase):
    """A reference k-mer set with taxon payloads.

    Parameters
    ----------
    k:
        k-mer length (paper uses k = 31 throughout).
    canonical:
        When true, k-mers are canonicalized (min of k-mer and reverse
        complement) at both build and query time, as Kraken/CLARK do.
    taxonomy:
        Optional taxonomy; when present, k-mers found in multiple taxa
        are assigned the LCA of the occurrences (Kraken's rule) instead
        of raising.
    """

    def __init__(
        self,
        k: int,
        canonical: bool = False,
        taxonomy: Optional[Taxonomy] = None,
    ) -> None:
        if not 1 <= k <= 32:
            raise DatabaseError(f"k must be in [1, 32] for packed storage, got {k}")
        super().__init__()
        self.k = k
        self.canonical = canonical
        self.taxonomy = taxonomy
        self._table: Dict[int, int] = {}
        # Sorted key/payload arrays for bulk lookup, rebuilt on demand.
        self._lookup_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # Set by repro.faults.faulted_database: records were corrupted.
        self._degraded = False

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, kmer: int) -> bool:
        return self._normalize(kmer) in self._table

    def _normalize(self, kmer: int) -> int:
        if kmer < 0 or kmer >= (1 << (2 * self.k)):
            raise DatabaseError(f"k-mer {kmer} out of range for k={self.k}")
        return canonical_kmer(kmer, self.k) if self.canonical else kmer

    def add(self, kmer: int, taxon_id: int) -> None:
        """Insert a (k-mer, taxon) record, LCA-merging on conflicts."""
        self._insert(self._normalize(kmer), taxon_id)

    def _insert(self, key: int, taxon_id: int) -> None:
        """Install one pre-normalized record, LCA-merging on conflicts."""
        self._lookup_cache = None
        existing = self._table.get(key)
        if existing is None or existing == taxon_id:
            self._table[key] = taxon_id
        elif self.taxonomy is not None:
            self._table[key] = self.taxonomy.lca(existing, taxon_id)
        else:
            raise DatabaseError(
                f"k-mer {decode_kmer(key, self.k)} maps to both taxon "
                f"{existing} and {taxon_id}; provide a taxonomy to LCA-merge"
            )

    def add_genome(self, genome: DnaSequence, taxon_id: int) -> int:
        """Index every k-mer of a genome under ``taxon_id``; returns count.

        Windows are packed (and canonicalized) in one vectorized pass;
        only the dictionary insert runs per record.
        """
        keys = pack_kmers(genome.bases, self.k)
        if self.canonical:
            keys = canonical_kmers(keys, self.k)
        for key in keys.tolist():
            self._insert(key, taxon_id)
        return len(keys)

    def get(self, kmer: int) -> Optional[int]:
        """Return the taxon payload for a query k-mer, or ``None`` (miss).

        Dict-like accessor: does not touch the protocol query counters
        (use :meth:`query` for tracked traffic).
        """
        return self._table.get(self._normalize(kmer))

    def _lookup_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted key array + aligned payload array (cached)."""
        if self._lookup_cache is None:
            if self._table:
                keys = np.fromiter(
                    self._table.keys(), dtype=np.uint64, count=len(self._table)
                )
                payloads = np.fromiter(
                    self._table.values(), dtype=np.int64, count=len(self._table)
                )
                order = np.argsort(keys)
                sorted_keys = keys[order]
                sorted_payloads = payloads[order]
            else:
                sorted_keys = np.empty(0, dtype=np.uint64)
                sorted_payloads = np.empty(0, dtype=np.int64)
            # Frozen: the cached arrays are handed to every caller (and
            # shared by forked fleet workers), so in-place mutation
            # would corrupt all later lookups.
            sorted_keys.setflags(write=False)
            sorted_payloads.setflags(write=False)
            self._lookup_cache = (sorted_keys, sorted_payloads)
        return self._lookup_cache

    def _bulk_lookup(self, queries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Bulk :meth:`get`: sorted-array binary search in one pass.

        Returns ``(hit, payload)`` columns for a :func:`~repro.api.
        key_array` of queries (payload 0 at misses).  Queries are
        canonicalized vectorized, then resolved against the cached
        sorted key array with ``np.searchsorted`` — the software
        analogue of the device's batched dispatch, and the path the
        benchmark harness tracks for host-side lookup throughput.
        """
        if queries.dtype != np.uint64:
            raise DatabaseError(
                f"query k-mers out of range for k={self.k}: not all fit "
                f"one 64-bit word"
            )
        if self.k < 32 and bool((queries >= (1 << (2 * self.k))).any()):
            bad = int(queries[queries >= (1 << (2 * self.k))][0])
            raise DatabaseError(f"k-mer {bad} out of range for k={self.k}")
        if self.canonical:
            queries = canonical_kmers(queries, self.k)
        keys, payloads = self._lookup_arrays()
        positions = np.searchsorted(keys, queries)
        in_range = positions < len(keys)
        hit = np.zeros(len(queries), dtype=bool)
        hit[in_range] = keys[positions[in_range]] == queries[in_range]
        payload = np.zeros(len(queries), dtype=np.int64)
        payload[hit] = payloads[positions[hit]]
        return hit, payload

    def query(self, kmers: Sequence[int]) -> ResultBatch:
        """Unified batch query (:class:`repro.api.QueryBackend` surface):
        the vectorized searchsorted pass of :meth:`_bulk_lookup`, whose
        answers equal a :meth:`get` per k-mer.  The ``queries`` column
        echoes the k-mers as asked, not their canonical form.
        """
        queries = key_array(kmers)
        results = ResultBatch(queries, *self._bulk_lookup(queries))
        self._backend_stats.record(results)
        return results

    def mark_degraded(self) -> None:
        """Flag this database as built from fault-corrupted records
        (surfaced through ``capabilities().degraded``)."""
        self._degraded = True

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="kmer-database",
            kind="host-sorted-array",
            k=self.k,
            canonical=self.canonical,
            degraded=self._degraded,
        )

    def items(self) -> Iterator[Tuple[int, int]]:
        """Iterate over (packed k-mer, taxon id) records, unordered."""
        return iter(self._table.items())

    def sorted_kmers(self) -> List[int]:
        """All reference k-mers in ascending packed-integer order.

        This is the order Sieve loads references into subarrays
        (Section IV-D: "reference k-mers in each subarray are sorted
        alphanumerically"), which makes the range index exact.
        """
        return sorted(self._table)

    def sorted_records(self) -> List[Tuple[int, int]]:
        """Sorted (k-mer, taxon) pairs — the Sieve load image."""
        return sorted(self._table.items())

    def size_stats(self) -> DatabaseStats:
        """Size summary (used for capacity planning and Table II style rows).

        Named ``stats()`` before the PR-4 unification; that name now
        carries the protocol-wide query/hit accounting.
        """
        return DatabaseStats(
            k=self.k,
            num_kmers=len(self._table),
            num_taxa=len(set(self._table.values())),
            record_bytes=KMER_RECORD_BYTES,
        )

    @classmethod
    def from_genomes(
        cls,
        genomes: Iterable[Tuple[DnaSequence, int]],
        k: int,
        canonical: bool = False,
        taxonomy: Optional[Taxonomy] = None,
    ) -> "KmerDatabase":
        """Build a database from (genome, taxon) pairs."""
        db = cls(k, canonical=canonical, taxonomy=taxonomy)
        for genome, taxon_id in genomes:
            db.add_genome(genome, taxon_id)
        return db

    @staticmethod
    def open_mmap(
        path,
        taxonomy: Optional[Taxonomy] = None,
        verify: bool = False,
    ) -> "MmapKmerDatabase":
        """Open a saved segment directory as a read-only mmap database.

        Zero-copy counterpart of :func:`repro.serialization.save_segments`:
        the sorted record arrays are memory-mapped, so many processes
        (fleet workers, service shards) share one page-cached copy of
        the reference with no per-process build cost.  ``verify=True``
        re-hashes the segments against the manifest before use.
        """
        from .. import serialization

        return serialization.load_segments(
            path, taxonomy=taxonomy, verify=verify
        )


class MmapKmerDatabase(KmerDatabase):
    """Read-only :class:`KmerDatabase` view over mmap-loaded segments.

    Backed directly by the sorted key/payload arrays a segment
    directory maps (:meth:`KmerDatabase.open_mmap`), so construction is
    O(1): no dict build, no LCA merging, no copy.  Every query path —
    scalar :meth:`get`, batched :meth:`query`, Sieve device loading via
    :meth:`sorted_records` — reads the mapped pages in place.  Mutation
    raises: the segment image is shared between processes.
    """

    def __init__(
        self,
        k: int,
        keys: np.ndarray,
        payloads: np.ndarray,
        canonical: bool = False,
        taxonomy: Optional[Taxonomy] = None,
        content_hash: str = "",
        source: Optional[str] = None,
        degraded: bool = False,
    ) -> None:
        super().__init__(k, canonical=canonical, taxonomy=taxonomy)
        if keys.ndim != 1 or payloads.shape != keys.shape:
            raise DatabaseError(
                f"segment arrays must be aligned 1-D, got shapes "
                f"{keys.shape} and {payloads.shape}"
            )
        if keys.size and bool((keys[1:] <= keys[:-1]).any()):
            raise DatabaseError(
                "segment keys must be strictly ascending (sorted, unique)"
            )
        if keys.size and int(keys[-1]) >= (1 << (2 * k)):
            raise DatabaseError(
                f"segment keys out of range for k={k}"
            )
        self._keys = keys
        self._payloads = payloads
        # The arrays are already read-only (mmap_mode="r"); install them
        # as the lookup cache so the batched path never rebuilds.
        self._lookup_cache = (keys, payloads)
        self._content_hash = content_hash
        self._source = source
        if degraded:
            self.mark_degraded()

    @property
    def content_hash(self) -> str:
        """Manifest content hash of the mapped segment image."""
        return self._content_hash

    @property
    def source(self) -> Optional[str]:
        """Segment directory this database was opened from."""
        return self._source

    def record_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The mapped, sorted ``(keys, payloads)`` arrays, zero-copy.

        Read-only views straight over the segment pages — the seam
        :mod:`repro.cluster` workers use to slice out their owned
        partitions without materializing the full record list.
        """
        return self._keys, self._payloads

    def _insert(self, key: int, taxon_id: int) -> None:
        raise DatabaseError(
            "mmap-opened databases are read-only (the segment image is "
            "shared between processes); rebuild and re-save instead"
        )

    def __len__(self) -> int:
        return int(self._keys.size)

    def __contains__(self, kmer: int) -> bool:
        return self.get(kmer) is not None

    def get(self, kmer: int) -> Optional[int]:
        key = self._normalize(kmer)
        pos = int(np.searchsorted(self._keys, np.uint64(key)))
        if pos < self._keys.size and int(self._keys[pos]) == key:
            return int(self._payloads[pos])
        return None

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(self.sorted_records())

    def sorted_kmers(self) -> List[int]:
        return [int(k) for k in self._keys]

    def sorted_records(self) -> List[Tuple[int, int]]:
        return [
            (int(k), int(t)) for k, t in zip(self._keys, self._payloads)
        ]

    def size_stats(self) -> DatabaseStats:
        return DatabaseStats(
            k=self.k,
            num_kmers=int(self._keys.size),
            num_taxa=int(np.unique(self._payloads).size),
            record_bytes=KMER_RECORD_BYTES,
        )

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="kmer-database",
            kind="host-sorted-array-mmap",
            k=self.k,
            canonical=self.canonical,
            degraded=self._degraded,
        )
