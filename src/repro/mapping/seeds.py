"""Seed index: exact k-mer -> reference location lookup for extension.

The Sieve device (or any other :class:`repro.api.QueryBackend`) answers
only *membership* — "does this k-mer occur anywhere in the reference?".
That is exactly the seed-location *filter* role compute-in-memory
hardware plays in published read-mapping stacks: the filter prunes the
read's k-mers down to the few that can seed an alignment, and a small
host-side index then resolves *where* those survivors occur.

:class:`SeedIndex` is that host-side structure.  It is a CSR-style
sorted k-mer table over the reference genomes:

* ``_keys``     — distinct packed k-mers, ascending (``uint64``)
* ``_starts``   — CSR offsets into the occurrence arrays (``len+1``)
* ``_genomes``  — genome index per occurrence (``int32``)
* ``_positions``— 0-based position per occurrence (``int64``)

Occurrences of one k-mer are stored in (genome, position) order, so
every lookup is deterministic.  The index is *forward-strand*: Sieve
backends built with canonical k-mers answer membership for either
strand and therefore act as a conservative (superset) filter — a
canonical hit whose forward k-mer has no forward occurrence simply
yields no candidates (docs/MAPPING.md discusses the strand contract).

Candidate generation groups surviving seeds by *diagonal*
(``position - read_offset``): seeds of the same alignment agree on the
diagonal up to the indel budget, so each ``(genome, diagonal)`` bucket
names one candidate reference window to verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..genomics import encoding
from ..genomics.sequence import DnaSequence


class SeedIndexError(ValueError):
    """Raised on invalid seed-index construction or lookup parameters."""


@dataclass(frozen=True)
class Candidate:
    """One ``(genome, diagonal)`` bucket of agreeing seed hits.

    ``diagonal`` is the reference start position a gap-free alignment
    of the full read would have (may be clamped to 0 by the window
    step for reads hanging off the genome's left edge); ``support`` is
    the number of distinct read k-mer offsets that voted for it.
    """

    genome_index: int
    diagonal: int
    support: int


class SeedIndex:
    """Exact k-mer -> (genome, position) occurrence index (CSR arrays)."""

    def __init__(
        self,
        k: int,
        genome_lengths: Tuple[int, ...],
        keys: np.ndarray,
        starts: np.ndarray,
        genomes: np.ndarray,
        positions: np.ndarray,
    ) -> None:
        self.k = k
        self.genome_lengths = genome_lengths
        self._keys = keys
        self._starts = starts
        self._genomes = genomes
        self._positions = positions

    @classmethod
    def from_genomes(
        cls, genomes: Sequence[DnaSequence], k: int
    ) -> "SeedIndex":
        """Index every k-mer occurrence of ``genomes`` (forward strand)."""
        if not 0 < k <= encoding.MAX_PACKED_K:
            raise SeedIndexError(
                f"seed length must be in [1, {encoding.MAX_PACKED_K}], got {k}"
            )
        if not genomes:
            raise SeedIndexError("at least one reference genome is required")
        key_parts: List[np.ndarray] = []
        genome_parts: List[np.ndarray] = []
        position_parts: List[np.ndarray] = []
        for genome_index, genome in enumerate(genomes):
            kmers = encoding.pack_kmers(genome.bases, k)
            if kmers.size == 0:
                continue
            key_parts.append(kmers)
            genome_parts.append(
                np.full(kmers.size, genome_index, dtype=np.int32)
            )
            position_parts.append(np.arange(kmers.size, dtype=np.int64))
        if not key_parts:
            raise SeedIndexError(
                f"no genome is long enough to contain a {k}-mer"
            )
        all_keys = np.concatenate(key_parts)
        all_genomes = np.concatenate(genome_parts)
        all_positions = np.concatenate(position_parts)
        # Stable sort on the key keeps same-k-mer occurrences in the
        # (genome, position) order they were emitted in above.
        order = np.argsort(all_keys, kind="stable")
        sorted_keys = all_keys[order]
        keys, starts_head = np.unique(sorted_keys, return_index=True)
        starts = np.concatenate(
            (starts_head.astype(np.int64), [sorted_keys.size])
        )
        return cls(
            k=k,
            genome_lengths=tuple(len(g.bases) for g in genomes),
            keys=keys,
            starts=starts,
            genomes=all_genomes[order],
            positions=all_positions[order],
        )

    def __len__(self) -> int:
        return int(self._keys.size)

    def __contains__(self, kmer: int) -> bool:
        i = int(np.searchsorted(self._keys, np.uint64(kmer)))
        return i < self._keys.size and int(self._keys[i]) == kmer

    def occurrences(self, kmer: int) -> List[Tuple[int, int]]:
        """All ``(genome_index, position)`` pairs of a packed k-mer."""
        i = int(np.searchsorted(self._keys, np.uint64(kmer)))
        if i >= self._keys.size or int(self._keys[i]) != kmer:
            return []
        lo, hi = int(self._starts[i]), int(self._starts[i + 1])
        return [
            (int(self._genomes[j]), int(self._positions[j]))
            for j in range(lo, hi)
        ]

    def candidates(
        self, read_offsets: np.ndarray, kmers: np.ndarray
    ) -> List[Candidate]:
        """Group surviving seeds into diagonal candidates.

        ``read_offsets`` and ``kmers`` are the filter's output as two
        aligned arrays: the offset and packed value of every read k-mer
        the backend reported present.  Each occurrence votes for the
        diagonal ``position - read_offset``; buckets are returned
        sorted by descending support, then ``(genome_index, diagonal)``
        ascending — a total order, so the downstream truncation to
        ``max_candidates`` is deterministic.

        Array form: one ``searchsorted`` finds every k-mer, ``np.repeat``
        expands their CSR occurrence ranges, and one ``lexsort`` counts
        the ``(genome, diagonal)`` buckets, another ranks them.
        """
        read_offsets = np.asarray(read_offsets, dtype=np.int64)
        kmers = np.asarray(kmers, dtype=np.uint64)
        if kmers.size == 0:
            return []
        slot = np.searchsorted(self._keys, kmers)
        found = slot < self._keys.size
        found[found] = self._keys[slot[found]] == kmers[found]
        slot = slot[found]
        lo = self._starts[slot]
        counts = self._starts[slot + 1] - lo
        total = int(counts.sum())
        if total == 0:
            return []
        # Occurrence j of seed s sits at lo[s] + j: one arange shifted
        # per seed by (lo[s] - seeds' occurrences before s).
        shift = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        occurrence = np.arange(total) + shift
        genomes = self._genomes[occurrence].astype(np.int64)
        diagonals = self._positions[occurrence] - np.repeat(
            read_offsets[found], counts
        )
        order = np.lexsort((diagonals, genomes))
        genomes, diagonals = genomes[order], diagonals[order]
        head = np.ones(total, dtype=bool)
        head[1:] = (genomes[1:] != genomes[:-1]) | (diagonals[1:] != diagonals[:-1])
        heads = np.flatnonzero(head)
        support = np.diff(np.append(heads, total))
        genomes, diagonals = genomes[heads], diagonals[heads]
        ranked = np.lexsort((diagonals, genomes, -support))
        return [
            Candidate(genome_index=g, diagonal=d, support=n)
            for g, d, n in zip(
                genomes[ranked].tolist(),
                diagonals[ranked].tolist(),
                support[ranked].tolist(),
            )
        ]


__all__ = ["Candidate", "SeedIndex", "SeedIndexError"]
