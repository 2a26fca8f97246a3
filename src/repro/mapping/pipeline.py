"""Seed-filter-and-extend read mapping over any :class:`QueryBackend`.

The pipeline (docs/MAPPING.md) has three stages:

1. **Filter** — the backend (scalar database, Sieve device, sharded
   service, multi-process cluster ... anything speaking
   :class:`repro.api.QueryBackend`) answers membership for every k-mer
   window of the read.  This is the stage Sieve accelerates; its
   answers are bit-identical across every backend, which is what makes
   mapping results bit-identical across the whole topology matrix.
2. **Seed** — surviving k-mers are resolved to reference locations by
   the host-side :class:`~repro.mapping.seeds.SeedIndex` and grouped
   into ``(genome, diagonal)`` candidates.
3. **Extend** — each candidate's reference window is verified by
   banded semi-global alignment
   (:func:`~repro.mapping.aligner.semiglobal_distance`); a candidate
   maps if its distance is within ``max_edits``.  The arithmetic is
   identical for both cost models — only the modelled price differs
   (:mod:`repro.mapping.cost`).

:meth:`SeedExtender.extend` is a *pure function* of the read and the
per-k-mer filter answers (plus the immutable index/config), so a
mapping result is reproducible from a classification trace alone and
identical whether extension runs inline, in the service dispatcher's
``_finish``, or in a fleet job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api import QueryBackend, ResultBatch
from ..genomics.sequence import DnaSequence
from .aligner import semiglobal_distance
from .cost import HostExtensionModel, InsituExtensionModel
from .seeds import SeedIndex

#: Extension cost-model spellings accepted by :class:`MappingConfig`.
EXTENSION_MODES = ("host", "insitu")


class MappingError(ValueError):
    """Raised on invalid mapping configuration or inputs."""


@dataclass(frozen=True)
class MappingConfig:
    """Extend-stage policy.

    ``band`` is the error budget: candidate windows get ``band`` slack
    on both sides and the aligner tolerates up to ``band`` diagonal
    drift, so any true location within ``max_edits <= band`` edits of
    a surviving seed's diagonal is found exactly (the property the
    hypothesis suite pins).  ``min_seed_hits`` and ``max_candidates``
    bound the extend fan-out per read; truncation order is the
    deterministic ranking of :meth:`SeedIndex.candidates`.
    """

    band: int = 3
    max_edits: int = 3
    min_seed_hits: int = 1
    max_candidates: int = 16
    extension: str = "host"

    def __post_init__(self) -> None:
        if self.band < 0:
            raise MappingError(f"band must be >= 0, got {self.band}")
        if not 0 <= self.max_edits <= self.band:
            raise MappingError(
                "max_edits must satisfy 0 <= max_edits <= band "
                f"(got max_edits={self.max_edits}, band={self.band}); a "
                "budget above the band would make banded verification "
                "inexact"
            )
        if self.min_seed_hits < 1:
            raise MappingError("min_seed_hits must be >= 1")
        if self.max_candidates < 1:
            raise MappingError("max_candidates must be >= 1")
        if self.extension not in EXTENSION_MODES:
            raise MappingError(
                f"extension must be one of {EXTENSION_MODES}, "
                f"got {self.extension!r}"
            )


@dataclass(frozen=True)
class MappingResult:
    """Outcome of mapping one read.

    ``locations`` lists every accepted placement ``(genome_index,
    position, edit_distance)`` in candidate-ranking order (bounded by
    ``max_candidates``); the headline fields describe the best one —
    minimal distance, ties broken by ``(genome_index, position)``.
    ``position`` is the candidate diagonal: the reference start a
    gap-free alignment would have.
    """

    read_id: str
    mapped: bool
    taxon_id: Optional[int]
    genome_index: Optional[int]
    position: Optional[int]
    edit_distance: Optional[int]
    kmers_total: int
    seed_hits: int
    candidates: int
    dp_cells: int
    locations: Tuple[Tuple[int, int, int], ...] = ()

    def to_payload(self) -> Dict[str, Any]:
        """JSON-stable dict (golden files, service responses, digests)."""
        return {
            "read_id": self.read_id,
            "mapped": self.mapped,
            "taxon_id": self.taxon_id,
            "genome_index": self.genome_index,
            "position": self.position,
            "edit_distance": self.edit_distance,
            "kmers_total": self.kmers_total,
            "seed_hits": self.seed_hits,
            "candidates": self.candidates,
            "dp_cells": self.dp_cells,
            "locations": [list(loc) for loc in self.locations],
        }


@dataclass
class MappingStats:
    """Extender-level counters (the cost model keeps the price)."""

    reads: int = 0
    mapped: int = 0
    seed_hits: int = 0
    candidates: int = 0
    dp_cells: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "reads": self.reads,
            "mapped": self.mapped,
            "seed_hits": self.seed_hits,
            "candidates": self.candidates,
            "dp_cells": self.dp_cells,
        }


def build_extension_model(config: MappingConfig):
    """Cost model for ``config.extension`` (answers are model-blind)."""
    if config.extension == "insitu":
        return InsituExtensionModel()
    return HostExtensionModel()


class SeedExtender:
    """Stages 2+3: resolve filter survivors to verified placements."""

    def __init__(
        self,
        seed_index: SeedIndex,
        genomes: Sequence[DnaSequence],
        config: Optional[MappingConfig] = None,
        cost_model: Any = None,
    ) -> None:
        if len(seed_index.genome_lengths) != len(genomes):
            raise MappingError(
                f"seed index covers {len(seed_index.genome_lengths)} "
                f"genomes but {len(genomes)} were supplied"
            )
        self.seed_index = seed_index
        self.genomes = tuple(genomes)
        self.config = config or MappingConfig()
        self.cost_model = cost_model or build_extension_model(self.config)
        self.stats = MappingStats()

    @property
    def k(self) -> int:
        return self.seed_index.k

    def extend(
        self,
        read: DnaSequence,
        results: ResultBatch,
    ) -> MappingResult:
        """Map one read from its per-k-mer filter answers (pure).

        ``results`` is the read's slice of a backend's
        :class:`~repro.api.ResultBatch`; the seeds are its hit positions
        and their ``queries``."""
        expected = read.kmer_count(self.k)
        if len(results) != expected:
            raise MappingError(
                f"read {read.seq_id!r} has {expected} {self.k}-mers but "
                f"{len(results)} filter results were supplied"
            )
        cfg = self.config
        offsets = np.flatnonzero(results.hit)
        seed_hits = int(offsets.size)
        ranked = [
            c
            for c in self.seed_index.candidates(
                offsets, results.queries[offsets]
            )
            if c.support >= cfg.min_seed_hits
        ][: cfg.max_candidates]

        accepted: List[Tuple[int, int, int]] = []
        dp_cells = 0
        for candidate in ranked:
            genome = self.genomes[candidate.genome_index]
            genome_len = len(genome.bases)
            window_start = min(
                max(candidate.diagonal - cfg.band, 0), genome_len
            )
            window_end = min(
                max(candidate.diagonal + len(read.bases) + cfg.band, 0),
                genome_len,
            )
            window = genome.bases[window_start:window_end]
            outcome = semiglobal_distance(read.bases, window)
            dp_cells += outcome.cells
            self.cost_model.charge(
                candidate.genome_index,
                window_start,
                len(window),
                outcome.cells,
            )
            if outcome.distance <= cfg.max_edits:
                accepted.append(
                    (
                        candidate.genome_index,
                        candidate.diagonal,
                        outcome.distance,
                    )
                )

        if accepted:
            best = min(accepted, key=lambda loc: (loc[2], loc[0], loc[1]))
            result = MappingResult(
                read_id=read.seq_id,
                mapped=True,
                taxon_id=self.genomes[best[0]].taxon_id,
                genome_index=best[0],
                position=best[1],
                edit_distance=best[2],
                kmers_total=expected,
                seed_hits=seed_hits,
                candidates=len(ranked),
                dp_cells=dp_cells,
                locations=tuple(accepted),
            )
        else:
            result = MappingResult(
                read_id=read.seq_id,
                mapped=False,
                taxon_id=None,
                genome_index=None,
                position=None,
                edit_distance=None,
                kmers_total=expected,
                seed_hits=seed_hits,
                candidates=len(ranked),
                dp_cells=dp_cells,
            )
        self.stats.reads += 1
        self.stats.mapped += int(result.mapped)
        self.stats.seed_hits += result.seed_hits
        self.stats.candidates += result.candidates
        self.stats.dp_cells += result.dp_cells
        return result

    def stats_dict(self) -> Dict[str, Any]:
        """Extender counters + the cost model's price, one payload."""
        payload: Dict[str, Any] = dict(self.stats.as_dict())
        payload["extension"] = self.cost_model.as_dict()
        return payload


class ReadMapper:
    """Stage 1 glue: drive a filter backend, then extend.

    Works with any :class:`QueryBackend`; the backend's ``k`` must
    match the seed index's (the filter and the index must agree on
    what a seed is).
    """

    def __init__(self, backend: QueryBackend, extender: SeedExtender) -> None:
        backend_k = backend.capabilities().k
        if backend_k != extender.k:
            raise MappingError(
                f"backend k={backend_k} does not match seed index "
                f"k={extender.k}"
            )
        self.backend = backend
        self.extender = extender

    def map_read(self, read: DnaSequence) -> MappingResult:
        results = self.backend.query(read.kmer_list(self.extender.k))
        return self.extender.extend(read, results)

    def map_reads(self, reads: Sequence[DnaSequence]) -> List[MappingResult]:
        return [self.map_read(read) for read in reads]


__all__ = [
    "EXTENSION_MODES",
    "MappingConfig",
    "MappingError",
    "MappingResult",
    "MappingStats",
    "ReadMapper",
    "SeedExtender",
    "build_extension_model",
]
