"""Extension cost models: host SIMD alignment vs in-situ extension.

The extend stage's *answers* never depend on where it runs — both
variants call the same :func:`repro.mapping.aligner.semiglobal_distance`
— only its *price* does.  Mirroring how :mod:`repro.baselines` prices
CPU k-mer lookups analytically while the Sieve device is priced through
the DRAM ledger:

* :class:`HostExtensionModel` — analytic, the
  :class:`repro.baselines.cpu_model.CpuModelParams` idiom: a calibrated
  per-DP-cell cost on a SIMD host (``cell_ns / lanes``) plus a fixed
  per-candidate overhead for the window gather, and energy from the
  workstation's matching power draw.
* :class:`InsituExtensionModel` — costed through a
  :class:`repro.dram.memsys.MemorySystem` ledger, the same open-page
  DDR4 model the paper's baseline-energy methodology replays traces
  against: each candidate streams its reference window's cache lines
  (deterministic addresses, so row-hit behaviour is reproducible) and
  then charges a per-cell in-DRAM operation time for the alignment
  recurrence, in the spirit of the PIM alignment frameworks in
  PAPERS.md.

Both keep running totals in :class:`ExtensionStats`; the mapping
service exposes them under ``stats()["mapping"]``.  ``dp_cells`` counts
the cells of the *modelled* ``m x (n + 1)`` semi-global DP of every
candidate (:func:`repro.mapping.aligner.modelled_cells`), not the
host's instructions: the modelled extender verifies every candidate,
while the host first drops the candidates a lossless q-gram filter
rules out and runs Myers' bit-vector algorithm, ``n`` word steps, only
on the rest (``MappingStats.aligned`` counts those).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..baselines.machines import XEON_E5_2658V4
from ..dram.memsys import MemorySystem


class ExtensionModelError(ValueError):
    """Raised on invalid extension cost-model parameters."""


@dataclass
class ExtensionStats:
    """Accumulated extend-stage work and its modelled price."""

    candidates: int = 0
    dp_cells: int = 0
    window_bytes: int = 0
    time_ns: float = 0.0
    energy_nj: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "candidates": float(self.candidates),
            "dp_cells": float(self.dp_cells),
            "window_bytes": float(self.window_bytes),
            "time_ns": self.time_ns,
            "energy_nj": self.energy_nj,
        }


@dataclass(frozen=True)
class HostExtensionParams:
    """Calibrated host-side banded-alignment constants.

    ``cell_ns`` is the amortized cost of one DP cell on one SIMD lane
    (striped/banded vectorized aligners sustain roughly one cell per
    lane-cycle); ``candidate_overhead_ns`` covers the window gather,
    band setup, and traceback bookkeeping per candidate.
    """

    cell_ns: float = 0.35
    lanes: float = 8.0
    candidate_overhead_ns: float = 150.0

    def __post_init__(self) -> None:
        if self.cell_ns <= 0 or self.lanes < 1.0:
            raise ExtensionModelError(
                "cell_ns must be positive and lanes >= 1"
            )
        if self.candidate_overhead_ns < 0:
            raise ExtensionModelError("overhead must be non-negative")


class HostExtensionModel:
    """Analytic host-side extension pricing (CPU-baseline idiom)."""

    name = "host"

    def __init__(self, params: Optional[HostExtensionParams] = None) -> None:
        self.params = params or HostExtensionParams()
        self.stats = ExtensionStats()

    def charge(
        self,
        genome_index: int,
        window_start: int,
        window_len: int,
        cells: int,
    ) -> None:
        """Account one verified candidate's alignment work."""
        p = self.params
        time_ns = cells * p.cell_ns / p.lanes + p.candidate_overhead_ns
        self.stats.candidates += 1
        self.stats.dp_cells += cells
        self.stats.window_bytes += window_len
        self.stats.time_ns += time_ns
        self.stats.energy_nj += (
            XEON_E5_2658V4.matching_power_w * time_ns
        )  # W x ns = nJ

    def stats_dict(self) -> Dict[str, float]:
        return self.as_dict()

    def as_dict(self) -> Dict[str, float]:
        payload = self.stats.as_dict()
        payload["model"] = self.name  # type: ignore[assignment]
        return payload


@dataclass(frozen=True)
class InsituExtensionParams:
    """In-situ extension constants.

    ``cell_op_ns`` prices one DP cell of bit-serial in-DRAM arithmetic
    (a handful of row activations per majority/add step, amortized over
    a row-wide vector of lanes); ``genome_stride_bytes`` spaces the
    genomes' reference images in the modelled address space so distinct
    genomes never share a DRAM row.
    """

    cell_op_ns: float = 0.9
    genome_stride_bytes: int = 1 << 28

    def __post_init__(self) -> None:
        if self.cell_op_ns <= 0:
            raise ExtensionModelError("cell_op_ns must be positive")
        if self.genome_stride_bytes <= 0:
            raise ExtensionModelError("genome stride must be positive")


class InsituExtensionModel:
    """Extension costed through the open-page DRAM ledger."""

    name = "insitu"

    def __init__(
        self,
        memsys: Optional[MemorySystem] = None,
        params: Optional[InsituExtensionParams] = None,
    ) -> None:
        self.memsys = memsys or MemorySystem()
        self.params = params or InsituExtensionParams()
        self.stats = ExtensionStats()

    def charge(
        self,
        genome_index: int,
        window_start: int,
        window_len: int,
        cells: int,
    ) -> None:
        """Stream the candidate window's lines, then pay per-cell ops.

        Addresses are a pure function of ``(genome_index,
        window_start, window_len)`` — 2 bits per base at a fixed
        per-genome stride — so the ledger's row-hit/miss/conflict
        sequence (and therefore the priced latency and energy) is
        deterministic for a given candidate schedule.
        """
        cfg = self.memsys.config
        base = genome_index * self.params.genome_stride_bytes
        first_byte = base + window_start // 4
        last_byte = base + (window_start + max(window_len, 1) - 1) // 4
        first_line = first_byte // cfg.line_bytes
        last_line = last_byte // cfg.line_bytes
        stream_ns = 0.0
        for line in range(first_line, last_line + 1):
            stream_ns += self.memsys.access(line * cfg.line_bytes)
        op_ns = cells * self.params.cell_op_ns
        self.stats.candidates += 1
        self.stats.dp_cells += cells
        self.stats.window_bytes += window_len
        self.stats.time_ns += stream_ns + op_ns
        # Burst/activation energy is accumulated by the ledger itself;
        # mirror the ledger total so one stats payload tells the story.
        self.stats.energy_nj = self.memsys.stats.energy_nj

    def stats_dict(self) -> Dict[str, float]:
        return self.as_dict()

    def as_dict(self) -> Dict[str, float]:
        payload = self.stats.as_dict()
        payload["model"] = self.name  # type: ignore[assignment]
        ledger = self.memsys.stats
        payload["ledger_accesses"] = float(ledger.accesses)
        payload["ledger_row_hit_rate"] = ledger.row_hit_rate
        return payload


__all__ = [
    "ExtensionModelError",
    "ExtensionStats",
    "HostExtensionModel",
    "HostExtensionParams",
    "InsituExtensionModel",
    "InsituExtensionParams",
]
