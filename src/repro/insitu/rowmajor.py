"""Row-major in-situ k-mer matching baselines (paper Section VI-B, Fig 13).

Two models of the prior-art approach the paper compares against:

* :class:`RowMajorMatcher` — a *functional* matcher built on the Ambit
  array: reference k-mers packed 128-to-a-row (62 bits each for k = 31),
  the query replicated across a full row, per-bit XNOR computed with
  bulk operations, and a column-group reducer (the "additional logic")
  folding each 62-bit lane into a match bit.
* :class:`RowMajorModel` / :class:`ComputeDramModel` — analytic device
  models mirroring the paper's Figure 13 assumptions: same capacity,
  same subarray-level parallelism, and the same indexing scheme as
  Sieve; only the AND's triple-row-activation delay is charged per
  compare ("to give advantage to the previous in-situ PIM work"), and
  the design stops on a hit but must scan every candidate row on a
  miss.  ComputeDRAM gets a much faster TRA (rapid-succession command
  issue) and near-free in-array query replication, but no early
  termination — the paper's point is that only the column-major layout
  makes ETM possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..api import BackendCapabilities, QueryBackendBase, ResultBatch, key_array
from ..genomics.encoding import BITS_PER_BASE, kmer_bits
from ..sieve.perfmodel import (
    QueryCost,
    SieveModel,
    SieveModelConfig,
    WorkloadStats,
)
from .ambit import AmbitArray


class RowMajorError(RuntimeError):
    """Raised on row-major layout/protocol errors."""


# ---------------------------------------------------------------------------
# Functional matcher
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RowMajorOutcome:
    """Result of one functional row-major query."""

    query: int
    hit: bool
    payload: Optional[int]
    rows_compared: int
    triple_activations: int
    row_clones: int
    query_writes: int


class RowMajorMatcher(QueryBackendBase):
    """Functional row-major matcher over an Ambit array.

    Implements the :class:`repro.api.QueryBackend` protocol so the
    prior-art in-situ design plugs into the same dispatch/experiment
    harness as Sieve (``query`` scans per k-mer; row-major has no
    batched load protocol).
    """

    def __init__(self, k: int, records: Sequence[Tuple[int, int]], row_bits: int = 8192) -> None:
        super().__init__()
        self.k = k
        self.kmer_bits = BITS_PER_BASE * k
        self.refs_per_row = row_bits // self.kmer_bits
        if self.refs_per_row == 0:
            raise RowMajorError(f"row of {row_bits} bits cannot hold a {k}-mer")
        self.row_bits = row_bits
        self.records = list(records)
        self.num_ref_rows = -(-len(records) // self.refs_per_row)
        # Data region: ref rows + RQuery + RResult + scratch.
        rows = self.num_ref_rows + 3 + 6
        self.array = AmbitArray(rows, row_bits)
        self.r_query = self.num_ref_rows
        self.r_result = self.num_ref_rows + 1
        self.r_scratch = self.num_ref_rows + 2
        self.query_writes = 0
        self._load()
        # Loaded cells stay corrupted after the injector goes away.
        from ..faults import degraded_mode

        self.degraded = degraded_mode()

    def _load(self) -> None:
        for row_idx in range(self.num_ref_rows):
            bits = np.zeros(self.row_bits, dtype=np.uint8)
            start = row_idx * self.refs_per_row
            for lane, (kmer, _) in enumerate(
                self.records[start : start + self.refs_per_row]
            ):
                lane_bits = kmer_bits(kmer, self.k)
                base = lane * self.kmer_bits
                bits[base : base + self.kmer_bits] = lane_bits
            self.array.load_row(row_idx, bits)

    def _write_query(self, query: int) -> None:
        """Replicate the query across RQuery (one write burst per lane)."""
        bits = np.zeros(self.row_bits, dtype=np.uint8)
        lane_bits = kmer_bits(query, self.k)
        for lane in range(self.refs_per_row):
            base = lane * self.kmer_bits
            bits[base : base + self.kmer_bits] = lane_bits
        self.array.load_row(self.r_query, bits)
        self.query_writes += self.row_bits // 64  # 64-bit write bursts

    def _reduce_lanes(self, xnor_row: np.ndarray, valid_lanes: int) -> Optional[int]:
        """The "additional logic": AND-reduce each lane's XNOR bits."""
        for lane in range(valid_lanes):
            base = lane * self.kmer_bits
            if xnor_row[base : base + self.kmer_bits].all():
                return lane
        return None

    def match(self, query: int) -> RowMajorOutcome:
        """Scan candidate rows until a hit or all rows are exhausted."""
        before_tra = self.array.stats.triple_activations
        before_clone = self.array.stats.row_clones
        before_writes = self.query_writes
        self._write_query(query)
        rows_compared = 0
        for row_idx in range(self.num_ref_rows):
            rows_compared += 1
            xnor = self.array.bulk_xnor(
                row_idx, self.r_query, self.r_result, self.r_scratch
            )
            start = row_idx * self.refs_per_row
            valid = min(self.refs_per_row, len(self.records) - start)
            lane = self._reduce_lanes(xnor, valid)
            if lane is not None:
                _, payload = self.records[start + lane]
                return RowMajorOutcome(
                    query=query,
                    hit=True,
                    payload=payload,
                    rows_compared=rows_compared,
                    triple_activations=self.array.stats.triple_activations - before_tra,
                    row_clones=self.array.stats.row_clones - before_clone,
                    query_writes=self.query_writes - before_writes,
                )
        return RowMajorOutcome(
            query=query,
            hit=False,
            payload=None,
            rows_compared=rows_compared,
            triple_activations=self.array.stats.triple_activations - before_tra,
            row_clones=self.array.stats.row_clones - before_clone,
            query_writes=self.query_writes - before_writes,
        )

    # -- protocol surface ------------------------------------------------------

    def query(self, kmers: Sequence[int]) -> ResultBatch:
        queries = key_array(kmers)
        outcomes = [self.match(kmer) for kmer in queries.tolist()]
        results = ResultBatch.from_payloads(
            queries,
            [outcome.payload for outcome in outcomes],
            rows_activated=np.fromiter(
                (outcome.rows_compared for outcome in outcomes),
                dtype=np.int64,
                count=len(outcomes),
            ),
        )
        self._backend_stats.record(results)
        return results

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="rowmajor-matcher",
            kind="insitu-row-major",
            k=self.k,
            canonical=False,
            degraded=self.degraded,
        )


# ---------------------------------------------------------------------------
# Analytic device models (Figure 13)
# ---------------------------------------------------------------------------


class RowMajorModel(SieveModel):
    """Ambit-style row-major accelerator at Sieve's capacity and SALP.

    Favorable assumptions from the paper: payload location/transfer cost
    matches Sieve's, the indexing scheme is shared, and only the AND's
    triple-row activation is charged per row-wide compare.
    """

    def __init__(
        self,
        config: Optional[SieveModelConfig] = None,
        concurrent_subarrays: int = 8,
        tra_row_cycles: float = 1.0,
    ) -> None:
        super().__init__(config)
        if concurrent_subarrays <= 0:
            raise ValueError("concurrent_subarrays must be positive")
        if tra_row_cycles <= 0:
            raise ValueError("tra_row_cycles must be positive")
        self.concurrent_subarrays = concurrent_subarrays
        self.tra_row_cycles = tra_row_cycles
        self.streams_per_bank = concurrent_subarrays

    design = "RowMajor"

    def candidate_rows(self, workload: WorkloadStats) -> float:
        """Rows holding the candidate set one query is checked against.

        Matched to Sieve's per-subarray candidate count (the shared
        index routes both designs identically): the paper observes both
        designs open "roughly the same number of rows (62 8192-bit
        rows)" on a miss.
        """
        layout = self.config.layout(workload.k)
        refs = layout.refs_per_layer
        refs_per_row = self.config.geometry.row_bits // (2 * workload.k)
        return max(1.0, refs / refs_per_row)

    def _ops_per_query(self, workload: WorkloadStats) -> float:
        rows = self.candidate_rows(workload)
        # Misses scan everything; hits stop halfway on average.
        return workload.hit_rate * rows / 2.0 + (1 - workload.hit_rate) * rows

    def query_writes(self, workload: WorkloadStats) -> float:
        """Query replication across a full row: one burst per 64 bits."""
        return self.config.geometry.row_bits / 64.0

    def query_cost(self, workload: WorkloadStats) -> QueryCost:
        cfg = self.config
        timing = cfg.timing
        ops = self._ops_per_query(workload)
        op_ns = self.tra_row_cycles * timing.row_cycle
        matching_ns = ops * op_ns
        # Payload retrieval parity with Sieve.
        matching_ns += workload.hit_rate * 2 * timing.row_cycle
        writes = self.query_writes(workload)
        io_ns = writes * timing.tCCD + self._io_common_ns(workload)
        tra_nj = cfg.energy.multi_row_activation_energy_nj(timing, rows=3)
        energy_nj = ops * tra_nj
        energy_nj += writes * cfg.energy.write_burst_energy_nj(timing)
        energy_nj += workload.hit_rate * 2 * cfg.energy.activation_energy_nj(timing)
        energy_nj += self._io_common_nj(workload)
        return QueryCost(matching_ns, io_ns, energy_nj)


class ComputeDramModel(RowMajorModel):
    """ComputeDRAM-style row-major baseline (Gao et al., Section III).

    Multi-row activation by issuing constraint-violating command
    sequences: much faster per op, zero added circuitry, and row copy
    comes free in-array — so query replication costs a couple of write
    bursts plus log2(lanes) in-array doubling copies instead of a full
    row of writes.  Still no early termination.
    """

    design = "ComputeDRAM"

    def __init__(
        self,
        config: Optional[SieveModelConfig] = None,
        concurrent_subarrays: int = 8,
        tra_row_cycles: float = 0.5,
    ) -> None:
        super().__init__(config, concurrent_subarrays, tra_row_cycles)

    def query_writes(self, workload: WorkloadStats) -> float:
        """Seed writes only: one k-mer (<= 2 bursts)."""
        return 2.0

    def query_cost(self, workload: WorkloadStats) -> QueryCost:
        base = super().query_cost(workload)
        # In-array replication: log2(lanes) doubling copies on the
        # matching stream.
        lanes = self.config.geometry.row_bits / (2.0 * workload.k)
        import math

        copies = math.ceil(math.log2(max(lanes, 2.0)))
        copy_ns = copies * self.tra_row_cycles * self.config.timing.row_cycle
        copy_nj = copies * self.config.energy.activation_energy_nj(self.config.timing)
        return QueryCost(
            matching_ns=base.matching_ns + copy_ns,
            io_ns=base.io_ns,
            energy_nj=base.energy_nj + copy_nj,
        )
