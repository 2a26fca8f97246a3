"""Trace-driven analytic performance/energy model of Sieve Types 1-3.

The paper evaluates Sieve with "a trace-driven, in-house simulator with
a custom DRAMSim2-based front-end" (Section V).  This module is that
simulator's equivalent: it consumes a :class:`WorkloadStats` summary of
a query trace (k-mer count, hit rate, and the ETM termination
distribution) and produces device-level latency and energy for each
Sieve type, using the DRAM timing/energy substrates and the paper's
component costs.

Model structure (derived in DESIGN.md):

* Each *bank* processes queries with two serialized resources: the
  matching engine(s) and the bank I/O (query-batch writes, request
  delivery, payload return).  Steady-state time per query at one bank is
  ``max(matching / streams, io)`` — matching and I/O for different
  queries overlap, and SALP multiplies matching streams.  This single
  rule reproduces the paper's Figure 16 plateau (beyond ~8 concurrent
  subarrays the bank I/O write traffic binds) without a separate fit.
* **Type-3**: matching runs in local row buffers, ``streams_per_bank``
  concurrent subarrays (SALP).
* **Type-2**: one row relay at a time per bank (the paper's SPICE
  constraint: only two sets of sense amplifiers enabled at once), so one
  matching stream whose per-row cost adds the hop delay to the group's
  compute buffer; more compute buffers shorten the average hop distance.
* **Type-1**: one stream per bank at the chip I/O; every activated row
  is burst-read batch-by-batch, pruned by the Skip-Bits/Start-Batch
  registers as candidates die off.

Queries route to exactly one subarray via the sorted index; they spread
uniformly (hash-like) over the device, so banks are balanced up to a
configurable imbalance factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..dram.energy import DDR4_ENERGY, DramEnergy
from ..dram.geometry import SIEVE_32GB, DramGeometry
from ..dram.timing import SIEVE_TIMING, DramTiming
from ..hardware.circuits import hop_delay_ns
from .etm import DEFAULT_SEGMENT_SIZE
from .layout import SubarrayLayout


class ModelError(ValueError):
    """Raised on inconsistent model configuration."""


# ---------------------------------------------------------------------------
# ETM termination distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EspModel:
    """Distribution of row activations per *dispatched miss* under ETM.

    ``probabilities[i]`` is the probability that matching a missing
    query terminates after exactly ``i + 1`` row activations (including
    the one activation the interrupt races, see
    :mod:`repro.sieve.functional`).  The support is ``1 .. 2k`` rows.
    """

    probabilities: tuple

    def __post_init__(self) -> None:
        if not self.probabilities:
            raise ModelError("ESP distribution must be non-empty")
        total = sum(self.probabilities)
        if any(p < 0 for p in self.probabilities) or abs(total - 1.0) > 1e-6:
            raise ModelError(f"probabilities must be >= 0 and sum to 1, got {total}")

    @property
    def total_rows(self) -> int:
        return len(self.probabilities)

    def mean_rows(self) -> float:
        """Expected activations per miss."""
        return sum((i + 1) * p for i, p in enumerate(self.probabilities))

    def full_scan_fraction(self) -> float:
        """Fraction of misses that activate every pattern row."""
        return self.probabilities[-1]

    @classmethod
    def paper_fig6(
        cls,
        k: int,
        interrupt_lag_rows: int = 1,
        head_prob: float = 0.969,
        head_bits: int = 10,
        full_scan_prob: float = 0.0017,
    ) -> "EspModel":
        """Calibrated to the paper's Figure 6 characterization.

        Figure 6 reports, per query k-mer, the number of bits the ETM
        must compare before every candidate has mismatched: 96.9 % of
        queries resolve within the first five bases (10 bits) and only
        0.17 % must activate every pattern row.

        The ETM terminates at the *maximum* shared prefix over the
        candidates in the subarray, so the distribution has the
        max-of-geometrics shape ``F(b) = (1 - 2^-b)^n``.  Because the
        sorted layout routes each query next to its nearest reference
        neighbours, ``n`` is an *effective* independent-candidate count,
        which we solve from the published head constraint
        ``F(head_bits) = head_prob`` (n ~ 32 for the defaults) instead of
        assuming the full 7-k candidates are independent.
        ``interrupt_lag_rows`` models the ACT the termination signal
        races (see :mod:`repro.sieve.functional`).
        """
        total_rows = 2 * k
        if total_rows <= head_bits + 1:
            raise ModelError("paper_fig6 profile needs 2k > head_bits + 1")
        if not 0.0 < head_prob < 1.0 or not 0.0 <= full_scan_prob < 1.0:
            raise ModelError("head/full-scan probabilities must be in (0, 1)")
        n_eff = math.log(head_prob) / math.log(1.0 - 2.0**-head_bits)
        probs = [0.0] * total_rows
        prev_cdf = 0.0
        scale = 1.0 - full_scan_prob
        for bits in range(1, total_rows):
            cdf = (1.0 - 2.0**-bits) ** n_eff
            probs[bits - 1] = scale * (cdf - prev_cdf)
            prev_cdf = cdf
        probs[total_rows - 1] = scale * (1.0 - prev_cdf) + full_scan_prob
        # Shift by the interrupt lag, clamping at the final row.
        shifted = [0.0] * total_rows
        for i, p in enumerate(probs):
            shifted[min(i + interrupt_lag_rows, total_rows - 1)] += p
        return cls(tuple(shifted))

    @classmethod
    def from_rows(cls, rows: Sequence[int], total_rows: int) -> "EspModel":
        """Empirical distribution from per-query rows activated."""
        return cls.from_histogram(
            np.bincount(np.asarray(rows, dtype=np.int64)), total_rows
        )

    @classmethod
    def from_histogram(cls, counts: np.ndarray, total_rows: int) -> "EspModel":
        """Empirical distribution from a rows-activated histogram
        (``counts[r]`` queries activated ``r`` rows; ``r == 0`` means
        filtered at the host and is ignored, ``r > total_rows`` folds
        into ``total_rows``)."""
        counts = np.asarray(counts, dtype=np.int64)
        folded = np.zeros(total_rows, dtype=np.int64)
        np.add.at(
            folded,
            np.minimum(np.arange(1, counts.size), total_rows) - 1,
            counts[1:],
        )
        n = int(folded.sum())
        if not n:
            raise ModelError("no dispatched queries in the trace")
        return cls(tuple(c / n for c in folded.tolist()))

    @classmethod
    def uniform_random(cls, k: int, candidates: int, interrupt_lag_rows: int = 1) -> "EspModel":
        """Analytic max-shared-prefix model for ``candidates`` random refs.

        P(max first-diff bit >= b) = 1 - (1 - 2^-b)^candidates; used by
        sensitivity studies comparing against the Fig-6 calibration.
        """
        total_rows = 2 * k
        probs = [0.0] * total_rows
        prev_cdf = 0.0
        for rows in range(1, total_rows + 1):
            bits = rows
            cdf = (1.0 - 2.0**-bits) ** candidates
            probs[min(rows - 1 + interrupt_lag_rows, total_rows - 1)] += cdf - prev_cdf
            prev_cdf = cdf
        probs[total_rows - 1] += 1.0 - prev_cdf
        return cls(tuple(probs))


# ---------------------------------------------------------------------------
# Workload summary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadStats:
    """Everything the analytic model needs to know about a query trace."""

    name: str
    k: int
    num_kmers: int
    hit_rate: float
    esp: EspModel
    #: Queries answered at the host by the index (range gaps).
    index_filtered_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.num_kmers <= 0:
            raise ModelError("num_kmers must be positive")
        if not 0.0 <= self.hit_rate <= 1.0:
            raise ModelError(f"hit_rate must be in [0, 1], got {self.hit_rate}")
        if not 0.0 <= self.index_filtered_fraction < 1.0:
            raise ModelError("index_filtered_fraction must be in [0, 1)")
        if self.esp.total_rows != 2 * self.k:
            raise ModelError(
                f"ESP support {self.esp.total_rows} != 2k = {2 * self.k}"
            )

    @property
    def dispatched_kmers(self) -> float:
        return self.num_kmers * (1.0 - self.index_filtered_fraction)

    def with_hit_rate(self, hit_rate: float) -> "WorkloadStats":
        """Variant for sensitivity studies (e.g. the adversarial all-hit)."""
        return replace(self, hit_rate=hit_rate)

    @classmethod
    def from_functional(cls, name: str, k: int, stats) -> "WorkloadStats":
        """Summarize a functional run's :class:`DeviceStats`."""
        filtered = stats.queries - int(stats.rows_histogram[1:].sum())
        # Hits include 2 payload-fetch activations; the histogram fold
        # strips them so the ESP distribution covers pattern rows only.
        return cls(
            name=name,
            k=k,
            num_kmers=stats.queries,
            hit_rate=stats.hit_rate,
            esp=EspModel.from_histogram(stats.rows_histogram, 2 * k),
            index_filtered_fraction=filtered / stats.queries if stats.queries else 0.0,
        )


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerfResult:
    """Device-level outcome for one (design, workload) pair."""

    design: str
    workload: str
    time_s: float
    energy_j: float
    breakdown: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput_qps(self) -> float:
        return self.breakdown.get("num_kmers", 0.0) / self.time_s


# ---------------------------------------------------------------------------
# Shared Sieve model machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SieveModelConfig:
    """Device configuration shared by the three Sieve types."""

    geometry: DramGeometry = SIEVE_32GB
    timing: DramTiming = SIEVE_TIMING
    energy: DramEnergy = DDR4_ENERGY
    #: Host pre/post-processing power attributable to Sieve operation
    #: (k-mer generation, driver, DMA, payload accumulation; Section V
    #: pipelines this with matching, so it contributes energy but not
    #: latency).  The host works proportionally to the request rate it
    #: must sustain: a Type-3 device at ~1.6 G requests/s keeps the whole
    #: socket busy, while Type-1's ~30 M requests/s barely loads it.
    host_base_power_w: float = 10.0
    host_power_per_gqps_w: float = 55.0
    #: PCIe/DIMM communication overhead as a latency fraction
    #: (Section VI-C measures 4.6-6.7 % for PCIe 4.0 x16).
    interconnect_overhead: float = 0.055
    #: Load-imbalance factor across banks (1.0 = perfectly uniform).
    load_imbalance: float = 1.0
    #: Bursts to deliver one 12-byte request to a bank buffer.
    request_bursts: int = 2
    #: Bursts to return one hit payload.
    response_bursts: int = 1

    def layout(self, k: int) -> SubarrayLayout:
        return SubarrayLayout(
            k=k,
            row_bits=self.geometry.row_bits,
            rows_per_subarray=self.geometry.rows_per_subarray,
        )


@dataclass(frozen=True)
class QueryCost:
    """Per-query steady-state costs at one bank."""

    matching_ns: float
    io_ns: float
    energy_nj: float

    def bank_time_ns(self, streams: int) -> float:
        """Steady-state time per query at a bank with N matching streams."""
        if streams <= 0:
            raise ModelError("streams must be positive")
        return max(self.matching_ns / streams, self.io_ns)


class SieveModel:
    """Base class: device aggregation shared by all three types."""

    design = "sieve"
    streams_per_bank = 1

    def __init__(self, config: Optional[SieveModelConfig] = None) -> None:
        self.config = config or SieveModelConfig()

    # subclasses implement this
    def query_cost(self, workload: WorkloadStats) -> QueryCost:
        raise NotImplementedError

    def _io_common_ns(self, workload: WorkloadStats) -> float:
        """Request delivery + payload return, per query."""
        cfg = self.config
        t = cfg.request_bursts * cfg.timing.tCCD
        t += workload.hit_rate * cfg.response_bursts * cfg.timing.tCCD
        return t

    def _io_common_nj(self, workload: WorkloadStats) -> float:
        cfg = self.config
        e = cfg.request_bursts * cfg.energy.read_burst_energy_nj(cfg.timing)
        e += (
            workload.hit_rate
            * cfg.response_bursts
            * cfg.energy.read_burst_energy_nj(cfg.timing)
        )
        return e

    def run(self, workload: WorkloadStats) -> PerfResult:
        """Device-level latency and energy for a workload."""
        cfg = self.config
        cost = self.query_cost(workload)
        per_query_bank_ns = cost.bank_time_ns(self.streams_per_bank)
        queries_per_bank = workload.dispatched_kmers / cfg.geometry.total_banks
        busy_ns = per_query_bank_ns * queries_per_bank * cfg.load_imbalance
        total_ns = busy_ns * (1.0 + cfg.interconnect_overhead)
        time_s = total_ns * 1e-9
        # Energy: per-query device energy + device background + host share.
        dynamic_j = cost.energy_nj * workload.dispatched_kmers * 1e-9
        background_w = (
            cfg.energy.background_power_mw()
            * 1e-3
            * (cfg.geometry.capacity_bytes / 2**29)  # per 4Gb (x16) chip
        )
        background_j = background_w * time_s
        qps_g = workload.num_kmers / time_s / 1e9
        host_power_w = cfg.host_base_power_w + cfg.host_power_per_gqps_w * qps_g
        host_j = host_power_w * time_s
        energy_j = dynamic_j + background_j + host_j
        return PerfResult(
            design=self.design,
            workload=workload.name,
            time_s=time_s,
            energy_j=energy_j,
            breakdown={
                "num_kmers": float(workload.num_kmers),
                "per_query_bank_ns": per_query_bank_ns,
                "matching_ns": cost.matching_ns,
                "io_ns": cost.io_ns,
                "per_query_energy_nj": cost.energy_nj,
                "dynamic_j": dynamic_j,
                "background_j": background_j,
                "host_j": host_j,
                "streams_per_bank": float(self.streams_per_bank),
            },
        )

    # -- shared per-row statistics -----------------------------------------

    def mean_pattern_rows(self, workload: WorkloadStats, etm: bool) -> float:
        """Expected Region-1 activations per dispatched query."""
        total = 2.0 * workload.k
        if not etm:
            return total
        miss_rows = workload.esp.mean_rows()
        return workload.hit_rate * total + (1.0 - workload.hit_rate) * miss_rows


# ---------------------------------------------------------------------------
# Type-3
# ---------------------------------------------------------------------------


class Type3Model(SieveModel):
    """Type-3: matchers in every local row buffer, SALP across subarrays."""

    def __init__(
        self,
        config: Optional[SieveModelConfig] = None,
        concurrent_subarrays: int = 8,
        etm_enabled: bool = True,
    ) -> None:
        super().__init__(config)
        if concurrent_subarrays <= 0:
            raise ModelError("concurrent_subarrays must be positive")
        if concurrent_subarrays > self.config.geometry.subarrays_per_bank:
            raise ModelError(
                "concurrent_subarrays exceeds subarrays per bank "
                f"({self.config.geometry.subarrays_per_bank})"
            )
        self.concurrent_subarrays = concurrent_subarrays
        self.etm_enabled = etm_enabled
        self.streams_per_bank = concurrent_subarrays

    @property
    def design(self) -> str:  # type: ignore[override]
        suffix = "" if self.etm_enabled else ".noETM"
        return f"T3.{self.concurrent_subarrays}SA{suffix}"

    @classmethod
    def power_limited(
        cls,
        requested_subarrays: int,
        budget_w: float,
        config: Optional[SieveModelConfig] = None,
        etm_enabled: bool = True,
        theta_ja: float = 0.9,
    ) -> "Type3Model":
        """Type-3 with SALP throttled to the power/thermal envelope.

        The paper's Figure 16 sweep assumes unconstrained delivery;
        deployments must respect their slot (Section VI-C).  This
        constructor clamps the requested SALP degree to what
        ``budget_w`` (and the 85 C DRAM ceiling) can feed.
        """
        from ..hardware.thermal import throttled_streams

        config = config or SieveModelConfig()
        allowed = throttled_streams(
            requested_subarrays,
            budget_w,
            geometry=config.geometry,
            timing=config.timing,
            energy=config.energy,
            theta_ja=theta_ja,
        )
        return cls(config, concurrent_subarrays=allowed, etm_enabled=etm_enabled)

    def query_cost(self, workload: WorkloadStats) -> QueryCost:
        cfg = self.config
        layout = cfg.layout(workload.k)
        timing = cfg.timing
        rows = self.mean_pattern_rows(workload, self.etm_enabled)
        # Hits: ETM pipeline flush (on average half the segments) + 2
        # payload activations; CF itself overlaps with the next query.
        num_segments = -(-layout.row_bits // DEFAULT_SEGMENT_SIZE)
        flush_rows = num_segments / 2.0
        hit_extra_rows = 2.0 + flush_rows
        matching_ns = rows * timing.row_cycle
        matching_ns += workload.hit_rate * hit_extra_rows * timing.row_cycle
        # Bank I/O: query-batch replacement writes + request/response.
        writes_per_query = layout.batch_write_commands / layout.queries_per_group
        io_ns = writes_per_query * timing.tCCD + self._io_common_ns(workload)
        # Energy.
        act_nj = cfg.energy.sieve_activation_energy_nj(timing)
        energy_nj = (rows + workload.hit_rate * hit_extra_rows) * act_nj
        energy_nj += writes_per_query * cfg.energy.write_burst_energy_nj(timing)
        energy_nj += self._io_common_nj(workload)
        return QueryCost(matching_ns, io_ns, energy_nj)


# ---------------------------------------------------------------------------
# Type-2
# ---------------------------------------------------------------------------


class Type2Model(SieveModel):
    """Type-2: compute buffer per subarray group, LISA-style row relay.

    One relay at a time per bank (only two sets of sense amplifiers may
    be enabled simultaneously), so a bank has a single matching stream
    whose per-row cost grows with the hop distance to the group's
    compute buffer.
    """

    streams_per_bank = 1

    def __init__(
        self,
        config: Optional[SieveModelConfig] = None,
        compute_buffers_per_bank: int = 16,
        etm_enabled: bool = True,
    ) -> None:
        super().__init__(config)
        geometry = self.config.geometry
        if compute_buffers_per_bank <= 0:
            raise ModelError("compute_buffers_per_bank must be positive")
        if compute_buffers_per_bank > geometry.subarrays_per_bank:
            raise ModelError(
                "more compute buffers than subarrays per bank "
                f"({geometry.subarrays_per_bank})"
            )
        self.compute_buffers_per_bank = compute_buffers_per_bank
        self.etm_enabled = etm_enabled

    @property
    def design(self) -> str:  # type: ignore[override]
        suffix = "" if self.etm_enabled else ".noETM"
        return f"T2.{self.compute_buffers_per_bank}CB{suffix}"

    @property
    def subarrays_per_group(self) -> int:
        return -(-self.config.geometry.subarrays_per_bank // self.compute_buffers_per_bank)

    @property
    def mean_hops(self) -> float:
        """Average subarray crossings for a row to reach its group's CB."""
        return (self.subarrays_per_group + 1) / 2.0

    def query_cost(self, workload: WorkloadStats) -> QueryCost:
        cfg = self.config
        layout = cfg.layout(workload.k)
        timing = cfg.timing
        hop_ns = hop_delay_ns(timing.tRAS)
        rows = self.mean_pattern_rows(workload, self.etm_enabled)
        per_row_ns = timing.row_cycle + self.mean_hops * hop_ns
        num_segments = -(-layout.row_bits // DEFAULT_SEGMENT_SIZE)
        hit_extra_rows = 2.0 + num_segments / 2.0
        matching_ns = rows * per_row_ns
        matching_ns += workload.hit_rate * hit_extra_rows * timing.row_cycle
        writes_per_query = layout.batch_write_commands / layout.queries_per_group
        io_ns = writes_per_query * timing.tCCD + self._io_common_ns(workload)
        # Energy: base activation + relay sense-amp chains per hop.  The
        # relay settles ~8x faster than a full activation (SPICE), but it
        # still drives the neighbour's bitlines rail-to-rail, so each hop
        # costs about half an activation — this is why the paper finds
        # "Type-2 with sparse compute buffers less energy efficient".
        act_nj = cfg.energy.sieve_activation_energy_nj(timing)
        relay_nj = cfg.energy.activation_energy_nj(timing) / 2.0  # per hop
        energy_nj = rows * (act_nj + self.mean_hops * relay_nj)
        energy_nj += workload.hit_rate * hit_extra_rows * act_nj
        energy_nj += writes_per_query * cfg.energy.write_burst_energy_nj(timing)
        energy_nj += self._io_common_nj(workload)
        return QueryCost(matching_ns, io_ns, energy_nj)


# ---------------------------------------------------------------------------
# Type-1
# ---------------------------------------------------------------------------


class Type1Model(SieveModel):
    """Type-1: matching at the chip I/O, one stream per bank.

    Every activated row is streamed batch-by-batch (64 bits per burst)
    into the Matcher Array; the Skip-Bits Register prunes batches whose
    candidates have all died, and the Start-Batch Register skips the
    scan over leading dead batches.  Type-1 rows hold references only
    (queries live in the Query Register), so all 8192 columns are
    candidates.
    """

    streams_per_bank = 1

    #: Batch reads travel bank->center strip only (no off-chip DQ
    #: drivers/ODT), so they cost a fraction of a datasheet IDD4R burst.
    INTERNAL_BURST_ENERGY_FACTOR = 0.5

    def __init__(
        self,
        config: Optional[SieveModelConfig] = None,
        etm_enabled: bool = True,
    ) -> None:
        super().__init__(config)
        self.etm_enabled = etm_enabled

    @property
    def design(self) -> str:  # type: ignore[override]
        suffix = "" if self.etm_enabled else ".noETM"
        return f"T1{suffix}"

    def live_batches_by_row(self, workload: WorkloadStats) -> List[float]:
        """Expected live batches at each pattern row.

        Candidates surviving ``b`` compared bits ~ refs x 2^-b (random
        bit agreement); a batch stays live while it holds >= 1 live
        candidate.
        """
        geometry = self.config.geometry
        num_batches = geometry.batches_per_row
        refs_per_row = float(geometry.row_bits)
        live = []
        for b in range(2 * workload.k):
            candidates = refs_per_row * 2.0**-b
            expected = num_batches * (1.0 - (1.0 - 1.0 / num_batches) ** candidates)
            live.append(min(num_batches, max(expected, 0.0)))
        return live

    def query_cost(self, workload: WorkloadStats) -> QueryCost:
        cfg = self.config
        timing = cfg.timing
        total_rows = 2 * workload.k
        live = self.live_batches_by_row(workload)
        if self.etm_enabled:
            # Termination row distribution from the ESP model.
            probs = workload.esp.probabilities
        else:
            probs = tuple([0.0] * (total_rows - 1) + [1.0])
        # Expected rows and batch reads for a miss.
        miss_rows = sum((i + 1) * p for i, p in enumerate(probs))
        miss_batches = 0.0
        for term_row, p in enumerate(probs, start=1):
            miss_batches += p * sum(live[:term_row])
        hit_rows = float(total_rows)
        hit_batches = sum(live)
        hr = workload.hit_rate
        rows = hr * hit_rows + (1 - hr) * miss_rows
        batches = hr * hit_batches + (1 - hr) * miss_batches
        # Per row: activation; per live batch: one burst + matcher/SRAM
        # access (overlapped with the burst, Section VI-A).
        matching_ns = rows * timing.row_cycle + batches * timing.tCCD
        # Hits: offset + payload fetch (two activations + two bursts).
        matching_ns += hr * (2 * timing.row_cycle + 2 * timing.tCCD)
        io_ns = self._io_common_ns(workload)
        act_nj = cfg.energy.activation_energy_nj(timing)  # no matcher rows
        burst_nj = (
            self.INTERNAL_BURST_ENERGY_FACTOR
            * cfg.energy.read_burst_energy_nj(timing)
        )
        energy_nj = rows * act_nj
        energy_nj += batches * burst_nj
        energy_nj += hr * (2 * act_nj + 2 * burst_nj)
        energy_nj += self._io_common_nj(workload)
        return QueryCost(matching_ns, io_ns, energy_nj)
