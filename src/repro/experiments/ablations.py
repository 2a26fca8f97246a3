"""Ablation studies for the reproduction's own design choices.

Beyond the paper's figures, DESIGN.md commits to ablations for the
modelling decisions this reproduction makes:

* the analytic steady-state rule vs. an event-driven pipeline,
* the ETM termination-distribution choice (paper-calibrated vs.
  analytic max-of-random vs. functionally measured),
* power-delivery / thermal envelopes vs. the SALP sweep,
* the DRAM technology choice (the paper's named future work).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..fleet.core import run_jobs
from ..hardware.thermal import (
    DRAM_TEMP_LIMIT_C,
    max_concurrent_per_bank,
    power_budget_report,
)
from ..interconnect.dimm import DimmEnvelope
from ..sieve.controller import validate_steady_state
from ..sieve.device_sim import DeviceSimConfig, simulate_device
from ..sieve.extensions import technology_comparison
from ..sieve.layout import SubarrayLayout
from ..sieve.perfmodel import EspModel, Type3Model, WorkloadStats
from ..sieve.type1 import Type1BankSim, Type1Layout
from .results import FigureResult
from .workloads import PAPER_K, paper_benchmarks, perf_point

#: Requests per stream count of the steady-state pipeline (A1).
STEADY_STATE_REQUESTS = 4000


def steady_state_point(streams: int) -> Dict[str, float]:
    """One row of Ablation A1: event-driven pipeline vs. closed form."""
    report = validate_steady_state(
        paper_benchmarks()[-1].workload(),
        SubarrayLayout(k=PAPER_K),
        streams=streams,
        num_requests=STEADY_STATE_REQUESTS,
    )
    return {key: float(value) for key, value in report.items()}


def esp_point(probabilities: Tuple[float, ...]) -> Dict[str, float]:
    """One candidate ETM termination distribution (Ablation A2)."""
    base = paper_benchmarks()[-1].workload()
    esp = EspModel(tuple(probabilities))
    workload = WorkloadStats(
        name=base.name, k=base.k, num_kmers=base.num_kmers,
        hit_rate=base.hit_rate, esp=esp,
    )
    result = Type3Model(concurrent_subarrays=8).run(workload)
    return {"mean_rows": esp.mean_rows(), "time_s": result.time_s}


def device_sim_point(banks: int, num_requests: int) -> Dict[str, Any]:
    """One bank count of Ablation A6: whole-device event simulation."""
    sim = simulate_device(
        paper_benchmarks()[-1].workload(),
        num_requests=num_requests,
        config=DeviceSimConfig(banks=banks),
    )
    return {
        "overhead_fraction": sim.overhead_fraction,
        "load_imbalance": sim.load_imbalance,
        "packets": sim.packets,
        "makespan_ns": sim.makespan_ns,
    }


def ablation_steady_state() -> FigureResult:
    """Event-driven bank pipeline vs. the analytic closed form."""
    result = FigureResult(
        figure="Ablation A1",
        title="Event-driven pipeline vs. analytic steady state (per-bank)",
        headers=[
            "streams",
            "event_ns_per_query",
            "analytic_ns_per_query",
            "ratio",
            "io_utilization",
            "stream_utilization",
        ],
    )
    stream_counts = (1, 2, 4, 8, 16, 32)
    payloads = run_jobs([partial(steady_state_point, s) for s in stream_counts])
    for streams, report in zip(stream_counts, payloads):
        result.rows.append(
            [
                streams,
                report["event_ns_per_query"],
                report["analytic_ns_per_query"],
                report["ratio"],
                report["io_utilization"],
                report["stream_utilization"],
            ]
        )
    result.notes = (
        "the closed form max(matching/streams, io) used by every figure "
        "tracks the discrete-event pipeline within ~5 % in both regimes, "
        "including the crossover that produces the Figure-16 plateau."
    )
    return result


def ablation_esp_model(measured: Optional[EspModel] = None) -> FigureResult:
    """How the ETM termination-distribution choice moves the headline."""
    candidates = [
        ("paper Fig-6 calibration", EspModel.paper_fig6(PAPER_K)),
        ("max over 32 random candidates", EspModel.uniform_random(PAPER_K, 32)),
        ("max over 7168 random candidates", EspModel.uniform_random(PAPER_K, 7168)),
    ]
    if measured is not None:
        candidates.append(("functionally measured", measured))
    result = FigureResult(
        figure="Ablation A2",
        title="ETM termination distribution vs. Type-3 outcome",
        headers=[
            "esp_model",
            "mean_rows_per_miss",
            "t3_time_ms",
            "etm_gain_vs_noETM",
        ],
    )
    jobs: List[partial] = [
        partial(
            perf_point, "T3", paper_benchmarks()[-1].name, units=8,
            etm_enabled=False,
        )
    ]
    jobs += [
        partial(esp_point, tuple(esp.probabilities)) for _, esp in candidates
    ]
    payloads = run_jobs(jobs)
    no_etm_time_s = payloads[0]["time_s"]
    for (name, esp), payload in zip(candidates, payloads[1:]):
        result.rows.append(
            [
                name,
                payload["mean_rows"],
                payload["time_s"] * 1e3,
                no_etm_time_s / payload["time_s"],
            ]
        )
    result.notes = (
        "the paper's 5.2-7.2x ETM benefit requires the Fig-6-calibrated "
        "distribution (effective ~32 independent candidates); assuming all "
        "7k subarray candidates are independent still leaves a >3x gain."
    )
    return result


def ablation_power_envelope() -> FigureResult:
    """Power delivery / thermal ceilings vs. the SALP design space."""
    result = FigureResult(
        figure="Ablation A3",
        title="Power-delivery and thermal ceilings on concurrent subarrays",
        headers=[
            "envelope",
            "budget_w",
            "max_SA_per_bank",
            "power_at_8SA_w",
            "temp_at_8SA_C",
        ],
    )
    report8 = power_budget_report(8, budget_w=75.0)
    envelopes = [
        ("DDR4 DIMM slot", DimmEnvelope(32).power_budget_w, 1.8),
        ("PCIe x16 slot", 75.0, 0.9),
        ("PCIe + 8-pin aux", 150.0, 0.9),
    ]
    for name, budget, theta in envelopes:
        ceiling = max_concurrent_per_bank(budget, theta_ja=theta)
        result.rows.append(
            [
                name,
                budget,
                ceiling,
                report8.total_power_w,
                report8.steady_state_temp_c,
            ]
        )
    result.notes = (
        f"the paper's Type-3 choice of 8 concurrent subarrays fits the PCIe "
        f"envelope with margin (temp limit {DRAM_TEMP_LIMIT_C} C); running "
        "all 128 concurrently is infeasible — the paper's own Section VI-C "
        "caveat, quantified."
    )
    return result


def ablation_technology() -> FigureResult:
    """The paper's future work: Sieve on 3D-stacked HBM and on NVM."""
    workload = paper_benchmarks()[-1].workload()
    result = FigureResult(
        figure="Ablation A4",
        title="Sieve Type-3 across memory technologies",
        headers=[
            "technology",
            "capacity_gib",
            "banks",
            "time_ms",
            "Mqps_per_gib",
            "energy_j",
        ],
    )
    for variant in technology_comparison(workload):
        result.rows.append(
            [
                variant.name,
                variant.capacity_gib,
                variant.total_banks,
                variant.result.time_s * 1e3,
                variant.qps_per_gib / 1e6,
                variant.result.energy_j,
            ]
        )
    result.notes = (
        "3D stacking multiplies banks per GB (throughput), NVM multiplies "
        "capacity and removes refresh/standby; both port the column-wise "
        "layout + ETM unchanged — supporting the paper's future-work claims."
    )
    return result


def ablation_segment_size() -> FigureResult:
    """ETM segment-size design study (the paper fixes 256).

    A segment must OR its latches within one DRAM row cycle (Table III
    measures 43.65 ns for 256 — just inside ~50 ns), while the segment
    count sets the worst-case SR flush and the Column Finder's BSR scan.
    """
    from ..hardware.components import TABLE_III
    from ..sieve.column_finder import ColumnFinder
    from ..sieve.etm import EtmPipeline

    row_bits = 8192
    row_cycle_ns = 50.0
    # Anchor on the paper's synthesized measurement (43.653 ns for 256
    # latches): the serial OR chain in a DRAM process is wire-dominated,
    # ~10x slower than a logic-process gate estimate, and scales
    # linearly with segment length.
    ns_per_latch = TABLE_III["t23_etm_segment"].latency_ns / 256.0
    result = FigureResult(
        figure="Ablation A7",
        title="ETM segment-size design space (8192-bit row buffer)",
        headers=[
            "segment_size",
            "segments",
            "segment_or_ns",
            "fits_row_cycle",
            "worst_flush_cycles",
            "cf_worst_cycles",
        ],
    )
    for size in (64, 128, 256, 512, 1024):
        etm = EtmPipeline(row_bits, size)
        cf = ColumnFinder(etm)
        or_ns = ns_per_latch * size
        result.rows.append(
            [
                size,
                etm.num_segments,
                or_ns,
                or_ns < row_cycle_ns,
                etm.num_segments,  # worst SR drain
                cf.worst_case_cycles(),
            ]
        )
    result.notes = (
        "256 latches/segment is the largest size whose OR settles within "
        "one row cycle while minimizing segment count (flush + BSR scan) "
        "— exactly the paper's choice."
    )
    return result


def ablation_device_sim(num_requests: int = 20_000) -> FigureResult:
    """Whole-device event simulation: PCIe packets -> banks -> RRQ."""
    result = FigureResult(
        figure="Ablation A6",
        title="Device-level event simulation (packets, queues, banks)",
        headers=[
            "banks",
            "overhead_pct_over_ideal",
            "load_imbalance",
            "packets",
            "makespan_us",
        ],
    )
    bank_counts = (4, 8, 16)
    payloads = run_jobs(
        [partial(device_sim_point, b, num_requests) for b in bank_counts]
    )
    for banks, sim in zip(bank_counts, payloads):
        result.rows.append(
            [
                banks,
                sim["overhead_fraction"] * 100.0,
                sim["load_imbalance"],
                sim["packets"],
                sim["makespan_ns"] / 1e3,
            ]
        )
    result.notes = (
        "transfer/queueing overhead over zero-latency dispatch is ~1-3 %; "
        "adding the fixed driver/DMA overhead of repro.interconnect.pcie "
        "lands inside the paper's 4.6-6.7 % band; banks stay balanced "
        "(uniform sorted-index routing)."
    )
    return result


def ablation_type1_functional(queries: int = 120) -> FigureResult:
    """Cross-check the analytic Type-1 model's batch-pruning behaviour
    against the bit-accurate Type-1 bank simulator.

    The internal seed (23) is part of the published golden numbers, so
    it stays fixed.
    """
    rng = np.random.default_rng(23)
    k = 8
    layout = Type1Layout(k=k, row_bits=128, rows=128)
    kmers = sorted(int(x) for x in rng.choice(4**k, size=110, replace=False))
    sim = Type1BankSim(layout, [(kmer, 900 + i) for i, kmer in enumerate(kmers)])
    rows_list, batches_list, hits = [], [], 0
    for _ in range(queries):
        outcome = sim.match(int(rng.integers(0, 4**k)))
        rows_list.append(outcome.rows_activated)
        batches_list.append(outcome.batch_reads)
        hits += outcome.hit
    mean_batch_reads = float(np.mean(batches_list))
    full_batches = layout.kmer_rows * layout.num_batches
    result = FigureResult(
        figure="Ablation A5",
        title="Type-1 functional counters (SkBR/StBR pruning)",
        headers=["quantity", "value"],
        rows=[
            ["queries", queries],
            ["hit rate", hits / queries],
            ["mean rows activated", float(np.mean(rows_list))],
            ["max rows (2k + payload)", layout.kmer_rows + 2],
            ["mean batch reads", mean_batch_reads],
            ["batch reads without SkBR", full_batches],
            ["SkBR pruning factor", full_batches / mean_batch_reads],
        ],
    )
    result.notes = (
        "the Skip-Bits Register eliminates most burst reads, the effect the "
        "analytic Type-1 model charges via its live-batch decay curve."
    )
    return result
