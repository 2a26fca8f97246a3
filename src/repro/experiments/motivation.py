"""Motivation/methodology experiment runners (Figures 1 and 6,
Tables I-III, and the Section VI-A area numbers)."""

from __future__ import annotations

from dataclasses import asdict
from typing import Optional

import numpy as np

from ..analysis.breakdown import breakdown_for_workload
from ..analysis.esp import EspSummary, termination_from_device
from ..baselines.machines import TITAN_X_PASCAL, XEON_E5_2658V4
from ..genomics.synthetic import build_dataset
from ..hardware.area import DEFAULT_AREA_MODEL, PAPER_OVERHEADS
from ..hardware.components import table_iii_rows
from ..sieve.device import SieveDevice
from ..sieve.layout import SubarrayLayout
from .results import FigureResult
from .workloads import PAPER_K, table_ii_rows


def fig01_breakdown(num_kmers: int = 10_000_000) -> FigureResult:
    """Figure 1: execution-time breakdown of six bioinformatics tools."""
    result = FigureResult(
        figure="Figure 1",
        title="Execution-time breakdown (k-mer matching dominates)",
        headers=["tool", "total_s", "kmer_matching_pct", "largest_other_stage"],
    )
    for row in breakdown_for_workload(num_kmers):
        others = {
            stage: s
            for stage, s in row.stage_seconds.items()
            if stage != "K-mer Matching"
        }
        biggest = max(others.items(), key=lambda item: item[1])
        result.rows.append(
            [
                row.tool,
                row.total_s,
                row.kmer_fraction * 100.0,
                f"{biggest[0]} ({biggest[1] / row.total_s:.0%})",
            ]
        )
    result.notes = (
        "stage proportions digitized from paper Figure 1; absolute times "
        "from the mechanistic CPU lookup model."
    )
    return result


#: Functional-measurement scale for Figure 6 (kept modest: the
#: bit-accurate simulator runs every DRAM row activation in Python).
#: Mostly-novel reads with simBA-5-class errors reproduce the paper's
#: metagenomic sample statistics (~1 % hit rate).
FIG6_DEFAULTS = dict(
    k=PAPER_K,
    num_species=6,
    genome_length=1500,
    num_reads=60,
    read_length=100,
    error_rate=0.05,
    novel_fraction=0.9,
    seed=2021,
)


def measure_fig6(
    max_queries: int = 400, seed: Optional[int] = None
) -> EspSummary:
    """Measure ETM termination on the bit-accurate functional device.

    Builds a synthetic dataset, loads it into the simulator, and replays
    query k-mers, recording how many bits ETM compared before
    terminating each one (the max shared prefix over all candidates in
    the routed subarray).
    """
    params = dict(FIG6_DEFAULTS)
    if seed is not None:
        params["seed"] = seed
    dataset = build_dataset(**params)
    layout = SubarrayLayout(
        k=dataset.k, row_bits=1152, rows_per_subarray=256, layers=1
    )
    device = SieveDevice.from_database(dataset.database, layout=layout)
    queries = [kmer for _, kmer in dataset.query_kmers()][:max_queries]
    return termination_from_device(device, queries, dataset.k)


def measure_fig6_pairwise(max_queries: int = 4000, seed: Optional[int] = None):
    """The paper's Figure-6 histogram proper: per *comparison* first
    mismatch between a query and a reference k-mer.

    This is the statistic whose 96.9 %-within-5-bases / 0.17 %-full-scan
    anchors the paper publishes; see :func:`fig06_esp`'s notes for how it
    relates to the (longer) max-over-candidates termination the device
    actually observes.
    """
    from ..analysis.esp import routed_pairwise_first_mismatch

    params = dict(FIG6_DEFAULTS)
    if seed is not None:
        params["seed"] = seed
    dataset = build_dataset(**params)
    refs = dataset.database.sorted_kmers()
    queries = [kmer for _, kmer in dataset.query_kmers()]
    rng = np.random.default_rng(params["seed"])
    layout = SubarrayLayout(
        k=dataset.k, row_bits=1152, rows_per_subarray=256, layers=1
    )
    samples_per_query = max(1, max_queries // max(len(queries), 1) + 1)
    return routed_pairwise_first_mismatch(
        queries,
        refs,
        dataset.k,
        refs_per_subarray=layout.refs_per_layer,
        rng=rng,
        samples_per_query=samples_per_query,
    )


def fig06_esp(max_queries: int = 400) -> FigureResult:
    """Figure 6: first-mismatch characterization (functional measurement)."""
    pairwise = measure_fig6_pairwise()
    termination = measure_fig6(max_queries)
    hist = pairwise.histogram
    result = FigureResult(
        figure="Figure 6",
        title="First-mismatch bits between query and reference k-mers",
        headers=["bits", "comparisons", "fraction"],
    )
    shown = 0
    for bits in sorted(hist):
        if bits <= 14 or bits >= 2 * pairwise.k:
            result.rows.append([bits, hist[bits], hist[bits] / pairwise.samples])
            shown += hist[bits]
    result.notes = (
        f"pairwise (the paper's metric): {pairwise.within_five_bases:.1%} of "
        f"comparisons resolve within 5 bases (paper: 96.9 %), "
        f"{pairwise.full_scan_fraction:.2%} identical (paper: 0.17 %). "
        f"Device-level ETM termination — the max over all candidates in the "
        f"routed subarray, measured bit-accurately — averages "
        f"{termination.mean_bits:.1f} bits: sorted routing places queries "
        f"next to their longest-shared-prefix neighbours, which the "
        f"analytic model captures as an effective candidate count "
        f"(see EXPERIMENTS.md)."
    )
    return result


def tab01_machines() -> FigureResult:
    """Table I: baseline workstation configuration."""
    result = FigureResult(
        figure="Table I",
        title="Workstation configuration",
        headers=["field", "value"],
    )
    for key, value in asdict(XEON_E5_2658V4).items():
        result.rows.append([f"cpu.{key}", value])
    for key, value in asdict(TITAN_X_PASCAL).items():
        result.rows.append([f"gpu.{key}", value])
    return result


def tab02_queries() -> FigureResult:
    """Table II: query sequence summary (k-mer counts recomputed)."""
    result = FigureResult(
        figure="Table II",
        title="Query sequence summary",
        headers=["query_file", "sequences", "seq_length", "kmers"],
    )
    for row in table_ii_rows():
        result.rows.append(
            [row["query_file"], row["sequences"], row["seq_length"], row["kmers"]]
        )
    result.notes = (
        "k-mer counts computed as sequences x (length - k + 1); the "
        "paper's HiSeq rows are internally inconsistent and corrected here."
    )
    return result


def tab03_components() -> FigureResult:
    """Table III: per-component energy / static power / latency."""
    result = FigureResult(
        figure="Table III",
        title="Sieve component energy and latency",
        headers=["component", "dynamic_energy_pj", "static_power_uw", "latency_ns"],
    )
    for spec in table_iii_rows():
        result.rows.append(
            [spec.name, spec.dynamic_energy_pj, spec.static_power_uw, spec.latency_ns]
        )
    result.notes = "published FreePDK45->22 nm values (see repro.hardware)."
    return result


def area_overheads() -> FigureResult:
    """Section VI-A: area overheads of every design point."""
    model = DEFAULT_AREA_MODEL
    result = FigureResult(
        figure="Section VI-A",
        title="Area overheads (model vs. paper)",
        headers=["design", "model_pct", "paper_pct"],
    )
    rows = [
        ("Type-2, 1 CB", model.type2_overhead(1), PAPER_OVERHEADS["type2_1cb"]),
        ("Type-2, 64 CB", model.type2_overhead(64), PAPER_OVERHEADS["type2_64cb"]),
        ("Type-2, 128 CB", model.type2_overhead(128), PAPER_OVERHEADS["type2_128cb"]),
        ("Type-3", model.type3_overhead(), PAPER_OVERHEADS["type3"]),
        (
            "Type-1 (SRAM + matcher)",
            model.type1_overhead(),
            PAPER_OVERHEADS["type1_sram"] + PAPER_OVERHEADS["type1_matcher"],
        ),
    ]
    for name, mine, paper in rows:
        result.rows.append([name, mine * 100.0, paper * 100.0])
    return result
