"""Additional sensitivity studies the paper's claims imply.

The paper asserts (without dedicated figures) that Sieve's advantage is
robust to the k-mer length, that hit-heavy workloads degrade gracefully
(the C.MT.BG discussion), and that "the processing power of Sieve scales
linearly with respect to its storage capacity" all the way to 500 GB
devices with a sub-2 MB index.  These runners quantify each claim.

Every sweep point dispatches through the fleet
(:func:`~repro.experiments.workloads.perf_point`), so sweeps parallelize across
worker processes with byte-identical output at any ``--jobs`` count.
"""

from __future__ import annotations

from functools import partial
from typing import List

from ..dram.geometry import DramGeometry
from ..fleet.core import run_jobs
from ..sieve.index import INDEX_ENTRY_BYTES
from .results import FigureResult
from .workloads import paper_benchmarks, perf_point


def sensitivity_k(kmer_lengths=(21, 25, 31)) -> FigureResult:
    """Speedup vs. k: longer k-mers mean more pattern rows per query for
    Sieve but also more work per lookup for the CPU."""
    base = paper_benchmarks()[-1]
    result = FigureResult(
        figure="Sensitivity S1",
        title="k-mer length sweep (Type-3, 8 SA vs. CPU)",
        headers=["k", "pattern_rows", "t3_ns_per_kmer", "speedup_vs_cpu"],
    )
    jobs: List[partial] = []
    for k in kmer_lengths:
        jobs.append(partial(perf_point, "T3", base.name, units=8, k=k))
        jobs.append(partial(perf_point, "CPU", base.name, k=k))
    payloads = iter(run_jobs(jobs))
    for k in kmer_lengths:
        res = next(payloads)
        cpu_res = next(payloads)
        num_kmers = base.profile.kmer_count(k)
        result.rows.append(
            [
                k,
                2 * k,
                res["time_s"] * 1e9 / num_kmers,
                cpu_res["time_s"] / res["time_s"],
            ]
        )
    result.notes = (
        "Sieve's per-query work grows with 2k rows while the CPU's "
        "per-lookup cost is k-independent (hash/search dominated), so the "
        "speedup shrinks mildly with k but stays in the hundreds."
    )
    return result


def sensitivity_hit_rate(
    hit_rates=(0.001, 0.01, 0.0328, 0.1, 0.3, 1.0)
) -> FigureResult:
    """Hit-rate sweep: the generalized C.MT.BG effect."""
    base = paper_benchmarks()[-1]
    result = FigureResult(
        figure="Sensitivity S2",
        title="k-mer hit-rate sweep (32 GB devices vs. CPU)",
        headers=["hit_rate", "t2_16cb_speedup", "t3_8sa_speedup"],
    )
    jobs: List[partial] = []
    for rate in hit_rates:
        jobs.append(partial(perf_point, "CPU", base.name, hit_rate=rate))
        jobs.append(
            partial(perf_point, "T2", base.name, units=16, hit_rate=rate)
        )
        jobs.append(
            partial(perf_point, "T3", base.name, units=8, hit_rate=rate)
        )
    payloads = iter(run_jobs(jobs))
    for rate in hit_rates:
        cpu_time = next(payloads)["time_s"]
        t2_res = next(payloads)
        t3_res = next(payloads)
        result.rows.append(
            [
                rate,
                cpu_time / t2_res["time_s"],
                cpu_time / t3_res["time_s"],
            ]
        )
    result.notes = (
        "hits defeat early termination (all 2k rows activate), so speedup "
        "decays with hit rate — gracefully: even at 100 % hits Sieve wins."
    )
    return result


def sensitivity_capacity(
    capacities_gib=(32, 64, 128, 256, 512)
) -> FigureResult:
    """Capacity scaling to the paper's 500 GB point, with index size."""
    base = paper_benchmarks()[-1]
    base_wl = base.workload()
    result = FigureResult(
        figure="Sensitivity S3",
        title="Storage-capacity scaling (Type-3, 8 SA)",
        headers=[
            "capacity_gib",
            "banks",
            "time_ms",
            "Gqps",
            "index_mb",
        ],
    )
    jobs = [
        partial(perf_point, "T3", base.name, units=8, capacity_gib=float(gib))
        for gib in capacities_gib
    ]
    payloads = run_jobs(jobs)
    for gib, res in zip(capacities_gib, payloads):
        geometry = DramGeometry.for_capacity(float(gib))
        index_mb = geometry.total_subarrays * INDEX_ENTRY_BYTES / 2**20
        result.rows.append(
            [
                gib,
                geometry.total_banks,
                res["time_s"] * 1e3,
                base_wl.num_kmers / res["time_s"] / 1e9,
                index_mb,
            ]
        )
    result.notes = (
        "throughput scales linearly with capacity (more banks).  The "
        "subarray-granular index grows linearly too: ~6 MB at 512 GB vs "
        "the paper's '<2 MB at 500 GB' claim — honoring that claim "
        "requires coarser (multi-subarray) index entries resolved by "
        "controller-side range tables, the same mechanism our layers "
        "already use (EXPERIMENTS.md deviation #5).  Either way the table "
        "is trivially host-resident."
    )
    return result
