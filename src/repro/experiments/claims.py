"""The claims ledger: every checkable paper claim, evaluated in one pass.

Each entry states the claim as the paper makes it, the band we accept
(paper numbers with the tolerance DESIGN.md argues for), the measured
value from this repository's models, and a verdict.  The benchmark
suite asserts the ledger is all-green; the CLI prints it
(``sieve-repro claims``).

All model evaluations the ledger needs are dispatched as one
:func:`~repro.experiments.workloads.perf_point` batch through the fleet
(:mod:`repro.fleet`), so the ledger parallelizes across worker
processes; the claim formulas then read from the result table in the
same order the sequential implementation used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List

from ..baselines.mlp import ideal_machine_analysis
from ..fleet.core import run_jobs
from ..hardware.area import DEFAULT_AREA_MODEL
from ..hardware.circuits import all_feasibility_reports
from ..hardware.thermal import max_concurrent_per_bank
from ..interconnect.pcie import PCIE4_X16, PcieModel
from .results import FigureResult, geomean
from .workloads import paper_benchmarks, perf_point


@dataclass(frozen=True)
class Claim:
    """One checkable claim."""

    claim_id: str
    statement: str
    paper_value: str
    low: float
    high: float
    measure: Callable[["_Context"], float]


#: SALP degrees the plateau search (C10) probes beyond the T3.1/T3.8
#: evaluations the ledger already has on every benchmark.
_PLATEAU_DEGREES = (2, 4, 8, 16, 32, 64, 128)

#: Ledger-wide design points, evaluated on every paper benchmark.
_DESIGN_SPECS: List[tuple] = [
    ("CPU", {"design": "CPU"}),
    ("T1", {"design": "T1"}),
    ("T2.1", {"design": "T2", "units": 1}),
    ("T2.16", {"design": "T2", "units": 16}),
    ("T2.128", {"design": "T2", "units": 128}),
    ("T3.1", {"design": "T3", "units": 1}),
    ("T3.8", {"design": "T3", "units": 8}),
    ("T3.8.noetm", {"design": "T3", "units": 8, "etm_enabled": False}),
    ("ROW.8", {"design": "ROW_MAJOR", "units": 8}),
    ("CD.8", {"design": "COMPUTE_DRAM", "units": 8}),
]


class _Context:
    """Shared expensive computations for the ledger (fleet-dispatched)."""

    def __init__(self) -> None:
        benches = paper_benchmarks()
        self.workloads = [b.workload() for b in benches]
        jobs: List[partial] = []
        index: List[tuple] = []
        for key, spec in _DESIGN_SPECS:
            for bench in benches:
                jobs.append(partial(perf_point, benchmark=bench.name, **spec))
                index.append((key, bench.name))
        for bench in benches:
            if bench.name.startswith("C."):
                jobs.append(partial(perf_point, "GPU", bench.name))
                index.append(("GPU", bench.name))
        last = benches[-1]
        for sa in _PLATEAU_DEGREES:
            jobs.append(partial(perf_point, "T3", last.name, units=sa))
            index.append((f"T3.sa{sa}", last.name))
        payloads = run_jobs(jobs)
        self.results: Dict[str, Dict[str, dict]] = {}
        for (key, name), payload in zip(index, payloads):
            self.results.setdefault(key, {})[name] = payload

    def time_s(self, design: str, name: str) -> float:
        return self.results[design][name]["time_s"]

    def energy_j(self, design: str, name: str) -> float:
        return self.results[design][name]["energy_j"]

    def speedups(self, design: str) -> List[float]:
        return [
            self.time_s("CPU", w.name) / self.time_s(design, w.name)
            for w in self.workloads
        ]

    def energy_savings(self, design: str) -> List[float]:
        return [
            self.energy_j("CPU", w.name) / self.energy_j(design, w.name)
            for w in self.workloads
        ]


def _claims() -> List[Claim]:
    return [
        Claim(
            "C1", "Type-1 speedup over CPU", "1.01x-3.8x",
            1.0, 4.2,
            lambda c: geomean(c.speedups("T1")),
        ),
        Claim(
            "C2", "Type-2 family speedup over CPU (16 CB midpoint)",
            "3.74x-76.6x", 3.74, 76.6,
            lambda c: geomean(c.speedups("T2.16")),
        ),
        Claim(
            "C3", "Type-3 average speedup over CPU",
            "210x (intro) / 326x (abstract)", 150.0, 400.0,
            lambda c: geomean(c.speedups("T3.8")),
        ),
        Claim(
            "C4", "Type-3 energy saving over CPU",
            "35x-94x across the paper's figures", 35.0, 120.0,
            lambda c: geomean(c.energy_savings("T3.8")),
        ),
        Claim(
            "C5", "Type-1 vs GPU (slower but wins energy)",
            "3x-5x slower", 0.15, 0.7,
            lambda c: geomean(
                [
                    c.time_s("GPU", w.name) / c.time_s("T1", w.name)
                    for w in c.workloads
                    if w.name.startswith("C.")
                ]
            ),
        ),
        Claim(
            "C6", "Type-3 vs GPU speedup", "33x-55x", 15.0, 60.0,
            lambda c: geomean(
                [
                    c.time_s("GPU", w.name) / c.time_s("T3.8", w.name)
                    for w in c.workloads
                    if w.name.startswith("C.")
                ]
            ),
        ),
        Claim(
            "C7", "ETM contribution over col-major without ETM",
            "5.2x-7.2x", 4.0, 8.0,
            lambda c: geomean(
                [
                    c.time_s("T3.8.noetm", w.name) / c.time_s("T3.8", w.name)
                    for w in c.workloads
                ]
            ),
        ),
        Claim(
            "C8", "T2.1CB faster than T1", "1.39x-1.94x", 1.3, 2.1,
            lambda c: geomean(c.speedups("T2.1"))
            / geomean(c.speedups("T1")),
        ),
        Claim(
            "C9", "T3.1SA over T2.128CB (slight)", "~1x (slight trail)",
            1.0, 1.3,
            lambda c: geomean(c.speedups("T3.1"))
            / geomean(c.speedups("T2.128")),
        ),
        Claim(
            "C10", "SALP plateau point", "plateaus after 8 subarrays",
            5.0, 12.0,
            lambda c: _plateau_point(c),
        ),
        Claim(
            "C11", "Type-3 area overhead", "10.90 %", 0.10, 0.12,
            lambda c: DEFAULT_AREA_MODEL.type3_overhead(),
        ),
        Claim(
            "C12", "Type-2 128 CB area overhead", "10.75 %", 0.095, 0.115,
            lambda c: DEFAULT_AREA_MODEL.type2_overhead(128),
        ),
        Claim(
            "C13", "PCIe overhead at Type-3 rates", "4.6 %-6.7 %",
            0.045, 0.068,
            lambda c: PcieModel(PCIE4_X16).overhead_fraction(
                c.workloads[-1].num_kmers
                / c.time_s("T3.8", c.workloads[-1].name)
            ),
        ),
        Claim(
            "C14", "Ideal-machine cores to match Type-3", "over 215",
            215.0, float("inf"),
            lambda c: ideal_machine_analysis(
                c.workloads[-1].num_kmers
                / c.time_s("T3.8", c.workloads[-1].name)
            ).cores_needed_to_match,
        ),
        Claim(
            "C15", "Matcher bitline loading (SPICE)", "negligible (~0.9 %)",
            0.0, 0.05,
            lambda c: all_feasibility_reports()[0].value,
        ),
        Claim(
            "C16", "Concurrent-subarray ceiling (power delivery)",
            "all-128 infeasible", 2.0, 127.0,
            lambda c: float(max_concurrent_per_bank(75.0)),
        ),
        Claim(
            "C17", "Row-major vs col-major (no ETM)",
            "similar, slightly worse", 1.0, 2.5,
            lambda c: geomean(c.speedups("T3.8.noetm"))
            / geomean(c.speedups("ROW.8")),
        ),
        Claim(
            "C18", "ComputeDRAM above row- and col-major",
            "outperforms both", 1.01, 10.0,
            lambda c: geomean(c.speedups("CD.8"))
            / geomean(c.speedups("T3.8.noetm")),
        ),
        Claim(
            "C19", "C.MT.BG slower per k-mer than C.ST.BG (3.28x matches)",
            "MT performs worse", 1.001, 2.0,
            lambda c: _per_kmer_ratio(c, "C.MT.BG", "C.ST.BG"),
        ),
    ]


def _per_kmer_ratio(c: "_Context", slow_name: str, fast_name: str) -> float:
    """Per-k-mer Type-2 time ratio between two benchmarks."""
    slow = next(w for w in c.workloads if w.name == slow_name)
    fast = next(w for w in c.workloads if w.name == fast_name)
    slow_s = c.time_s("T2.16", slow.name) / slow.num_kmers
    fast_s = c.time_s("T2.16", fast.name) / fast.num_kmers
    return slow_s / fast_s


def _plateau_point(c: "_Context") -> float:
    """First SALP degree whose doubling gains < 5 %."""
    wl = c.workloads[-1]
    prev = c.time_s("T3.1", wl.name)
    for sa in _PLATEAU_DEGREES:
        cur = c.time_s(f"T3.sa{sa}", wl.name)
        if prev / cur < 1.05:
            return float(sa // 2)
        prev = cur
    return 128.0


def claims_ledger() -> FigureResult:
    """Evaluate every claim; returns the ledger as a FigureResult."""
    context = _Context()
    result = FigureResult(
        figure="Claims ledger",
        title="Every checkable paper claim vs. this reproduction",
        headers=["id", "claim", "paper", "band", "measured", "verdict"],
    )
    failures = 0
    for claim in _claims():
        measured = float(claim.measure(context))
        ok = claim.low <= measured <= claim.high
        failures += not ok
        band = (
            f"[{claim.low:g}, {claim.high:g}]"
            if claim.high != float("inf")
            else f">= {claim.low:g}"
        )
        result.rows.append(
            [
                claim.claim_id,
                claim.statement,
                claim.paper_value,
                band,
                measured,
                "PASS" if ok else "FAIL",
            ]
        )
    result.notes = (
        f"{len(result.rows) - failures}/{len(result.rows)} claims inside "
        "their accepted bands (bands and the rationale for each tolerance "
        "are derived in EXPERIMENTS.md)."
    )
    return result
