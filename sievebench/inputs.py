"""Seeded input synthesis for every workload.

Runs in the parent process: the workload process receives only the
generated data (genomes, query k-mers, reads, arrival offsets), never
the seed.  The same ``(workload, seed, seconds, trace)`` always yields
the same inputs.  Warm-up inputs come from a second generator seeded
differently, so the timed phase never replays the warm-up's queries.

A phase is either *duration-bound* (``{"seconds": s}``: cycle through
the pool until ``s`` elapses; the untraced run) or *count-bound*
(``{"units": n}``: exactly ``n`` units, so the traced run's per-layer
counts repeat exactly).  A traced run spends about ``seconds / 2`` on
an untraced count-bound phase and ``seconds / 2`` on a traced one; the
unit counts come from :data:`NOMINAL_UNITS_PER_S`, the units each
workload completes per second on the reference machine.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

import numpy as np

#: Offset between the timed phase's seed and the warm-up's.
WARMUP_SEED_OFFSET = 7919

K = 31

#: ``build_dataset`` arguments of each workload's reference.
DATASETS: Dict[str, Dict[str, Any]] = {
    "lookup_bulk": dict(num_species=8, genome_length=5000),
    "serve_zipf_open": dict(num_species=8, genome_length=5000),
    "cluster_uniform": dict(num_species=16, genome_length=20_000, canonical=True),
    "map_reads": dict(num_species=8, genome_length=10_000, phylogenetic=True),
}

#: Read profiles (``generate_trace`` arguments).
PROFILES: Dict[str, Dict[str, Any]] = {
    "serve_zipf_open": dict(zipf_s=1.4, read_length=100, error_rate=0.01, novel_fraction=0.1),
    "cluster_uniform": dict(zipf_s=0.0, read_length=100, error_rate=0.01, novel_fraction=0.25),
    "map_reads": dict(zipf_s=1.0, read_length=250, error_rate=0.03, novel_fraction=0.1),
}

#: k-mers per ``SieveDevice.query`` call on ``lookup_bulk``.
LOOKUP_CALL_KMERS = 1024
#: ``lookup_bulk`` cycles through this many distinct calls.
LOOKUP_POOL_CALLS = 60
LOOKUP_WARMUP_CALLS = 3
#: Open-loop request rate of ``serve_zipf_open`` (requests per second).
SERVE_RATE = 15.0
#: Reads per pre-enqueued round.
ROUND_READS = {"cluster_uniform": 250, "map_reads": 36}
#: Distinct reads the round workloads cycle through.  Every answer is
#: checked against a reference computed once per distinct read, so the
#: pool bounds the cost of checking.
POOL_READS = {"cluster_uniform": 4000, "map_reads": 300}
#: Warm-up requests of the read workloads.  ``serve_zipf_open``'s cache
#: keeps warming well past 100 reads, which made the second half of a
#: run faster than the first.
WARMUP_READS = {"serve_zipf_open": 200, "cluster_uniform": 500, "map_reads": 36}

#: Units per second on the reference machine (2-core x86 container):
#: sizes the count-bound phases of a traced run.
NOMINAL_UNITS_PER_S = {
    "lookup_bulk": 6.0,  # query calls
    "serve_zipf_open": SERVE_RATE,  # requests
    "cluster_uniform": 4.0,  # rounds
    "map_reads": 2.2,  # rounds
}


def _reference(name: str, seed: int):
    from repro.genomics import build_dataset

    dataset = build_dataset(k=K, num_reads=0, seed=seed, **DATASETS[name])
    fields = {
        "k": dataset.k,
        "canonical": dataset.database.canonical,
        "genomes": dataset.genomes,
        "taxonomy": dataset.taxonomy,
    }
    return dataset, fields


def _reads(name: str, dataset, count: int, seed: int):
    from repro.workloads import generate_trace

    return generate_trace(dataset, count, seed=seed, **PROFILES[name]).reads()


def _count_phases(name: str, seconds: float, trace: bool) -> List[Dict[str, Any]]:
    if not trace:
        return [{"traced": False, "seconds": seconds}]
    units = max(1, math.ceil(NOMINAL_UNITS_PER_S[name] * seconds / 2))
    return [{"traced": False, "units": units}, {"traced": True, "units": units}]


def _lookup_queries(keys: np.ndarray, calls: int, rng) -> List[List[int]]:
    """``calls`` query lists, each half reference k-mers, half uniform."""
    half = LOOKUP_CALL_KMERS // 2
    out = []
    for _ in range(calls):
        kmers = np.concatenate(
            [rng.choice(keys, half), rng.integers(0, 1 << (2 * K), half, dtype=np.uint64)]
        )
        rng.shuffle(kmers)
        out.append(kmers.tolist())
    return out


def lookup_bulk(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    dataset, fields = _reference("lookup_bulk", seed)
    keys = np.asarray(dataset.database.sorted_kmers(), dtype=np.uint64)
    warm_rng = np.random.default_rng(seed + WARMUP_SEED_OFFSET)
    return {
        **fields,
        "pool": _lookup_queries(keys, LOOKUP_POOL_CALLS, np.random.default_rng(seed)),
        "warmup": _lookup_queries(keys, LOOKUP_WARMUP_CALLS, warm_rng),
        "phases": _count_phases("lookup_bulk", seconds, trace),
    }


def serve_zipf_open(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Open loop at a constant rate: request ``i`` is due ``i / rate``
    after the phase starts, whatever happened to earlier requests.
    Poisson arrivals were tried first; their seed-to-seed burstiness
    made the latency quartiles spread wider than any allowed bound."""
    name = "serve_zipf_open"
    dataset, fields = _reference(name, seed)
    lengths = [(False, seconds)] if not trace else [(False, seconds / 2), (True, seconds / 2)]
    phases = []
    for traced, length in lengths:
        count = max(1, round(SERVE_RATE * length))
        phases.append({"traced": traced, "offsets": [i / SERVE_RATE for i in range(count)]})
    total = sum(len(phase["offsets"]) for phase in phases)
    return {
        **fields,
        "pool": _reads(name, dataset, total, seed),
        "warmup": _reads(name, dataset, WARMUP_READS[name], seed + WARMUP_SEED_OFFSET),
        "phases": phases,
    }


def _round_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    dataset, fields = _reference(name, seed)
    return {
        **fields,
        "pool": _reads(name, dataset, POOL_READS[name], seed),
        "warmup": _reads(name, dataset, WARMUP_READS[name], seed + WARMUP_SEED_OFFSET),
        "round_reads": ROUND_READS[name],
        "phases": _count_phases(name, seconds, trace),
    }


def make_inputs(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Every input of workload ``name`` (see module doc)."""
    if name == "lookup_bulk":
        return lookup_bulk(seed, seconds, trace)
    if name == "serve_zipf_open":
        return serve_zipf_open(seed, seconds, trace)
    return _round_workload(name, seed, seconds, trace)
