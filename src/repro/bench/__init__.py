"""Benchmark-regression harness for the functional Sieve toolkit.

The functional simulator is the repository's ground truth: every
analytic model is calibrated against counters it produces, so a silent
slowdown there quietly caps how large a configuration the tests and
examples can afford to exercise.  This package pins the hot paths the
batched query engine optimized — database construction, device lookup
(batched and scalar), end-to-end classification, and analytic figure
regeneration — behind small, seeded workloads and records both wall
time and the functional counters each run produces.

Usage::

    python -m repro.bench                 # full workloads
    python -m repro.bench --quick         # CI smoke scale
    python -m repro.bench --baseline benchmarks/BENCH_baseline.json
    python -m repro.bench --trajectory    # wall/counter trend of history

Each run writes ``BENCH_<rev>.json`` (``<rev>`` is the short git
revision, or ``local`` outside a checkout).  With ``--baseline`` the run
compares itself against a committed reference: any benchmark whose wall
time regresses by more than ``--threshold`` (default 1.5x), or whose
functional counters differ at all, fails the run.  Counters are fully
deterministic (seeded generators end to end), so counter drift is a
functional regression, never noise; wall-time gets the 1.5x band to
absorb machine variation.  See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import json
import re
import subprocess
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

#: JSON schema version for ``BENCH_*.json`` payloads.
SCHEMA_VERSION = 1

#: Default wall-time regression threshold (current / baseline ratio).
DEFAULT_THRESHOLD = 1.5

#: Absolute slack added to the wall-time bound.  Benchmarks that finish
#: in milliseconds would otherwise fail on scheduler jitter alone; a
#: regression must exceed the ratio threshold *and* this many seconds.
WALL_GRACE_S = 0.05


class BenchError(ValueError):
    """Raised on unknown benchmark names or malformed baseline files."""


@dataclass(frozen=True)
class BenchResult:
    """One benchmark run: measured wall time + functional counters.

    ``extras`` carries derived host-timing figures (hit rates, wall
    deltas) that are reported in ``BENCH_*.json`` but — unlike
    ``counters`` — never baseline-compared: they inherit machine noise.
    """

    name: str
    wall_s: float
    counters: Dict[str, int]
    extras: Dict[str, float] = field(default_factory=dict)


#: A benchmark callable: ``fn(quick) -> (measured_wall_s, counters)``
#: or ``fn(quick) -> (measured_wall_s, counters, extras)``.
#: Setup (dataset/device construction that is not the measured path) is
#: excluded from the returned wall time by timing inside the callable.
BenchFn = Callable[
    [bool],
    Union[
        Tuple[float, Dict[str, int]],
        Tuple[float, Dict[str, int], Dict[str, float]],
    ],
]


def _dataset(quick: bool, seed: int = 11):
    from ..genomics import build_dataset

    return build_dataset(
        k=13,
        num_species=4 if quick else 6,
        genome_length=400 if quick else 700,
        num_reads=20 if quick else 40,
        read_length=70,
        error_rate=0.005,
        novel_fraction=0.25,
        seed=seed,
    )


def bench_database_build(quick: bool) -> Tuple[float, Dict[str, int]]:
    """Vectorized genome indexing: pack_kmers + canonical + LCA-merge."""
    import numpy as np

    from ..genomics import (
        KmerDatabase,
        balanced_taxonomy,
        phylogenetic_genomes,
    )

    rng = np.random.default_rng(101)
    num_species = 6 if quick else 12
    taxonomy = balanced_taxonomy(num_species)
    genomes = phylogenetic_genomes(
        taxonomy, 1_000 if quick else 5_000, rng
    )
    start = time.perf_counter()
    db = KmerDatabase.from_genomes(
        ((g, g.taxon_id) for g in genomes),
        k=13,
        canonical=True,
        taxonomy=taxonomy,
    )
    wall_s = time.perf_counter() - start
    return wall_s, {
        "genomes": len(genomes),
        "kmers_indexed": len(db),
        "taxa": db.size_stats().num_taxa,
    }


def bench_host_lookup(quick: bool) -> Tuple[float, Dict[str, int]]:
    """Host-side bulk lookup: sorted arrays + ``np.searchsorted``."""
    dataset = _dataset(quick)
    queries = sorted(
        {kmer for read in dataset.reads for kmer in read.kmers(dataset.k)}
    )
    start = time.perf_counter()
    results = dataset.database.query(queries)
    wall_s = time.perf_counter() - start
    hits = sum(1 for r in results if r.hit)
    return wall_s, {"queries": len(queries), "hits": hits}


def _device_lookup(quick: bool, scalar: bool) -> Tuple[float, Dict[str, int]]:
    from ..sieve import SieveDevice, SubarrayLayout

    dataset = _dataset(quick)
    layout = SubarrayLayout(
        k=dataset.k, row_bits=1152, rows_per_subarray=256, layers=3
    )
    device = SieveDevice.from_database(dataset.database, layout=layout)
    queries = sorted(
        {kmer for read in dataset.reads for kmer in read.kmers(dataset.k)}
    )
    query = device.query_scalar if scalar else device.query
    start = time.perf_counter()
    responses = query(queries)
    wall_s = time.perf_counter() - start
    return wall_s, {
        "queries": device.stats.queries,
        "hits": device.stats.hits,
        "index_filtered": device.stats.index_filtered,
        "row_activations": device.stats.row_activations,
        "write_commands": device.stats.write_commands,
        "batches": device.stats.batches,
        "responses": len(responses),
    }


def bench_device_lookup_packed(quick: bool) -> Tuple[float, Dict[str, int]]:
    """Bit-accurate device lookups through the bit-packed batch engine.

    Counters must match ``device_lookup_scalar`` exactly (the batched
    engine is bit-identical); the wall-time gap between the two
    scenarios is the end-to-end win from ``SieveSubarraySim.match_all``.
    """
    return _device_lookup(quick, scalar=False)


def bench_device_lookup_scalar(quick: bool) -> Tuple[float, Dict[str, int]]:
    """Same lookups through ``SieveDevice.query_scalar``, the scalar
    command-by-command path.

    Tracked so the scalar reference does not rot: its counters must stay
    identical to the batched run's, and its wall time bounds how long
    the equivalence tests can afford to be.
    """
    return _device_lookup(quick, scalar=True)


def bench_kernel_matrix(quick: bool) -> Tuple[float, Dict[str, int]]:
    """Bit-packed first-divergence kernel in isolation.

    Packs the bench dataset's sorted k-mers into the device's MSB-first
    transposed Region-1 layout, packs the query reads the same way, and
    times the sweep the packed match engine runs per batch: with a
    single-word layout (every ``k <= 32``) that is ``pack_bit_columns``
    + the sorted-neighbour
    :func:`repro.sieve.kernels.segment_divergence` over the ascending
    reference words; otherwise (multi-word rows) the full
    ``first_divergence`` matrix.  The recorded wall time therefore
    tracks the kernel actually deployed, and its ratio to
    ``device_lookup_scalar`` is the kernel speedup quoted in
    ``docs/PERFORMANCE.md``.  Counters are pure functions of the seeded
    dataset, identical across both forms.
    """
    import numpy as np

    from ..sieve import kernels

    dataset = _dataset(quick)
    rows = 2 * dataset.k
    segment_size = 64
    refs = np.fromiter(
        dataset.database.sorted_kmers(),
        dtype=np.uint64,
        count=len(dataset.database),
    )
    queries = np.array(
        sorted(
            {kmer for read in dataset.reads for kmer in read.kmers(dataset.k)}
        ),
        dtype=np.uint64,
    )
    shifts = np.arange(rows - 1, -1, -1, dtype=np.uint64)[:, None]
    one = np.uint64(1)
    ref_bits = ((refs[None, :] >> shifts) & one).astype(np.uint8)
    query_bits = ((queries[None, :] >> shifts) & one).astype(np.uint8)
    seg_starts = np.arange(0, refs.size, segment_size)
    start = time.perf_counter()
    ref_words = kernels.pack_bit_columns(ref_bits)
    query_words = kernels.pack_bit_columns(query_bits)
    if kernels.words_for(rows) == 1:
        seg_div, first_hit, _ = kernels.segment_divergence(
            ref_words[0], query_words[0], rows, seg_starts
        )
    else:
        div = kernels.first_divergence(ref_words, query_words, rows)
        seg_div = np.maximum.reduceat(div, seg_starts, axis=1)
        first_hit = (div == rows).argmax(axis=1)
    wall_s = time.perf_counter() - start
    hit_mask = (seg_div == rows).any(axis=1)
    return wall_s, {
        "references": int(refs.size),
        "queries": int(queries.size),
        "rows": rows,
        "words": int(ref_words.shape[0]),
        "segments": int(seg_starts.size),
        "hits": int(hit_mask.sum()),
        "first_hit_sum": int(first_hit[hit_mask].sum()),
        "divergence_sum": int(seg_div.sum()),
    }


def bench_db_mmap_load(quick: bool) -> Tuple[float, Dict[str, int]]:
    """Zero-copy database open: mmap segments + verify + bulk lookup.

    Saves the bench database as a segment directory (setup, untimed),
    then times the serving-side path a fleet worker or service shard
    pays: :meth:`KmerDatabase.open_mmap` with content-hash verification
    followed by a bulk query of every read k-mer.  Counters pin the
    manifest shape and lookup results.
    """
    import tempfile

    from .. import serialization
    from ..genomics import KmerDatabase

    dataset = _dataset(quick)
    queries = sorted(
        {kmer for read in dataset.reads for kmer in read.kmers(dataset.k)}
    )
    with tempfile.TemporaryDirectory() as tmp:
        seg_dir = Path(tmp) / "segments"
        manifest = serialization.save_segments(dataset.database, seg_dir)
        start = time.perf_counter()
        db = KmerDatabase.open_mmap(seg_dir, verify=True)
        results = db.query(queries)
        wall_s = time.perf_counter() - start
        records = len(db)
    hits = sum(1 for r in results if r.hit)
    return wall_s, {
        "records": records,
        "segments": len(manifest["segments"]),
        "queries": len(queries),
        "hits": hits,
    }


def bench_classifier_e2e(quick: bool) -> Tuple[float, Dict[str, int]]:
    """End-to-end read classification against the Sieve device."""
    from ..baselines import classify_reads, summarize
    from ..sieve import SieveDevice, SubarrayLayout

    dataset = _dataset(quick)
    layout = SubarrayLayout(
        k=dataset.k, row_bits=1152, rows_per_subarray=256, layers=3
    )
    device = SieveDevice.from_database(dataset.database, layout=layout)
    start = time.perf_counter()
    unique = sorted(
        {kmer for read in dataset.reads for kmer in read.kmers(dataset.k)}
    )
    answers = {r.query: r.payload for r in device.query(unique)}
    results = classify_reads(dataset.reads, dataset.k, answers.get)
    wall_s = time.perf_counter() - start
    summary = summarize(results)
    return wall_s, {
        "reads": summary.reads,
        "classified": summary.classified,
        "kmers_total": summary.kmers_total,
        "kmers_hit": summary.kmers_hit,
        "row_activations": device.stats.row_activations,
    }


def bench_figure_regen(quick: bool) -> Tuple[float, Dict[str, int]]:
    """Analytic figure regeneration (perf-model evaluation loop)."""
    from ..experiments.figures import fig13_row_vs_col, fig16_salp_sweep

    start = time.perf_counter()
    fig13 = fig13_row_vs_col()
    rows = len(fig13.rows)
    if not quick:
        rows += len(fig16_salp_sweep().rows)
    wall_s = time.perf_counter() - start
    return wall_s, {"table_rows": rows}


def _serve_trace(trace, database, *, dedup=False, cache_capacity=0):
    """Replay ``trace`` against a fresh 2-shard Sieve service.

    Deterministic mode (zero linger, pre-enqueued, single-threaded
    loop): batch composition — and with it every counter — is a pure
    function of the trace and the config.  Returns ``(responses,
    stats, measured_wall_s)``.
    """
    from ..service import ClassificationService, ServiceConfig
    from ..sieve import SieveDevice, SubarrayLayout
    from ..workloads import replay_trace

    layout = SubarrayLayout(
        k=trace.k, row_bits=1152, rows_per_subarray=256, layers=3
    )
    config = ServiceConfig(
        num_shards=2,
        max_batch_kmers=128,
        max_linger_s=0.0,
        queue_depth=len(trace),
        dedup=dedup,
        cache_capacity=cache_capacity,
    )
    backends = [
        SieveDevice.from_database(database, layout=layout)
        for _ in range(config.num_shards)
    ]
    service = ClassificationService(backends, config)
    start = time.perf_counter()
    responses = replay_trace(service, trace)
    wall_s = time.perf_counter() - start
    stats = service.stats()
    stats["device"] = {
        "row_activations": sum(
            w.backend.stats.row_activations for w in service.shards
        ),
        "write_commands": sum(
            w.backend.stats.write_commands for w in service.shards
        ),
    }
    return responses, stats, wall_s


def bench_service_load(quick: bool) -> Tuple[float, Dict[str, int]]:
    """Async classification service end-to-end (``repro.service``).

    The dataset's reads are frozen into a :class:`repro.workloads.Trace`
    (all arrivals at t=0, matching the original pre-enqueued stream)
    and replayed through :func:`repro.workloads.replay_trace` in the
    service's deterministic mode, so batch composition — and with it
    every counter — is a pure function of the seeded dataset.  Wall
    time covers the full serve: dispatch, coalesced device batches,
    response slicing.
    """
    from ..workloads import Trace, TraceRequest

    dataset = _dataset(quick)
    trace = Trace(
        k=dataset.k,
        seed=dataset.seed,
        label="service-load",
        requests=tuple(
            TraceRequest(
                seq_id=read.seq_id,
                bases=read.bases,
                taxon_id=read.taxon_id,
                arrival_s=0.0,
            )
            for read in dataset.reads
        ),
    )
    responses, stats, wall_s = _serve_trace(trace, dataset.database)
    counters = stats["metrics"]["counters"]
    return wall_s, {
        "requests": len(responses),
        "batches": counters["batches_total"],
        "kmers": counters["kmers_total"],
        "hits": counters["hits_total"],
        "rejected": counters.get("rejected_total", 0),
        "classified": sum(
            1 for r in responses if r.classification.taxon is not None
        ),
        "row_activations": stats["device"]["row_activations"],
        "write_commands": stats["device"]["write_commands"],
    }


def bench_service_cached(
    quick: bool,
) -> Tuple[float, Dict[str, int], Dict[str, float]]:
    """Hot-k-mer cache + dedup vs the uncached dispatcher.

    Generates a seeded zipfian bursty trace (the skewed traffic the
    cache exploits; ``repro.workloads``), replays it twice — once
    uncached, once with dedup + a bounded LFU result cache — and
    verifies every classification is bit-identical (``mismatches`` is
    baseline-pinned at 0).  The deterministic counters record the
    cache's work split and the simulated-device-time saving; host-wall
    figures (noise-prone) go in ``extras``.
    """
    dataset = _dataset(quick)
    from ..workloads import generate_trace

    trace = generate_trace(
        dataset,
        60 if quick else 160,
        zipf_s=1.4,
        read_length=70,
        error_rate=0.005,
        novel_fraction=0.1,
        seed=23,
        label="bench-zipf",
    )
    uncached, stats_u, wall_u = _serve_trace(trace, dataset.database)
    cached, stats_c, wall_c = _serve_trace(
        trace, dataset.database, dedup=True, cache_capacity=512
    )
    mismatches = sum(
        1
        for a, b in zip(uncached, cached)
        if a.classification != b.classification
    )
    cache = stats_c["cache"]
    sim_u = int(stats_u["clocks"]["sim_time_ns"])
    sim_c = int(stats_c["clocks"]["sim_time_ns"])
    counters = {
        "requests": len(cached),
        "kmers": cache["lookup_kmers"],
        "cache_hit_kmers": cache["hit_kmers"],
        "dedup_kmers": cache["dedup_kmers"],
        "device_kmers": cache["device_kmers"],
        "insertions": cache["insertions"],
        "evictions": cache["evictions"],
        "sim_time_ns_uncached": sim_u,
        "sim_time_ns_cached": sim_c,
        "sim_time_ns_saved": sim_u - sim_c,
        "mismatches": mismatches,
    }
    extras = {
        "hit_rate": cache["hit_rate"],
        "wall_uncached_s": wall_u,
        "wall_cached_s": wall_c,
        "wall_saved_s": wall_u - wall_c,
    }
    return wall_u + wall_c, counters, extras


def bench_fault_injection(quick: bool) -> Tuple[float, Dict[str, int]]:
    """Device lookups under an active seeded fault model (``repro.faults``).

    Builds one clean and one fault-injected Sieve device from the same
    dataset, replays the same batched query stream through both, and
    counts answer divergence.  Every counter is a pure function of the
    content-hashed fault seed, so counter drift here means the fault
    schedule (or the device's behavior under it) changed.  Wall time
    covers the faulted device's query pass — the hot-path cost of
    having the injector seam threaded through the DRAM model.
    """
    from ..faults import FaultInjector, FaultModel, fault_injection
    from ..sieve import SieveDevice, SubarrayLayout

    dataset = _dataset(quick)
    layout = SubarrayLayout(
        k=dataset.k, row_bits=1152, rows_per_subarray=256, layers=3
    )
    clean = SieveDevice.from_database(dataset.database, layout=layout)
    injector = FaultInjector(
        FaultModel.seeded("bench-fault", bit_flip_rate=2e-4)
    )
    with fault_injection(injector):
        faulted = SieveDevice.from_database(dataset.database, layout=layout)
    queries = sorted(
        {kmer for read in dataset.reads for kmer in read.kmers(dataset.k)}
    )
    baseline = clean.query(queries)
    start = time.perf_counter()
    responses = faulted.query(queries)
    wall_s = time.perf_counter() - start
    diverged = sum(
        1
        for a, b in zip(baseline, responses)
        if (a.hit, a.payload) != (b.hit, b.payload)
    )
    return wall_s, {
        "queries": len(queries),
        "loads": injector.stats.loads,
        "bits_flipped": injector.stats.bits_flipped,
        "diverged": diverged,
        "degraded": int(faulted.capabilities().degraded),
        "hits": faulted.stats.hits,
    }


def _mapping_setup(quick: bool, extension: str):
    """Shared setup for the read-mapping scenarios (untimed)."""
    from ..mapping import MappingConfig, ReadMapper, SeedExtender, SeedIndex
    from ..sieve import SieveDevice, SubarrayLayout

    dataset = _dataset(quick)
    layout = SubarrayLayout(
        k=dataset.k, row_bits=1152, rows_per_subarray=256, layers=3
    )
    device = SieveDevice.from_database(dataset.database, layout=layout)
    extender = SeedExtender(
        SeedIndex.from_genomes(dataset.genomes, dataset.k),
        dataset.genomes,
        MappingConfig(band=3, max_edits=3, extension=extension),
    )
    return dataset, device, ReadMapper(device, extender)


def bench_read_mapping(quick: bool) -> Tuple[float, Dict[str, int]]:
    """Seed-filter-and-extend read mapping, host-side extension.

    The full pipeline of docs/MAPPING.md over the bench dataset: the
    Sieve device filters every read k-mer, the host seed index groups
    survivors into diagonal candidates, and banded semi-global
    alignment verifies them.  Counters pin the mapped/candidate/DP-cell
    totals (pure functions of the seeded dataset) plus the analytic
    host cost — so both the pipeline's answers *and* its cost model
    are regression-guarded.  Wall time covers the whole mapping pass.
    """
    dataset, device, mapper = _mapping_setup(quick, "host")
    start = time.perf_counter()
    results = mapper.map_reads(dataset.reads)
    wall_s = time.perf_counter() - start
    stats = mapper.extender.stats
    return wall_s, {
        "reads": stats.reads,
        "mapped": stats.mapped,
        "seed_hits": stats.seed_hits,
        "candidates": stats.candidates,
        "dp_cells": stats.dp_cells,
        "positions_sum": sum(r.position for r in results if r.mapped),
        "row_activations": device.stats.row_activations,
        "host_time_ns": int(mapper.extender.cost_model.stats.time_ns),
    }


def bench_read_mapping_insitu(quick: bool) -> Tuple[float, Dict[str, int]]:
    """Same mapping pass, extension costed through the DRAM ledger.

    Answers must match ``read_mapping`` exactly (the extension variants
    share one aligner); what changes is the price: candidate windows
    stream through the open-page :class:`repro.dram.memsys.MemorySystem`
    and the per-cell cost is in-DRAM op time.  The ledger's
    access/row-hit counters are deterministic (candidate schedule is a
    pure function of the dataset), so they are baseline-pinned too.
    """
    dataset, device, mapper = _mapping_setup(quick, "insitu")
    start = time.perf_counter()
    results = mapper.map_reads(dataset.reads)
    wall_s = time.perf_counter() - start
    stats = mapper.extender.stats
    ledger = mapper.extender.cost_model.memsys.stats
    return wall_s, {
        "reads": stats.reads,
        "mapped": stats.mapped,
        "seed_hits": stats.seed_hits,
        "candidates": stats.candidates,
        "dp_cells": stats.dp_cells,
        "positions_sum": sum(r.position for r in results if r.mapped),
        "ledger_accesses": ledger.accesses,
        "ledger_row_hits": ledger.row_hits,
        "insitu_time_ns": int(mapper.extender.cost_model.stats.time_ns),
    }


#: Registry of tracked benchmarks, in report order.
BENCHMARKS: Dict[str, BenchFn] = {
    "database_build": bench_database_build,
    "host_lookup": bench_host_lookup,
    "device_lookup_packed": bench_device_lookup_packed,
    "device_lookup_scalar": bench_device_lookup_scalar,
    "kernel_matrix": bench_kernel_matrix,
    "db_mmap_load": bench_db_mmap_load,
    "classifier_e2e": bench_classifier_e2e,
    "figure_regen": bench_figure_regen,
    "service_load": bench_service_load,
    "service_cached": bench_service_cached,
    "fault_injection": bench_fault_injection,
    "read_mapping": bench_read_mapping,
    "read_mapping_insitu": bench_read_mapping_insitu,
}


def git_revision() -> str:
    """Short git revision of the working tree, or ``local``."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "local"
    rev = proc.stdout.strip()
    return rev if rev else "local"


def run_benchmark(name: str, quick: bool) -> BenchResult:
    """One tracked benchmark (the fleet job :func:`run_benchmarks` fans
    out): its measured wall time, counters and extras."""
    wall_s, counters, *extras = BENCHMARKS[name](quick)
    return BenchResult(
        name=name,
        wall_s=wall_s,
        counters=counters,
        extras=extras[0] if extras else {},
    )


def run_benchmarks(
    quick: bool = False,
    only: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
) -> List[BenchResult]:
    """Run (a subset of) the registry; returns results in registry order.

    ``jobs`` fans the benchmarks out over fleet worker processes
    (``None`` uses the fleet default: ``--jobs``/``SIEVE_JOBS``, else
    1).  Counters are unaffected by the worker count (they are
    seeded-deterministic); wall times are each measured inside their
    own process.
    """
    from ..fleet.core import run_jobs

    names = list(BENCHMARKS) if only is None else list(only)
    unknown = [name for name in names if name not in BENCHMARKS]
    if unknown:
        raise BenchError(
            f"unknown benchmark(s) {unknown}; tracked: {list(BENCHMARKS)}"
        )
    return run_jobs(
        [partial(run_benchmark, name, quick) for name in names],
        max_workers=jobs,
    )


def to_payload(results: Sequence[BenchResult], quick: bool) -> Dict[str, object]:
    """Serialize results into the ``BENCH_*.json`` schema."""
    return {
        "schema": SCHEMA_VERSION,
        "rev": git_revision(),
        "quick": quick,
        "benchmarks": {
            r.name: (
                {
                    "wall_s": r.wall_s,
                    "counters": dict(r.counters),
                    "extras": dict(r.extras),
                }
                if r.extras
                else {"wall_s": r.wall_s, "counters": dict(r.counters)}
            )
            for r in results
        },
    }


def load_baseline(path: Path) -> Dict[str, object]:
    """Load and structurally validate a baseline JSON payload."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read baseline {path}: {exc}") from None
    if not isinstance(payload, dict) or "benchmarks" not in payload:
        raise BenchError(f"baseline {path} is not a bench payload")
    return payload


def compare_to_baseline(
    results: Sequence[BenchResult],
    baseline: Dict[str, object],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[str]:
    """Regression check; returns failure descriptions (empty = pass).

    Wall time fails above ``threshold`` x the baseline plus
    :data:`WALL_GRACE_S`; counters fail on any difference (they are
    seeded-deterministic).  Benchmarks absent
    from the baseline are reported so the baseline gets refreshed when
    the registry grows, and baseline entries naming no registered
    benchmark are reported as stale so a deleted scenario cannot leave
    a dead row.  Registered entries the run skipped (``--only``) pass.
    """
    if threshold <= 1.0:
        raise BenchError(f"threshold must be > 1.0, got {threshold}")
    failures = []
    recorded = baseline["benchmarks"]
    for result in results:
        entry = recorded.get(result.name) if isinstance(recorded, dict) else None
        if not isinstance(entry, dict):
            failures.append(
                f"{result.name}: missing from baseline (refresh the baseline)"
            )
            continue
        base_wall_s = float(entry.get("wall_s", 0.0))
        bound_s = threshold * base_wall_s + WALL_GRACE_S
        if base_wall_s > 0.0 and result.wall_s > bound_s:
            ratio = result.wall_s / base_wall_s
            failures.append(
                f"{result.name}: wall {result.wall_s:.3f}s is "
                f"{ratio:.2f}x baseline {base_wall_s:.3f}s "
                f"(threshold {threshold:.2f}x)"
            )
        base_counters = entry.get("counters")
        if base_counters != result.counters:
            failures.append(
                f"{result.name}: counters changed: baseline "
                f"{base_counters!r} != current {result.counters!r}"
            )
    if isinstance(recorded, dict):
        failures.extend(
            f"{name}: stale baseline entry, no such benchmark "
            "(delete it from the baseline)"
            for name in recorded
            if name not in BENCHMARKS
        )
    return failures


def _history_order(path: Path) -> List[object]:
    """Sort key placing ``run9.json`` before ``run10.json``."""
    return [
        int(part) if part.isdigit() else part
        for part in re.split(r"(\d+)", path.stem)
    ]


def format_trajectory(
    history_dir: Path, baseline: Dict[str, object]
) -> Tuple[str, List[str]]:
    """One row per scenario, one column per payload in ``history_dir``.

    Each cell is the recorded wall seconds, marked ``✓`` when that
    run's counters equal ``baseline``'s and ``✗`` when they differ (or
    the baseline has no such scenario); ``-`` marks a scenario the run
    did not record.  Files are ordered by name, numbers numerically.
    Returns the table and the scenarios marked ``✗`` in the newest
    payload (the last column).
    """
    paths = sorted(history_dir.glob("*.json"), key=_history_order)
    if not paths:
        raise BenchError(f"no history payloads in {history_dir}")
    runs = [load_baseline(path)["benchmarks"] for path in paths]
    recorded = baseline["benchmarks"]
    names = [name for name in BENCHMARKS if any(name in run for run in runs)]
    names += sorted({n for run in runs for n in run} - set(names))
    width = max(len(name) for name in names)
    columns = [max(len(path.stem), 9) for path in paths]
    lines = [
        " ".join(
            [f"{'scenario':<{width}}"]
            + [f"{p.stem:>{w}}" for p, w in zip(paths, columns)]
        )
    ]
    newest_differ = []
    for name in names:
        cells = []
        for run, w in zip(runs, columns):
            entry = run.get(name)
            if entry is None:
                cells.append(f"{'-':>{w}}")
                continue
            base = recorded.get(name) if isinstance(recorded, dict) else None
            same = isinstance(base, dict) and base.get("counters") == entry.get(
                "counters"
            )
            mark = "✓" if same else "✗"
            cells.append(f"{float(entry['wall_s']):.3f} {mark}".rjust(w))
        if name in runs[-1] and not same:  # ``same`` of the last column
            newest_differ.append(name)
        lines.append(" ".join([f"{name:<{width}}"] + cells))
    return "\n".join(lines), newest_differ


def format_results(results: Sequence[BenchResult]) -> str:
    """Aligned text report of a run."""
    lines = [f"{'benchmark':<24} {'wall_s':>9}  counters"]
    for r in results:
        counters = ", ".join(f"{k}={v}" for k, v in r.counters.items())
        lines.append(f"{r.name:<24} {r.wall_s:>9.4f}  {counters}")
        if r.extras:
            extras = ", ".join(f"{k}={v:.4g}" for k, v in r.extras.items())
            lines.append(f"{'':<24} {'':>9}  [{extras}]")
    return "\n".join(lines)
