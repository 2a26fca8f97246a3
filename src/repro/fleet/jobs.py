"""Concrete fleet job types: the pure units experiments decompose into.

Each job is a frozen dataclass of scalars (picklable, reprable), and
``run`` imports what it needs lazily so job objects ship to workers
without dragging the whole simulator through pickle.  Payloads are
JSON-serializable dicts — the merge layer and the golden differ never
see a live model object.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from .core import FleetError, Job

#: Ranks of the preset capacity-sweep geometries
#: (``repro.dram.geometry.SIEVE_{4,8,16,32}GB``).
PRESET_RANKS: Dict[float, int] = {4.0: 2, 8.0: 4, 16.0: 8, 32.0: 16}

#: Designs accepted by :class:`PerfPointJob`.  ``units`` is compute
#: buffers per bank for T2 and concurrent subarrays for T3 /
#: ROW_MAJOR / COMPUTE_DRAM; CPU / GPU / T1 take none.
PERF_DESIGNS = ("CPU", "GPU", "T1", "T2", "T3", "ROW_MAJOR", "COMPUTE_DRAM")


@dataclass(frozen=True)
class PerfPointJob(Job):
    """One (design x workload x sweep point) analytic model evaluation.

    Covers every point of Figures 13-17, the Section VI-C
    sensitivities, the claims ledger, and the k / hit-rate / capacity
    sweeps: the job owns model construction end to end, so two jobs
    with equal fields produce bit-identical payloads in any process.
    """

    design: str
    benchmark: str
    units: int = 0
    etm_enabled: bool = True
    capacity_gib: float = 32.0
    ranks: int = 0
    #: Workload hit-rate override; negative means the benchmark default.
    hit_rate: float = -1.0
    #: k-mer length override (0 = the paper's k); builds the
    #: ``sensitivity_k``-style workload with the default-head ESP.
    k: int = 0

    def __post_init__(self) -> None:
        if self.design not in PERF_DESIGNS:
            raise FleetError(
                f"unknown design {self.design!r}; known: {PERF_DESIGNS}"
            )

    def _geometry(self) -> Any:
        from ..dram.geometry import DramGeometry

        ranks = self.ranks or PRESET_RANKS.get(self.capacity_gib, 0)
        if ranks <= 0:
            raise FleetError(
                f"capacity {self.capacity_gib} GiB has no preset rank "
                "count; set ranks explicitly"
            )
        return DramGeometry.for_capacity(self.capacity_gib, ranks=ranks)

    def _workload(self) -> Any:
        from ..experiments.workloads import benchmark_by_name
        from ..sieve.perfmodel import EspModel, WorkloadStats

        bench = benchmark_by_name(self.benchmark)
        if self.k:
            workload = WorkloadStats(
                name=f"{bench.name}.k{self.k}",
                k=self.k,
                num_kmers=bench.profile.kmer_count(self.k),
                hit_rate=bench.hit_rate,
                esp=EspModel.paper_fig6(self.k),
            )
        else:
            workload = bench.workload()
        if self.hit_rate >= 0.0:
            workload = workload.with_hit_rate(self.hit_rate)
        return workload

    def _model(self) -> Any:
        from ..baselines.cpu_model import CpuBaselineModel
        from ..baselines.gpu_model import GpuBaselineModel
        from ..insitu.rowmajor import ComputeDramModel, RowMajorModel
        from ..sieve.perfmodel import (
            SieveModelConfig,
            Type1Model,
            Type2Model,
            Type3Model,
        )

        if self.design == "CPU":
            return CpuBaselineModel()
        if self.design == "GPU":
            return GpuBaselineModel()
        cfg = SieveModelConfig(geometry=self._geometry())
        if self.design == "T1":
            return Type1Model(cfg, etm_enabled=self.etm_enabled)
        if self.design == "T2":
            return Type2Model(cfg, self.units, etm_enabled=self.etm_enabled)
        if self.design == "T3":
            return Type3Model(cfg, self.units, etm_enabled=self.etm_enabled)
        if self.design == "ROW_MAJOR":
            return RowMajorModel(cfg, self.units)
        return ComputeDramModel(cfg, self.units)

    def run(self) -> Dict[str, Any]:
        result = self._model().run(self._workload())
        return {
            "design": result.design,
            "workload": result.workload,
            "time_s": result.time_s,
            "energy_j": result.energy_j,
            "breakdown": dict(result.breakdown),
        }


@dataclass(frozen=True)
class SteadyStateJob(Job):
    """One row of Ablation A1: event-driven pipeline vs. closed form."""

    streams: int
    num_requests: int = 4000

    def run(self) -> Dict[str, Any]:
        from ..experiments.workloads import PAPER_K, paper_benchmarks
        from ..sieve.controller import validate_steady_state
        from ..sieve.layout import SubarrayLayout

        workload = paper_benchmarks()[-1].workload()
        layout = SubarrayLayout(k=PAPER_K)
        report = validate_steady_state(
            workload, layout, streams=self.streams,
            num_requests=self.num_requests,
        )
        return {key: float(value) for key, value in report.items()}


@dataclass(frozen=True)
class EspAblationJob(Job):
    """One candidate ETM termination distribution (Ablation A2)."""

    label: str
    probabilities: Tuple[float, ...]

    def run(self) -> Dict[str, Any]:
        from ..experiments.workloads import paper_benchmarks
        from ..sieve.perfmodel import EspModel, Type3Model, WorkloadStats

        base = paper_benchmarks()[-1].workload()
        esp = EspModel(tuple(self.probabilities))
        workload = WorkloadStats(
            name=base.name, k=base.k, num_kmers=base.num_kmers,
            hit_rate=base.hit_rate, esp=esp,
        )
        result = Type3Model(concurrent_subarrays=8).run(workload)
        return {
            "label": self.label,
            "mean_rows": esp.mean_rows(),
            "time_s": result.time_s,
        }


@dataclass(frozen=True)
class DeviceSimJob(Job):
    """One bank count of Ablation A6: whole-device event simulation."""

    banks: int
    subarrays_per_bank: int = 16
    num_requests: int = 20_000

    def run(self) -> Dict[str, Any]:
        from ..experiments.workloads import paper_benchmarks
        from ..sieve.device_sim import DeviceSimConfig, simulate_device

        workload = paper_benchmarks()[-1].workload()
        sim = simulate_device(
            workload,
            num_requests=self.num_requests,
            config=DeviceSimConfig(
                banks=self.banks, subarrays_per_bank=self.subarrays_per_bank
            ),
        )
        return {
            "overhead_fraction": sim.overhead_fraction,
            "load_imbalance": sim.load_imbalance,
            "packets": sim.packets,
            "makespan_ns": sim.makespan_ns,
        }


@dataclass(frozen=True)
class Type1FunctionalJob(Job):
    """Ablation A5: bit-accurate Type-1 bank-simulator counters.

    The internal seed (23) is part of the published golden numbers, so
    it stays fixed.
    """

    queries: int = 120

    def run(self) -> Dict[str, Any]:
        import numpy as np

        from ..sieve.type1 import Type1BankSim, Type1Layout

        rng = np.random.default_rng(23)
        k = 8
        layout = Type1Layout(k=k, row_bits=128, rows=128)
        kmers = sorted(
            int(x) for x in rng.choice(4**k, size=110, replace=False)
        )
        records = [(kmer, 900 + i) for i, kmer in enumerate(kmers)]
        sim = Type1BankSim(layout, records)
        rows_list, batches_list, hits = [], [], 0
        for _ in range(self.queries):
            q = int(rng.integers(0, 4**k))
            outcome = sim.match(q)
            rows_list.append(outcome.rows_activated)
            batches_list.append(outcome.batch_reads)
            hits += outcome.hit
        return {
            "queries": self.queries,
            "hit_rate": hits / self.queries,
            "mean_rows": float(np.mean(rows_list)),
            "max_rows": layout.kmer_rows + 2,
            "mean_batch_reads": float(np.mean(batches_list)),
            "full_batches": layout.kmer_rows * layout.num_batches,
        }


#: Functional designs accepted by :class:`FaultSweepJob`.
FAULT_DESIGNS = ("database", "sieve", "type1", "rowmajor")


@dataclass(frozen=True)
class FaultSweepJob(Job):
    """One (design x bit-flip rate) point of the fault-injection sweep.

    Builds a shared synthetic dataset, derives a :class:`repro.faults.
    FaultModel` whose seed depends only on ``(seed_tag, bit_flip_rate)``
    — *not* on the design — so every design at a given rate runs under
    the identically-seeded fault schedule, then measures per-query
    answer accuracy against the fault-free database truth.
    """

    design: str
    bit_flip_rate: float = 0.0
    num_species: int = 4
    genome_length: int = 400
    num_reads: int = 16
    kmers_per_read: int = 30
    k: int = 10
    seed_tag: str = "fault-sweep"

    def __post_init__(self) -> None:
        if self.design not in FAULT_DESIGNS:
            raise FleetError(
                f"unknown design {self.design!r}; known: {FAULT_DESIGNS}"
            )

    def _dataset(self) -> Any:
        from ..faults import hash_seed
        from ..genomics import build_dataset

        # Dataset seed depends on the tag only: every (design, rate)
        # point of one sweep sees the same references and reads.
        return build_dataset(
            k=self.k,
            num_species=self.num_species,
            genome_length=self.genome_length,
            num_reads=self.num_reads,
            seed=hash_seed(self.seed_tag, "dataset") % 2**31,
        )

    def _backend(self, database: Any, injector: Any) -> Any:
        from ..faults import fault_injection, faulted_database
        from ..insitu.rowmajor import RowMajorMatcher
        from ..sieve.device import SieveDevice
        from ..sieve.type1 import Type1BankSim, Type1Layout

        if self.design == "database":
            if not injector.model.active:
                return database
            return faulted_database(database, injector)
        with fault_injection(injector):
            if self.design == "sieve":
                return SieveDevice.from_database(database)
            if self.design == "type1":
                return Type1BankSim(
                    Type1Layout(k=self.k), database.sorted_records()
                )
            return RowMajorMatcher(self.k, database.sorted_records())

    def run(self) -> Dict[str, Any]:
        from ..faults import FaultInjector, FaultModel, hash_seed

        dataset = self._dataset()
        database = dataset.database
        queries = [
            kmer
            for read in dataset.reads
            for kmer in list(read.kmers(self.k))[: self.kmers_per_read]
        ]
        truth = [database.get(q) for q in queries]
        model = FaultModel(
            bit_flip_rate=self.bit_flip_rate,
            seed=hash_seed(self.seed_tag, "rate", self.bit_flip_rate),
        )
        injector = FaultInjector(model)
        backend = self._backend(database, injector)
        if self.design == "type1":
            outcomes = [backend.match(q) for q in queries]
            answers = [(o.hit, o.payload) for o in outcomes]
        else:
            answers = [
                (r.hit, r.payload) for r in backend.query(queries)
            ]
        false_miss = false_hit = wrong_payload = 0
        for (hit, payload), expected in zip(answers, truth):
            if expected is None:
                false_hit += hit
            elif not hit:
                false_miss += 1
            elif payload != expected:
                wrong_payload += 1
        correct = len(queries) - false_miss - false_hit - wrong_payload
        stats = injector.stats
        return {
            "design": self.design,
            "bit_flip_rate": self.bit_flip_rate,
            "queries": len(queries),
            "accuracy": correct / len(queries),
            "false_miss": false_miss,
            "false_hit": false_hit,
            "wrong_payload": wrong_payload,
            "bits_flipped": stats.bits_flipped,
            "records_corrupted": stats.records_corrupted,
            "schedule_digest": injector.schedule_digest()[:16],
        }


@dataclass(frozen=True)
class MappingSweepJob(Job):
    """One (seed length x bit-flip rate) point of the mapping sweep.

    Mirrors :class:`FaultSweepJob`'s seeding discipline: the dataset
    and the planted reads depend only on ``seed_tag`` (every sweep
    point maps the *same* reads against the same references), and the
    :class:`repro.faults.FaultModel` seed depends on ``(seed_tag,
    bit_flip_rate)`` — never on the seed length — so every ``seed_k``
    at a given rate runs under the identically-seeded fault schedule.

    Reads are planted reference windows with i.i.d. substitution
    errors, so the true ``(genome, position)`` of every read is known
    exactly and the payload reports *location* recall, not just a
    mapped fraction: faults corrupt the Sieve filter (false seed
    misses/hits), longer seeds tolerate fewer errors per window, and
    the sweep tabulates both sensitivities at once.
    """

    seed_k: int = 11
    bit_flip_rate: float = 0.0
    num_species: int = 4
    genome_length: int = 400
    num_reads: int = 24
    read_length: int = 60
    error_rate: float = 0.05
    band: int = 3
    seed_tag: str = "mapping-sweep"

    def __post_init__(self) -> None:
        if self.read_length < self.seed_k:
            raise FleetError(
                f"read_length={self.read_length} shorter than "
                f"seed_k={self.seed_k}"
            )

    def _dataset(self) -> Any:
        from ..faults import hash_seed
        from ..genomics import build_dataset

        # Tag-only seed: every (seed_k, rate) point of one sweep sees
        # the same reference genomes (k changes the database image the
        # device loads, not the genomes it is built from).
        return build_dataset(
            k=self.seed_k,
            num_species=self.num_species,
            genome_length=self.genome_length,
            num_reads=1,
            seed=hash_seed(self.seed_tag, "dataset") % 2**31,
        )

    def _planted_reads(self, genomes: Any) -> Any:
        import numpy as np

        from ..faults import hash_seed
        from ..genomics.synthetic import mutate

        rng = np.random.default_rng(
            hash_seed(self.seed_tag, "reads") % 2**31
        )
        planted = []
        for i in range(self.num_reads):
            genome_index = int(rng.integers(0, len(genomes)))
            genome = genomes[genome_index]
            start = int(
                rng.integers(0, len(genome.bases) - self.read_length + 1)
            )
            window = genome.subsequence(start, start + self.read_length)
            read = mutate(window, self.error_rate, rng)
            planted.append((f"mapread_{i}", read, genome_index, start))
        return planted

    def run(self) -> Dict[str, Any]:
        from dataclasses import replace

        from ..faults import (
            FaultInjector,
            FaultModel,
            fault_injection,
            hash_seed,
        )
        from ..mapping import (
            MappingConfig,
            ReadMapper,
            SeedExtender,
            SeedIndex,
        )
        from ..sieve.device import SieveDevice

        dataset = self._dataset()
        genomes = dataset.genomes
        planted = self._planted_reads(genomes)
        model = FaultModel(
            bit_flip_rate=self.bit_flip_rate,
            seed=hash_seed(self.seed_tag, "rate", self.bit_flip_rate),
        )
        injector = FaultInjector(model)
        with fault_injection(injector):
            device = SieveDevice.from_database(dataset.database)
        extender = SeedExtender(
            SeedIndex.from_genomes(genomes, self.seed_k),
            genomes,
            MappingConfig(band=self.band, max_edits=self.band),
        )
        mapper = ReadMapper(device, extender)
        mapped = correct_location = edit_total = 0
        for read_id, read, genome_index, start in planted:
            result = mapper.map_read(replace(read, seq_id=read_id))
            if not result.mapped:
                continue
            mapped += 1
            edit_total += result.edit_distance
            if result.genome_index == genome_index and (
                result.position == start
            ):
                correct_location += 1
        stats = extender.stats
        return {
            "seed_k": self.seed_k,
            "bit_flip_rate": self.bit_flip_rate,
            "reads": self.num_reads,
            "mapped": mapped,
            "correct_location": correct_location,
            "recall": correct_location / self.num_reads,
            "mean_edit_distance": edit_total / mapped if mapped else 0.0,
            "seed_hits": stats.seed_hits,
            "candidates": stats.candidates,
            "dp_cells": stats.dp_cells,
            "bits_flipped": injector.stats.bits_flipped,
            "schedule_digest": injector.schedule_digest()[:16],
        }


@dataclass(frozen=True)
class ExperimentJob(Job):
    """One whole registry experiment, serialized to its golden payload.

    Used by the fleet CLI to parallelize *across* experiments; the
    experiment's own inner fan-out runs inline inside the worker (no
    nested pools).  The golden updater runs it twice to prove
    determinism.
    """

    name: str

    def run(self) -> Dict[str, Any]:
        from ..experiments.registry import run_experiment
        from .golden import figure_payload

        return figure_payload(run_experiment(self.name))


@dataclass(frozen=True)
class BenchJob(Job):
    """One tracked benchmark of :mod:`repro.bench` (wall time + counters)."""

    name: str
    quick: bool = False

    def run(self) -> Dict[str, Any]:
        from ..bench import BENCHMARKS, BenchError

        try:
            fn = BENCHMARKS[self.name]
        except KeyError:
            raise BenchError(
                f"unknown benchmark {self.name!r}; tracked: {list(BENCHMARKS)}"
            ) from None
        outcome = fn(self.quick)
        # Scenarios return (wall_s, counters) or (wall_s, counters,
        # extras) — extras are reported but never baseline-compared.
        if len(outcome) == 3:
            wall_s, counters, extras = outcome
        else:
            wall_s, counters = outcome
            extras = {}
        payload = {"name": self.name, "wall_s": wall_s, "counters": counters}
        if extras:
            payload["extras"] = extras
        return payload


@dataclass(frozen=True)
class ReplayJob(Job):
    """Deterministic service replay of a saved workload trace.

    The worker loads the :class:`repro.workloads.Trace` artifact,
    rebuilds the reference dataset from the parameters embedded in the
    trace and serves the trace in the deterministic pre-enqueue mode
    (optionally through dedup and the hot-k-mer cache).  The backend is
    ``num_shards`` in-process :class:`~repro.sieve.SieveDevice`
    replicas when ``workers == 0``; otherwise one
    :class:`repro.cluster.ClusterBackend` (``num_shards`` is then
    unused) whose forked workers open the reference from
    content-hashed mmap segments in a scratch directory and slice out
    only their owned partitions.

    The payload is a pure function of the trace's content and the
    other fields (no wall times, no path), so a moved but identical
    trace replays to the same payload.  It holds the trace's SHA-256,
    the classification digest the trace-replay goldens pin, the
    service counters, a ``cache`` block when dedup or the cache is on,
    and for a cluster its residency facts (no worker holds a full
    build; owned records sum to the reference).
    """

    trace_path: str = ""
    num_shards: int = 2
    max_batch_kmers: int = 128
    dedup: bool = False
    cache_capacity: int = 0
    cache_self_check: bool = False
    workers: int = 0
    shards_per_worker: int = 1
    partitions: int = 32

    def run(self) -> Dict[str, Any]:
        import tempfile

        from ..cluster import ClusterBackend
        from ..serialization import save_segments
        from ..service import ClassificationService, ClusterConfig, ServiceConfig
        from ..sieve import SieveDevice
        from ..workloads import Trace, classification_digest, replay_trace

        trace = Trace.load(self.trace_path)
        dataset = trace.rebuild_dataset()
        with contextlib.ExitStack() as stack:
            if self.workers:
                segdir = stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="sieve-cluster-")
                )
                save_segments(dataset.database, segdir)
                cluster = ClusterBackend(
                    segdir,
                    cluster=ClusterConfig(
                        workers=self.workers,
                        shards_per_worker=self.shards_per_worker,
                        partitions=self.partitions,
                    ),
                )
                stack.callback(cluster.close)
                backends = [cluster]
            else:
                backends = [
                    SieveDevice.from_database(dataset.database)
                    for _ in range(self.num_shards)
                ]
            config = ServiceConfig(
                num_shards=len(backends),
                max_batch_kmers=self.max_batch_kmers,
                max_linger_s=0.0,
                queue_depth=len(trace),
                dedup=self.dedup,
                cache_capacity=self.cache_capacity,
                cache_self_check=self.cache_self_check,
            )
            service = ClassificationService(backends, config)
            responses = replay_trace(service, trace)
            stats = service.stats()
            counters = stats["metrics"]["counters"]
            payload: Dict[str, Any] = {
                "trace_hash": trace.content_hash(),
                "classification_digest": classification_digest(responses),
                "requests": len(responses),
                "batches": counters["batches_total"],
                "kmers": counters["kmers_total"],
                "hits": counters["hits_total"],
                "classified": sum(
                    1 for r in responses if r.classification.taxon is not None
                ),
                "correct": sum(
                    1
                    for req, resp in zip(trace.requests, responses)
                    if resp.classification.taxon == req.taxon_id
                ),
                "sim_time_ns": int(stats["clocks"]["sim_time_ns"]),
            }
            if "cache" in stats:
                payload["cache"] = {
                    name: stats["cache"][name]
                    for name in (
                        "hit_kmers",
                        "dedup_kmers",
                        "device_kmers",
                        "evictions",
                        "self_checked_kmers",
                    )
                }
            if self.workers:
                rows = cluster.cluster_stats()
                residents = [
                    row["resident"]
                    for row in rows["workers"]
                    if row["state"] == "live"
                ]
                payload.update(
                    live_workers=rows["live_workers"],
                    partitions=rows["partitions"],
                    full_build=any(r["full_build"] for r in residents),
                    owned_records=sum(r["owned_records"] for r in residents),
                    total_records=max(
                        (r["total_records"] for r in residents), default=0
                    ),
                )
        return payload


@dataclass(frozen=True)
class SanitizerProbeJob(Job):
    """Self-check that the DRAM protocol sanitizer reached a worker.

    With ``violate=True`` and a sanitizer installed, issues a READ
    before any ACTIVATE on a probe unit — the sanitizer must raise
    :class:`~repro.analysiskit.SanitizerError` (which then propagates
    across the process boundary with its command history).  Without a
    sanitizer the violation goes unobserved and the payload reports so.
    """

    violate: bool = True

    def run(self) -> Dict[str, Any]:
        from ..analysiskit import active_sanitizer

        sanitizer = active_sanitizer()
        if sanitizer is None:
            return {"sanitizer_active": False, "violated": False}
        if self.violate:
            sanitizer.observe_command("fleet-probe", "RD", 3)
        return {"sanitizer_active": True, "violated": False}
