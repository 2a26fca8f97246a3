"""One workload in its own process: set up, warm up, measure, check.

``run.py`` starts ``python3 workloads.py`` once per workload and writes a
pickled request ``{"name", "inputs", "trace_path", "work_dir"}`` to its
stdin.  The process prints one JSON line: the metric values, the
answer check, and (traced runs) the full layer table.

Order inside the process:

1. set up ``SETUP_REPEATS`` times (timed; ``setup_s`` is the median),
   keeping only the last instance;
2. warm up on that instance with the warm-up inputs (untimed), then
   compute the reference answer of every pool entry;
3. run the phases ``inputs["phases"]`` describes, recording every
   request's due, send and answer times; a traced phase runs with the
   :mod:`tracing` wrappers installed.  Each answer is compared with its
   reference right after its sample (a query call, a round, or the
   whole open-loop phase) and then dropped, so the heap -- and the
   garbage collector's work -- stays flat across the run.

Reference-speed seconds.  On a shared host the same code runs up to
~1.7x slower from one second to the next (other tenants contend for
the cores), which swamps any change worth detecting.  So every timed
closed-loop sample -- a set-up, a query call, a round -- is preceded by
:func:`speed_probe`, a fixed slice of interpreter and numpy work that
touches no program code, and the sample's duration is scaled by
``PROBE_REF_S / probe time``.  On an idle host the two agree and the
scaled value is the wall time.  The open loop keeps wall times (see
``ServeZipfOpen._open_loop``).  Unscaled values are reported as well.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import json
import math
import pickle
import resource
import shutil
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import tracing

# lint: disable=SV012 (this harness times the program: reading the clock is its job)

SETUP_REPEATS = 3
#: Device slots per query batch (``SubarrayLayout.queries_per_group``).
DEVICE_BATCH_SLOTS = 64
#: :func:`speed_probe`'s time on the reference host (2-vCPU x86
#: container) when nothing else contends for it.
PROBE_REF_S = 0.0015
_PROBE_KEYS = np.random.default_rng(0).integers(0, 1 << 62, 20_000, dtype=np.uint64)


def speed_probe() -> float:
    """Seconds this host takes right now for a fixed slice of work.

    Interpreter arithmetic plus a numpy sort, like the program's own mix;
    it allocates nothing the garbage collector tracks, so the program's
    heap cannot slow it down.
    """
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    np.sort(_PROBE_KEYS)
    return time.perf_counter() - start


def reference_scale() -> float:
    """Factor that turns the next sample's seconds into reference seconds."""
    return PROBE_REF_S / speed_probe()


@dataclass
class Request:
    """One timed request: when it was due, sent and answered."""

    due: float
    sent: float
    done: float = math.nan
    failed: bool = False
    #: Reference-speed factor of the sample this request belongs to.
    scale: float = 1.0


@dataclass
class Phase:
    """What one phase did: its requests and how their answers checked."""

    traced: bool
    start: float = 0.0
    items: int = 0  # k-mers answered
    attempted: int = 0  # answers due: k-mers (lookups) or requests
    wrong: int = 0
    #: Mapping requests: accepted placements among the candidates verified.
    placements: int = 0
    candidates: int = 0
    requests: List[Request] = field(default_factory=list)
    #: Closed loops: ``(seconds, scale)`` of each back-to-back sample.
    #: An open loop's pace is set by its schedule, so it has none.
    samples: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.requests if r.failed)

    @property
    def end(self) -> float:
        return max(r.done for r in self.requests if not r.failed)

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def throughput(self) -> float:
        """k-mers per reference second of the program's busy time."""
        if not self.samples:
            return self.items / self.wall_s
        return self.items / sum(s * scale for s, scale in self.samples)

    def latencies_ms(self, raw: bool = False) -> List[float]:
        return [
            (r.done - r.due) * 1e3 * (1.0 if raw else r.scale)
            for r in self.requests
            if not r.failed
        ]

    def lags_ms(self) -> List[float]:
        return [(r.sent - r.due) * 1e3 for r in self.requests]


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _phase_over(spec: Dict[str, Any], phase: Phase, done_units: int) -> bool:
    if "units" in spec:
        return done_units >= spec["units"]
    return time.perf_counter() - phase.start >= spec["seconds"]


class Workload:
    """Base: reference database, references, and program counters."""

    #: Whether requests are mapping requests (answers carry a mapping).
    mapping = False

    def __init__(self, inputs: Dict[str, Any], work_dir: str) -> None:
        self.inputs = inputs
        self.work_dir = work_dir
        self.k = inputs["k"]
        self.pool = inputs["pool"]
        self.database = None
        self.devices: List[Any] = []
        self.service = None
        self.extender = None
        self.references: List[Any] = []
        #: Next pool entry; phases continue where the last one stopped.
        self.cursor = 0

    def next_index(self) -> int:
        index = self.cursor % len(self.pool)
        self.cursor += 1
        return index

    def build_database(self):
        from repro.genomics import KmerDatabase

        return KmerDatabase.from_genomes(
            ((g, g.taxon_id) for g in self.inputs["genomes"]),
            self.k,
            canonical=self.inputs["canonical"],
            taxonomy=self.inputs["taxonomy"],
        )

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_phase(self, spec: Dict[str, Any]) -> Phase:
        raise NotImplementedError

    def compute_references(self) -> None:
        """The independent answer of every pool entry."""
        self.references = [self.reference(item) for item in self.pool]

    def reference(self, item: Any) -> Any:
        raise NotImplementedError

    def verify(self, phase: Phase, index: int, answer: Any) -> None:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Cumulative program counters (deltas give a phase's share)."""
        out: Dict[str, float] = defaultdict(float)
        for device in self.devices:
            stats = device.stats
            out["device_queries"] += stats.queries
            out["device_filtered"] += stats.index_filtered
            out["device_rows"] += stats.row_activations
            out["device_writes"] += stats.write_commands
            out["device_batches"] += stats.batches
        if self.service is not None:
            metrics = self.service.metrics
            out["service_batches"] = metrics.counter("batches_total").value
            out["service_kmers"] = metrics.counter("kmers_total").value
            out["backend_kmers"] = sum(w.backend.stats().queries for w in self.service.shards)
            out["service_sim_ns"] = sum(w.sim_time_ns for w in self.service.shards)
            latency = metrics.histogram("request_latency_ms")
            out["reported_ms_total"] = latency.total
            out["reported_count"] = latency.count
            if self.service.cache is not None:
                cache = self.service.cache.counters()
                for key in ("lookup_kmers", "hit_kmers", "dedup_kmers", "device_kmers"):
                    out["cache_" + key] = cache[key]
        if self.extender is not None:
            stats = self.extender.stats
            out["map_reads"] = stats.reads
            out["map_candidates"] = stats.candidates
            out["map_dp_cells"] = stats.dp_cells
        return out

    def device_sim_ns(self, rows: float, writes: float) -> float:
        if not self.devices:
            return 0.0
        cost = self.devices[0].batch_cost(
            {"row_activations": int(rows), "write_commands": int(writes)}
        )
        return cost[0]


# -- lookup_bulk: the device alone ------------------------------------------


class LookupBulk(Workload):
    """Closed loop of ``SieveDevice.query`` calls in the paper's layout."""

    def setup(self) -> None:
        from repro.sieve import SieveDevice, SubarrayLayout

        self.database = self.build_database()
        layout = SubarrayLayout(k=self.k).with_max_layers()
        self.devices = [SieveDevice.from_database(self.database, layout=layout)]

    def warm_up(self) -> None:
        for kmers in self.inputs["warmup"]:
            self.devices[0].query(kmers)

    def run_phase(self, spec: Dict[str, Any]) -> Phase:
        device = self.devices[0]
        clock = time.perf_counter
        phase = Phase(spec["traced"], start=clock())
        call = 0
        while not _phase_over(spec, phase, call):
            scale = reference_scale()
            due = clock()  # the caller is ready: previous call checked, host probed
            index = self.next_index()
            kmers = self.pool[index]
            sent = clock()
            results = device.query(kmers)
            done = clock()
            phase.requests.append(Request(due, sent, done, scale=scale))
            phase.samples.append((done - due, scale))
            phase.items += len(kmers)
            self.verify(phase, index, results)
            call += 1
        return phase

    def reference(self, kmers: List[int]) -> List[Tuple[int, bool, Any]]:
        return [(r.query, r.hit, r.payload) for r in self.database.query(kmers)]

    def verify(self, phase: Phase, index: int, results: Any) -> None:
        want = self.references[index]
        got = [(r.query, r.hit, r.payload) for r in results]
        phase.attempted += len(want)
        phase.wrong += sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))


# -- service workloads --------------------------------------------------------


class ServiceWorkload(Workload):
    """A :class:`ClassificationService` on one long-lived event loop."""

    def __init__(self, inputs: Dict[str, Any], work_dir: str) -> None:
        super().__init__(inputs, work_dir)
        self.loop: Optional[asyncio.AbstractEventLoop] = None

    def submit(self, read: Any) -> "asyncio.Future[Any]":
        if self.mapping:
            return self.service.submit_mapping(read)
        return self.service.submit(read)

    def send(
        self, phase: Phase, due: float, index: int, scale: float = 1.0
    ) -> Optional["asyncio.Future[Any]"]:
        """Submit pool read ``index``; a refusal counts as failed."""
        from repro.service import ServiceError

        read = self.pool[index]
        request = Request(due, time.perf_counter(), scale=scale)
        phase.requests.append(request)
        phase.attempted += 1
        try:
            future = self.submit(read)
        except ServiceError:
            request.failed = True
            return None
        future.add_done_callback(functools.partial(_answered, request))
        phase.items += read.kmer_count(self.k)
        return future

    async def settle(self, phase: Phase, sent: List[Tuple[int, Any]]) -> None:
        """Wait for ``(pool index, future)`` pairs, then check them."""
        await asyncio.gather(*(f for _, f in sent if f is not None), return_exceptions=True)
        for index, future in sent:
            if future is not None and not future.cancelled() and future.exception() is None:
                self.verify(phase, index, future.result())

    def warm_up(self) -> None:
        """Start the service and answer the warm-up reads, in rounds of
        ``round_reads`` (all at once when the workload has no rounds)."""
        reads = self.inputs["warmup"]
        size = self.inputs.get("round_reads", len(reads))

        async def warm() -> None:
            await self.service.start()
            for first in range(0, len(reads), size):
                await asyncio.gather(*(self.submit(r) for r in reads[first : first + size]))

        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(warm())

    def stop_service(self) -> None:
        if self.loop is not None:
            self.loop.run_until_complete(self.service.stop())
            self.loop.close()
            self.loop = None

    def teardown(self) -> None:
        self.stop_service()

    def reference(self, read: Any) -> Any:
        from repro.api import classification_from_results

        results = self.database.query(read.kmer_list(self.k))
        return classification_from_results(read.seq_id, results, true_taxon=read.taxon_id)

    def verify(self, phase: Phase, index: int, response: Any) -> None:
        phase.wrong += int(response.classification != self.references[index])


def _answered(request: Request, future: "asyncio.Future[Any]") -> None:
    request.done = time.perf_counter()
    request.failed = future.cancelled() or future.exception() is not None


class ServeZipfOpen(ServiceWorkload):
    """Open loop: independent clients at a fixed rate, timed from due."""

    def setup(self) -> None:
        from repro.service import ClassificationService, ServiceConfig
        from repro.sieve import SieveDevice, SubarrayLayout

        self.database = self.build_database()
        layout = SubarrayLayout(k=self.k, row_bits=1152, rows_per_subarray=256).with_max_layers()
        self.devices = [SieveDevice.from_database(self.database, layout=layout) for _ in range(2)]
        config = ServiceConfig(
            num_shards=2,
            max_batch_kmers=256,
            max_linger_s=0.002,
            dedup=True,
            cache_capacity=16384,
            executor_threads=2,
            pipelined=True,
            queue_depth=256,
        )
        self.service = ClassificationService(self.devices, config)

    def run_phase(self, spec: Dict[str, Any]) -> Phase:
        return self.loop.run_until_complete(self._open_loop(spec))

    async def _open_loop(self, spec: Dict[str, Any]) -> Phase:
        """Requests keep raw wall times (scale 1): measured over 6 seeds,
        scaling by the probe made this loop's p95 spread 0.33 instead of
        0.12, because its tail follows the executor threads' scheduling,
        not the host's speed."""
        clock = time.perf_counter
        # A short lead so the first request is not already late.
        phase = Phase(spec["traced"], start=clock() + 0.002)
        sent = []
        for offset in spec["offsets"]:
            due = phase.start + offset
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            index = self.next_index()
            sent.append((index, self.send(phase, due, index)))
        await self.settle(phase, sent)
        return phase


class RoundWorkload(ServiceWorkload):
    """Pre-enqueued rounds: a client submits ``round_reads`` reads at
    once and waits for all answers; zero linger and no executor make
    batch composition deterministic."""

    def run_phase(self, spec: Dict[str, Any]) -> Phase:
        return self.loop.run_until_complete(self._rounds(spec))

    async def _rounds(self, spec: Dict[str, Any]) -> Phase:
        size = self.inputs["round_reads"]
        phase = Phase(spec["traced"], start=time.perf_counter())
        rounds = 0
        while not _phase_over(spec, phase, rounds):
            scale = reference_scale()
            indices = [self.next_index() for _ in range(size)]
            due = time.perf_counter()
            await self.settle(phase, [(i, self.send(phase, due, i, scale)) for i in indices])
            answered = [r.done for r in phase.requests[-size:] if not r.failed]
            phase.samples.append((max(answered, default=due) - due, scale))
            rounds += 1
        return phase


class ClusterUniform(RoundWorkload):
    """Service fronting a 2-worker :class:`ClusterBackend` (no device)."""

    def __init__(self, inputs: Dict[str, Any], work_dir: str) -> None:
        super().__init__(inputs, work_dir)
        self.backend = None
        self.segment_dir: Optional[str] = None

    def setup(self) -> None:
        from repro.cluster import ClusterBackend
        from repro.serialization import save_segments
        from repro.service import ClassificationService, ClusterConfig, ServiceConfig

        self.database = self.build_database()
        self.segment_dir = tempfile.mkdtemp(prefix="segments-", dir=self.work_dir)
        save_segments(self.database, self.segment_dir)
        cluster = ClusterConfig(workers=2)
        self.backend = ClusterBackend(self.segment_dir, cluster=cluster)
        config = ServiceConfig(
            num_shards=1,
            max_batch_kmers=2048,
            dedup=True,
            cache_capacity=16384,
            queue_depth=self.inputs["round_reads"],
            cluster=cluster,
        )
        self.service = ClassificationService([self.backend], config)

    def teardown(self) -> None:
        try:
            self.stop_service()
        finally:
            if self.backend is not None:
                self.backend.close()
                self.backend = None
            if self.segment_dir is not None:
                shutil.rmtree(self.segment_dir, ignore_errors=True)
                self.segment_dir = None


class MapReads(RoundWorkload):
    """Mapping requests: device filter, then host seed-and-extend."""

    mapping = True

    def setup(self) -> None:
        from repro.mapping import MappingConfig, SeedExtender, SeedIndex
        from repro.service import ClassificationService, ServiceConfig
        from repro.sieve import SieveDevice, SubarrayLayout

        genomes = self.inputs["genomes"]
        self.database = self.build_database()
        layout = SubarrayLayout(k=self.k, row_bits=1152, rows_per_subarray=256).with_max_layers()
        self.devices = [SieveDevice.from_database(self.database, layout=layout) for _ in range(2)]
        self.seed_index = SeedIndex.from_genomes(genomes, self.k)
        self.mapping_config = MappingConfig(band=8, max_edits=8)
        self.extender = SeedExtender(self.seed_index, genomes, self.mapping_config)
        config = ServiceConfig(
            num_shards=2, max_batch_kmers=4096, queue_depth=self.inputs["round_reads"]
        )
        self.service = ClassificationService(self.devices, config, extender=self.extender)

    def reference(self, read: Any) -> Any:
        from repro.mapping import ReadMapper, SeedExtender

        extender = SeedExtender(self.seed_index, self.inputs["genomes"], self.mapping_config)
        return ReadMapper(self.database, extender).map_read(read)

    def verify(self, phase: Phase, index: int, response: Any) -> None:
        mapping = response.mapping
        phase.wrong += int(mapping != self.references[index])
        phase.placements += len(mapping.locations)
        phase.candidates += mapping.candidates


WORKLOADS: Dict[str, Callable[[Dict[str, Any], str], Workload]] = {
    "lookup_bulk": LookupBulk,
    "serve_zipf_open": ServeZipfOpen,
    "cluster_uniform": ClusterUniform,
    "map_reads": MapReads,
}


# -- metrics ------------------------------------------------------------------


def end_to_end_metrics(phase: Phase, setups: List[Tuple[float, float]], peak_rss_mb: float) -> Dict[str, float]:
    """The ``end_to_end`` metrics, in reference seconds."""
    latencies = phase.latencies_ms()
    return {
        "throughput_kmers_per_s": phase.throughput(),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p95_ms": percentile(latencies, 95),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": float(np.median([s * scale for s, scale in setups])),
    }


def layer_metrics(
    workload: Workload,
    untraced: Phase,
    traced: Phase,
    delta: Dict[str, float],
    tracer: tracing.Tracer,
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """Per-layer metrics of the traced phase, plus the full layer table."""
    wall = traced.wall_s
    table = tracer.layer_table(wall)
    out: Dict[str, float] = {}
    for name in tracing.SPAN_NAMES:
        out[f"{name}.calls"] = table[name]["calls"]
        out[f"{name}.self_share"] = table[name]["self_share"]
    out["harness.unattributed.self_share"] = table["harness.unattributed"]["self_share"]
    out["harness.traced_wall_s"] = wall
    untraced_p50 = percentile(untraced.latencies_ms(), 50)
    out["harness.tracing_overhead"] = ratio(percentile(traced.latencies_ms(), 50), untraced_p50) - 1
    out["harness.generator_lag_p99_ms"] = percentile(traced.lags_ms(), 99)
    out["harness.worker_threads_busy_share"] = tracer.worker_busy_s() / wall

    queries = delta["device_queries"]
    out["sieve.device.batches"] = delta["device_batches"]
    out["sieve.device.batch_occupancy"] = ratio(
        queries - delta["device_filtered"], delta["device_batches"] * DEVICE_BATCH_SLOTS
    )
    out["sieve.device.row_activations_per_kmer"] = ratio(delta["device_rows"], queries)
    out["sieve.device.index_filtered_share"] = ratio(delta["device_filtered"], queries)
    out["sieve.device.sim_ns_per_kmer"] = ratio(
        workload.device_sim_ns(delta["device_rows"], delta["device_writes"]), queries
    )

    batches = delta["service_batches"]
    measured_ms = traced.latencies_ms(raw=True)  # the service reports wall time
    out["service.sim_ns_per_kmer"] = ratio(delta["service_sim_ns"], delta["service_kmers"])
    out["service.dispatcher.kmers_per_dispatch"] = ratio(delta["backend_kmers"], batches)
    out["service.dispatcher.reported_to_measured_latency"] = ratio(
        ratio(delta["reported_ms_total"], delta["reported_count"]),
        ratio(sum(measured_ms), len(measured_ms)),
    )
    lookups = delta["cache_lookup_kmers"]
    out["service.cache.hit_rate"] = ratio(delta["cache_hit_kmers"], lookups)
    out["service.cache.dedup_share"] = ratio(delta["cache_dedup_kmers"], lookups)
    out["service.cache.device_kmer_share"] = ratio(delta["cache_device_kmers"], lookups)

    is_cluster = isinstance(workload, ClusterUniform)
    out["cluster.backend.kmers_per_query"] = (
        ratio(delta["backend_kmers"], batches) if is_cluster else 0.0
    )
    out["cluster.worker_peak_rss_mb"] = 0.0  # filled in after the workers exit

    reads = delta["map_reads"]
    out["mapping.candidates_per_read"] = ratio(delta["map_candidates"], reads)
    out["mapping.dp_cells_per_read"] = ratio(delta["map_dp_cells"], reads)
    out["mapping.accept_share"] = ratio(traced.placements, traced.candidates)
    return out, table


def _max_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def run(name: str, inputs: Dict[str, Any], work_dir: str, trace_path: Optional[str] = None) -> Dict[str, Any]:
    """Run one workload in this process; returns the result payload."""
    workload = WORKLOADS[name](inputs, work_dir)
    tracer = tracing.Tracer()
    setups: List[Tuple[float, float]] = []  # (seconds, scale)
    phases: List[Phase] = []
    delta: Dict[str, float] = defaultdict(float)
    try:
        for attempt in range(SETUP_REPEATS):
            if attempt:
                workload.teardown()
            scale = reference_scale()
            start = time.perf_counter()
            workload.setup()
            setups.append((time.perf_counter() - start, scale))
        workload.warm_up()
        workload.compute_references()
        for spec in inputs["phases"]:
            gc.collect()
            if not spec["traced"]:
                phases.append(workload.run_phase(spec))
                continue
            before = workload.counters()
            tracer.install()
            try:
                phases.append(workload.run_phase(spec))
            finally:
                tracer.remove()
            after = workload.counters()
            delta.update({key: after[key] - before.get(key, 0.0) for key in after})
        peak_rss_mb = _max_rss_mb(resource.RUSAGE_SELF)
    finally:
        workload.teardown()
    traced = phases[-1] if phases[-1].traced else None
    if traced is None:
        metrics, table = end_to_end_metrics(phases[0], setups, peak_rss_mb), {}
    else:
        metrics, table = layer_metrics(workload, phases[0], traced, delta, tracer)
        metrics["cluster.worker_peak_rss_mb"] = _max_rss_mb(resource.RUSAGE_CHILDREN)
        for number, request in enumerate(traced.requests):
            if not request.failed:
                tracer.record_request(number, request.sent, request.done)
        if trace_path:
            tracer.write_chrome_trace(trace_path, origin=traced.start)
    wrong = sum(p.wrong for p in phases)
    return {
        "correct": wrong == 0,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases) + wrong,
        "wrong": wrong,
        "metrics": metrics,
        "layers": table,
    }


def main() -> int:
    request = pickle.load(sys.stdin.buffer)
    result = run(
        request["name"], request["inputs"], request["work_dir"], request.get("trace_path")
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
