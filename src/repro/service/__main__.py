"""``python -m repro.service`` — self-checking service load demo.

Boots an in-process :class:`ClassificationService` over a synthetic
dataset, drives it with concurrent client coroutines (default 1000
requests through bounded queues with retry-on-429), then replays every
read through the *sequential scalar* path on a fresh backend and
verifies the coalesced classifications are bit-identical.  Exits
non-zero on any mismatch, so CI can run it as a smoke test.

``--metrics-json PATH`` dumps the full ``stats()`` payload (counters,
p50/p95/p99 latency, batch occupancy, deployment projections); ``-``
writes it to stdout.

Configuration is declarative-first: ``--config service.toml`` loads a
:meth:`ServiceConfig.from_file` document and every CLI flag *actually
passed* becomes an override on top of it (flags left at their defaults
defer to the file).  ``--cluster-workers N`` (or a ``[cluster]`` table
in the file) switches the demo to the multi-process topology: one
:class:`repro.cluster.ClusterBackend` fronts ``N`` forked workers that
each mmap the segment directory and own only their consistent-hash
share of the k-mer space; ``--cluster-restarts`` drives rolling
restarts mid-stream and the post-run residency assertion proves no
worker ever held a full database build.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import sys
from typing import List, Optional

from ..api import QueryBackend, classification_from_results
from .client import ServiceClient
from .config import ClusterConfig, ServiceConfig
from .server import ClassificationService

#: Backends the demo can serve (all speak :class:`repro.api.QueryBackend`).
BACKENDS = ("sieve", "database", "kraken", "clark", "sortedlist")


def make_backend(name: str, database) -> QueryBackend:
    """Fresh backend replica of ``database`` (one per shard)."""
    if name == "sieve":
        from ..sieve.device import SieveDevice

        return SieveDevice.from_database(database)
    if name == "database":
        return database
    if name == "kraken":
        from ..baselines.kraken import KrakenClassifier

        return KrakenClassifier(database)
    if name == "clark":
        from ..baselines.hashtable import ClarkClassifier

        return ClarkClassifier(database)
    if name == "sortedlist":
        from ..baselines.sortedlist import SortedListClassifier

        return SortedListClassifier(database)
    raise ValueError(f"unknown backend {name!r}; known: {BACKENDS}")


def build_parser(add_help: bool = True) -> argparse.ArgumentParser:
    """Demo argument surface (``add_help=False`` lets the ``sieve-repro
    service`` subcommand mount it via ``parents=``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Sieve-as-a-service demo: async sharded "
        "classification with micro-batching.",
        add_help=add_help,
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="run the self-checking concurrent load demo",
    )
    parser.add_argument(
        "--config",
        metavar="PATH",
        default=None,
        help="load a ServiceConfig TOML document; CLI flags passed "
        "explicitly override the file, unset flags defer to it",
    )
    parser.add_argument(
        "--requests", type=int, default=1000, help="concurrent requests"
    )
    parser.add_argument(
        "--backend", choices=BACKENDS, default="sieve", help="engine to serve"
    )
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument(
        "--max-batch", type=int, default=64, help="coalescing target (k-mers)"
    )
    parser.add_argument(
        "--linger-ms",
        type=float,
        default=0.5,
        help="max time a non-full batch waits for stragglers",
    )
    parser.add_argument("--queue-depth", type=int, default=64)
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline (default: none)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--k", type=int, default=15)
    parser.add_argument(
        "--executor-threads",
        type=int,
        default=0,
        help="worker threads for blocking backend query() calls "
        "(0 = inline on the event loop)",
    )
    parser.add_argument(
        "--pipelined",
        action="store_true",
        help="overlap host-side prep of batch N+1 with device simulation "
        "of batch N (implies --executor-threads 1 when unset)",
    )
    parser.add_argument(
        "--mmap-db",
        metavar="DIR",
        default=None,
        help="save the reference as an mmap segment directory and serve "
        "every shard from it read-only (zero-copy, shared pages)",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="dump the stats() payload as JSON ('-' for stdout)",
    )
    cache = parser.add_argument_group(
        "dedup / hot-k-mer cache (repro.service.cache; docs/SERVICE.md)"
    )
    cache.add_argument(
        "--dedup",
        action="store_true",
        help="answer every unique k-mer at most once per coalesced batch",
    )
    cache.add_argument(
        "--cache-capacity",
        type=int,
        default=0,
        help="hot-k-mer result cache entries (0 disables; implies dedup)",
    )
    cache.add_argument(
        "--cache-self-check",
        action="store_true",
        help="shadow mode: device re-answers every batch and each "
        "cached/deduped answer is verified against it",
    )
    workload = parser.add_argument_group(
        "workload traces (repro.workloads; docs/TESTING.md)"
    )
    workload.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="replay a saved trace artifact (rebuilds its reference "
        "dataset when the trace embeds the parameters)",
    )
    workload.add_argument(
        "--gen-trace",
        metavar="PATH",
        default=None,
        help="generate a zipfian bursty trace over the demo dataset, "
        "save it to PATH, and serve it",
    )
    workload.add_argument(
        "--zipf-s",
        type=float,
        default=1.2,
        help="zipf exponent of the generated trace's taxon abundance",
    )
    cluster = parser.add_argument_group(
        "multi-process shard cluster (repro.cluster; docs/SERVICE.md)"
    )
    cluster.add_argument(
        "--cluster-workers",
        type=int,
        default=0,
        help="forked worker processes serving consistent-hash "
        "partitions of the k-mer space (0 = in-process shards)",
    )
    cluster.add_argument(
        "--cluster-shards-per-worker",
        type=int,
        default=1,
        help="shard slots (hash-ring nodes) per worker process",
    )
    cluster.add_argument(
        "--cluster-partitions",
        type=int,
        default=64,
        help="fixed k-mer partition count (ownership granularity)",
    )
    cluster.add_argument(
        "--cluster-restarts",
        type=int,
        default=0,
        help="rolling worker restarts to schedule mid-stream "
        "(exercises drain/respawn under the schedule sanitizer)",
    )
    fault = parser.add_argument_group(
        "fault injection (repro.faults; docs/TESTING.md)"
    )
    fault.add_argument(
        "--bit-flip-rate",
        type=float,
        default=0.0,
        help="per-bit load-time flip probability (0 disables)",
    )
    fault.add_argument(
        "--fault-tag",
        default="service-demo",
        help="content-hash tag seeding the fault schedule",
    )
    fault.add_argument(
        "--chaos-crashes",
        type=int,
        default=0,
        help="shard crashes to schedule (capped at shards - 1)",
    )
    fault.add_argument(
        "--chaos-stalls",
        type=int,
        default=0,
        help="shard stalls to schedule",
    )
    fault.add_argument(
        "--chaos-stall-ms",
        type=float,
        default=5.0,
        help="duration of each scheduled stall",
    )
    return parser


#: CLI flag -> ServiceConfig field, with the unit transform applied on
#: override (the parser speaks ms, the config speaks seconds).
_CONFIG_OVERRIDES = (
    ("shards", "num_shards", lambda v: v),
    ("max_batch", "max_batch_kmers", lambda v: v),
    ("linger_ms", "max_linger_s", lambda v: v / 1e3),
    ("queue_depth", "queue_depth", lambda v: v),
    (
        "deadline_ms",
        "default_deadline_s",
        lambda v: v / 1e3 if v is not None else None,
    ),
    ("executor_threads", "executor_threads", lambda v: v),
    ("pipelined", "pipelined", lambda v: v),
    ("dedup", "dedup", lambda v: v),
    ("cache_capacity", "cache_capacity", lambda v: v),
    ("cache_self_check", "cache_self_check", lambda v: v),
)

_CLUSTER_OVERRIDES = (
    ("cluster_workers", "workers"),
    ("cluster_shards_per_worker", "shards_per_worker"),
    ("cluster_partitions", "partitions"),
)


def resolve_config(
    args: argparse.Namespace,
    parser: Optional[argparse.ArgumentParser] = None,
) -> ServiceConfig:
    """Merge ``--config`` (if any) with explicitly-passed CLI flags.

    A flag overrides the file only when its parsed value differs from
    the parser default — flags the user never touched defer to the
    document, so a config file is the single source of truth until a
    flag contradicts it.  Cluster topology merges the same way: a
    ``[cluster]`` table enables the multi-process backend, and
    ``--cluster-workers > 0`` enables (or reshapes) it from the CLI.
    """
    parser = parser or build_parser()
    config = (
        ServiceConfig.from_file(args.config) if args.config else ServiceConfig()
    )
    overrides = {}
    for dest, field_name, transform in _CONFIG_OVERRIDES:
        value = getattr(args, dest)
        if value != parser.get_default(dest):
            overrides[field_name] = transform(value)
    cluster = config.cluster
    cluster_overrides = {}
    for dest, field_name in _CLUSTER_OVERRIDES:
        value = getattr(args, dest)
        if value != parser.get_default(dest):
            cluster_overrides[field_name] = value
    if cluster is None and args.cluster_workers > 0:
        cluster = ClusterConfig(**cluster_overrides)
    elif cluster is not None and cluster_overrides:
        cluster = dataclasses.replace(cluster, **cluster_overrides)
    if cluster is not config.cluster:
        overrides["cluster"] = cluster
    pipelined = overrides.get("pipelined", config.pipelined)
    threads = overrides.get("executor_threads", config.executor_threads)
    if pipelined and threads == 0:
        # Pipelining needs at least one executor thread to overlap with
        # (the config itself rejects the inconsistent pair).
        overrides["executor_threads"] = 1
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


async def _serve(
    service: ClassificationService,
    client: ServiceClient,
    reads: List,
):
    """The event-loop half of the demo: serve the load, then drain.

    Everything blocking (dataset/backend construction, the sequential
    reference replay, report printing, metrics-file writes) stays in
    the synchronous :func:`run_demo` wrapper so nothing stalls the
    loop while shards are live (lint rule SV007).
    """
    await service.start()
    responses = await client.classify_many(reads)
    await service.stop(drain=True)
    return responses


def run_demo(args: argparse.Namespace) -> int:
    from ..analysiskit import enable_schedule_from_env
    from ..genomics.synthetic import build_dataset

    # CI smoke jobs export SIEVE_SANITIZE=1: the demo then runs with the
    # ScheduleSanitizer verifying exactly-once/coalescing invariants.
    enable_schedule_from_env()

    dataset_params = dict(
        k=args.k,
        num_species=4,
        genome_length=600,
        num_reads=250,
        read_length=60,
        seed=args.seed,
    )
    trace = None
    if args.trace and args.gen_trace:
        print("--trace and --gen-trace are mutually exclusive")
        return 2
    if args.trace:
        from ..workloads import Trace

        trace = Trace.load(args.trace)
        if trace.dataset_params:
            # The trace pins its own reference; serve against that so
            # the replay means the same thing it meant when recorded.
            dataset = trace.rebuild_dataset()
        else:
            dataset = build_dataset(**dataset_params)
        if trace.k != dataset.k:
            print(f"trace k={trace.k} != dataset k={dataset.k}")
            return 2
        print(
            f"replaying trace {trace.label!r}: {len(trace)} requests "
            f"(content {trace.content_hash()[:12]})"
        )
    else:
        dataset = build_dataset(**dataset_params)
    if args.gen_trace:
        from ..workloads import generate_trace

        trace = generate_trace(
            dataset,
            args.requests,
            zipf_s=args.zipf_s,
            seed=args.seed,
            label="demo-zipf",
            dataset_params=dataset_params,
        )
        path = trace.save(args.gen_trace)
        print(
            f"generated trace {trace.label!r}: {len(trace)} requests, "
            f"zipf_s={args.zipf_s:g} -> {path} "
            f"(content {trace.content_hash()[:12]})"
        )
    try:
        config = resolve_config(args)
    except Exception as exc:  # noqa: BLE001 - config errors are user errors
        print(f"config error: {exc}")
        return 2
    cluster_cfg = config.cluster
    from ..faults import (
        ChaosInjector,
        ChaosPlan,
        FaultInjector,
        FaultModel,
        fault_injection,
        faulted_database,
    )

    # Optional DRAM/record fault model.  Replicas and the scalar
    # reference corrupt identically (reset_units between builds), so the
    # bit-identity self-check below still holds under injected faults.
    injector = None
    database = dataset.database
    if args.bit_flip_rate > 0:
        model = FaultModel.seeded(
            args.fault_tag, bit_flip_rate=args.bit_flip_rate
        )
        injector = FaultInjector(model)
        if args.backend != "sieve" or cluster_cfg is not None:
            # Record-level faulting: the cluster serves persisted
            # segments, so the corruption must land in the records
            # themselves (there is no per-worker DRAM build to fault).
            database = faulted_database(dataset.database, injector)

    seg_dir = None
    if args.mmap_db:
        # Zero-copy serving: persist the (possibly record-faulted)
        # reference once, then hand every replica the same read-only
        # mmap-backed view — shards share pages instead of copies.
        from pathlib import Path

        from .. import serialization
        from ..genomics import KmerDatabase

        seg_dir = Path(args.mmap_db)
        manifest = serialization.save_segments(database, seg_dir)
        database = KmerDatabase.open_mmap(seg_dir, verify=True)
        print(
            f"mmap segments: {len(database)} records at {seg_dir} "
            f"(content {manifest['content_hash'][:12]})"
        )

    def build_replica():
        if injector is not None and args.backend == "sieve":
            injector.reset_units()
            with fault_injection(injector):
                return make_backend(args.backend, database)
        return make_backend(args.backend, database)

    cluster_backend = None
    scratch = None
    if cluster_cfg is not None:
        import tempfile

        from ..cluster import ClusterBackend

        if seg_dir is None:
            # No --mmap-db: persist the reference into a scratch segment
            # directory just for the workers to map.
            from .. import serialization

            scratch = tempfile.TemporaryDirectory(prefix="sieve-cluster-")
            seg_dir = scratch.name
            serialization.save_segments(database, seg_dir)
        # One service shard fronts the whole cluster: coalescing happens
        # in the dispatcher, fan-out happens inside the backend.
        config = dataclasses.replace(config, num_shards=1)
        cluster_backend = ClusterBackend(seg_dir, cluster=cluster_cfg)
        for i in range(args.cluster_restarts):
            cluster_backend.schedule_restart(
                i % cluster_cfg.workers, at_query=5 * (i + 1)
            )
        backends = [cluster_backend]
        print(
            f"cluster: {cluster_cfg.workers} worker(s) x "
            f"{cluster_cfg.shards_per_worker} slot(s) over "
            f"{cluster_cfg.partitions} {cluster_cfg.strategy} "
            f"partitions, {args.cluster_restarts} scheduled restart(s)"
        )

    chaos = None
    if args.chaos_crashes or args.chaos_stalls:
        plan = ChaosPlan.seeded(
            args.fault_tag,
            num_shards=config.num_shards,
            crashes=args.chaos_crashes,
            stalls=args.chaos_stalls,
            stall_s=args.chaos_stall_ms / 1e3,
        )
        chaos = ChaosInjector(plan)

    if cluster_backend is None:
        backends = [build_replica() for _ in range(config.num_shards)]
    service = ClassificationService(backends, config, chaos=chaos)
    client = ServiceClient(service)

    if trace is not None:
        reads = trace.reads()
    else:
        reads = [
            dataset.reads[i % len(dataset.reads)]
            for i in range(args.requests)
        ]
    responses = asyncio.run(_serve(service, client, reads))

    # Sequential scalar reference on a fresh (identically faulted)
    # replica; the cluster is checked against the very database image
    # its workers mapped, queried one k-mer at a time.
    reference = database if cluster_backend is not None else build_replica()
    mismatches = 0
    for read, response in zip(reads, responses):
        kmers = list(read.kmers(dataset.k))
        expected = classification_from_results(
            read.seq_id,
            reference.query(kmers, batched=False),
            true_taxon=read.taxon_id,
        )
        if response.classification != expected:
            mismatches += 1

    stats = service.stats()
    counters = stats["metrics"]["counters"]
    latency = stats["metrics"]["histograms"]["request_latency_ms"]
    occupancy = stats["metrics"]["histograms"]["batch_occupancy"]
    backend_label = "cluster" if cluster_backend is not None else args.backend
    print(
        f"served {len(responses)} requests on {config.num_shards} "
        f"{backend_label} shard(s): {counters['batches_total']} batches, "
        f"mean occupancy {occupancy['mean']:.2f} reads/batch, "
        f"{counters.get('rejected_total', 0)} rejections"
    )
    print(
        f"latency ms p50={latency['p50']:.3f} p95={latency['p95']:.3f} "
        f"p99={latency['p99']:.3f}; simulated device time "
        f"{stats['clocks']['sim_time_ns'] / 1e3:.1f} us"
    )
    if "cache" in stats:
        cache_stats = stats["cache"]
        print(
            f"cache: hit rate {cache_stats['hit_rate']:.3f} "
            f"({cache_stats['hit_kmers']} hit / "
            f"{cache_stats['lookup_kmers']} k-mers, "
            f"{cache_stats['dedup_kmers']} deduped, "
            f"{cache_stats['evictions']} evictions); saved "
            f"{cache_stats['saved_kmers']} device k-mers, "
            f"{cache_stats['saved_sim_ns'] / 1e3:.1f} us device time"
        )
    if injector is not None:
        print(
            f"faults: bit_flip_rate={args.bit_flip_rate:g} "
            f"({injector.stats.bits_flipped} bits flipped, "
            f"{injector.stats.records_corrupted} records corrupted); "
            f"degraded={stats['health']['degraded']}"
        )
    if chaos is not None:
        print(
            f"chaos: {chaos.stats.crashes} crash(es), "
            f"{chaos.stats.stalls} stall(s), "
            f"{counters.get('redispatched_total', 0)} redispatched; "
            f"healthy shards "
            f"{stats['health']['healthy_shards']}/{config.num_shards}"
        )
    cluster_fail = False
    if cluster_backend is not None:
        topo = cluster_backend.cluster_stats()
        residents = [
            row["resident"]
            for row in topo["workers"]
            if row["state"] == "live"
        ]
        owned = sum(r["owned_records"] for r in residents)
        print(
            f"cluster: {topo['live_workers']} live worker(s), "
            f"{topo['restarts']} restart(s), {topo['handoffs']} "
            f"handoff(s); resident {owned}/{len(database)} records, "
            f"max slice {max((r['owned_records'] for r in residents), default=0)}"
        )
        # Residency assertion: every worker serves its partition slice
        # from the shared mmap segments — never a per-process full build.
        from pathlib import Path

        bad = [
            r
            for r in residents
            if r["full_build"]
            or r["kind"] != "host-sorted-array-mmap"
            or Path(str(r["source"])).resolve() != Path(str(seg_dir)).resolve()
        ]
        if bad or owned != len(database):
            print(
                "FAIL: cluster residency assertion — every worker must "
                "hold only its mmap-backed partition slice and the "
                "slices must cover the reference exactly once"
            )
            cluster_fail = True
        cluster_backend.close()
        if scratch is not None:
            scratch.cleanup()
    if "deployment" in stats:
        for design, row in stats["deployment"]["projections"].items():
            print(
                f"projected {design}: {row['throughput_qps'] / 1e9:.3f} "
                f"Gqueries/s for this trace"
            )
    if args.metrics_json:
        payload = json.dumps(stats, indent=2, sort_keys=True)
        if args.metrics_json == "-":
            print(payload)
        else:
            with open(args.metrics_json, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            print(f"wrote metrics to {args.metrics_json}")
    if mismatches:
        print(
            f"FAIL: {mismatches}/{len(reads)} coalesced classifications "
            "differ from the sequential scalar path"
        )
        return 1
    if cluster_fail:
        return 1
    print(
        f"OK: all {len(reads)} coalesced classifications are bit-identical "
        "to the sequential scalar path"
    )
    return 0


def run_from_args(args: argparse.Namespace) -> int:
    """Entry point shared with the ``sieve-repro service`` subcommand."""
    if not args.demo:
        build_parser().print_help()
        print("\n(only --demo mode is implemented; pass --demo)")
        return 2
    return run_demo(args)


def main(argv: List[str] | None = None) -> int:
    return run_from_args(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
