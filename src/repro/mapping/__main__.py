"""Self-checking demo of the mapping service request type.

Serves a seeded read set through :meth:`ClassificationService.
submit_mapping` — optionally fronting a multi-process cluster backend —
and verifies every mapping answer bit-for-bit against the sequential
scalar reference pipeline (database filter + the same extender
config).  Exits non-zero on any mismatch, so CI's ``mapping-smoke``
job is a real end-to-end correctness gate, not a liveness probe.

Usage::

    python -m repro.mapping --requests 200 --cluster-workers 2 \
        --metrics-json mapping-metrics.json

``SIEVE_SANITIZE=1`` additionally subscribes the ScheduleSanitizer, which
audits the mapping requests' admit/coalesce/execute/complete schedule
exactly like classification traffic (the k-mer leg is the same path),
and the ProtocolSanitizer, which checks the DRAM commands.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from .pipeline import MappingConfig, ReadMapper, SeedExtender
from .seeds import SeedIndex


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.mapping",
        description="Self-checking read-mapping service demo "
        "(docs/MAPPING.md)",
    )
    parser.add_argument(
        "--requests", type=int, default=200, help="reads to map"
    )
    parser.add_argument("--k", type=int, default=11, help="seed length")
    parser.add_argument(
        "--band", type=int, default=3, help="extension band / edit budget"
    )
    parser.add_argument(
        "--extension",
        choices=("host", "insitu"),
        default="host",
        help="extension cost model (answers are identical)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        help="in-process device shards (ignored with --cluster-workers)",
    )
    parser.add_argument(
        "--cluster-workers",
        type=int,
        default=0,
        help="serve the filter from this many forked cluster workers",
    )
    parser.add_argument(
        "--dedup",
        action="store_true",
        help="enable cross-request k-mer dedup in the dispatcher",
    )
    parser.add_argument(
        "--cache-capacity",
        type=int,
        default=0,
        help="hot-k-mer result cache capacity (0 = off)",
    )
    parser.add_argument("--seed", type=int, default=33, help="dataset seed")
    parser.add_argument(
        "--metrics-json",
        type=Path,
        default=None,
        help="write the service stats payload (mapping section included)",
    )
    return parser


async def _serve(service, reads) -> List:
    await service.start()
    futures = [service.submit_mapping(read) for read in reads]
    responses = await asyncio.gather(*futures)
    await service.stop(drain=True)
    return list(responses)


def main(argv: Optional[List[str]] = None) -> int:
    from ..analysiskit import enable_from_env, enable_schedule_from_env
    from ..genomics.synthetic import build_dataset
    from ..service import ClassificationService
    from ..service.config import ClusterConfig, ServiceConfig

    args = build_parser().parse_args(argv)
    enable_schedule_from_env()
    enable_from_env()

    dataset = build_dataset(
        k=args.k,
        num_species=4,
        genome_length=600,
        num_reads=args.requests,
        read_length=60,
        error_rate=0.02,
        novel_fraction=0.1,
        seed=args.seed,
    )
    seed_index = SeedIndex.from_genomes(dataset.genomes, args.k)
    mapping_config = MappingConfig(
        band=args.band, max_edits=args.band, extension=args.extension
    )

    # Sequential scalar reference: database filter + identical extender
    # policy.  This is the answer the service must reproduce exactly.
    reference = ReadMapper(
        dataset.database,
        SeedExtender(seed_index, dataset.genomes, mapping_config),
    ).map_reads(dataset.reads)
    reference_payloads = [r.to_payload() for r in reference]

    extender = SeedExtender(seed_index, dataset.genomes, mapping_config)
    scratch: Optional[tempfile.TemporaryDirectory] = None
    cluster_backend = None
    try:
        if args.cluster_workers > 0:
            from ..cluster import ClusterBackend
            from ..serialization import save_segments

            scratch = tempfile.TemporaryDirectory(prefix="sieve-mapdemo-")
            save_segments(dataset.database, scratch.name)
            cluster_backend = ClusterBackend(
                scratch.name, ClusterConfig(workers=args.cluster_workers)
            )
            backends = [cluster_backend]
            topology = f"cluster x{args.cluster_workers} workers"
        else:
            from ..sieve.device import SieveDevice

            backends = [
                SieveDevice.from_database(dataset.database)
                for _ in range(args.shards)
            ]
            topology = f"{args.shards} device shard(s)"
        config = ServiceConfig(
            num_shards=len(backends),
            max_linger_s=0.0,
            queue_depth=max(args.requests, 64),
            dedup=args.dedup,
            cache_capacity=args.cache_capacity,
        )
        service = ClassificationService(backends, config, extender=extender)
        responses = asyncio.run(_serve(service, dataset.reads))
        stats = service.stats()
    finally:
        if cluster_backend is not None:
            cluster_backend.close()
        if scratch is not None:
            scratch.cleanup()

    served_payloads = [r.mapping.to_payload() for r in responses]
    mismatches = sum(
        1
        for got, want in zip(served_payloads, reference_payloads)
        if got != want
    )
    mapped = sum(1 for p in served_payloads if p["mapped"])
    extension = stats["mapping"]["extension"]
    print(
        f"mapped {mapped}/{len(served_payloads)} reads via {topology} "
        f"(k={args.k}, band={args.band}, extension={args.extension})"
    )
    print(
        f"extend stage: {stats['mapping']['candidates']} candidates, "
        f"{stats['mapping']['aligned']} aligned, "
        f"{stats['mapping']['dp_cells']} DP cells, "
        f"{extension['time_ns']:.0f} modelled ns"
    )
    if args.metrics_json is not None:
        stats["demo"] = {
            "topology": topology,
            "requests": len(served_payloads),
            "mapped": mapped,
            "mismatches": mismatches,
        }
        args.metrics_json.write_text(json.dumps(stats, indent=2) + "\n")
        print(f"metrics -> {args.metrics_json}")
    if mismatches:
        print(
            f"FAIL: {mismatches} mapping answer(s) diverged from the "
            "scalar reference"
        )
        return 1
    print("self-check OK: service mapping == scalar reference, bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
