"""The classification service: shard pool, routing, lifecycle, stats.

A :class:`ClassificationService` owns N :class:`ShardWorker` tasks,
each wrapping its own :class:`repro.api.QueryBackend` replica (the
paper's per-rank database replication, Section V-A).  Requests are
routed round-robin; because every shard holds the full reference set,
any shard can answer any read and the router needs no content
awareness.

``stats()`` is the service's observability surface (the ``/stats``
payload of the demo server and the ``--metrics-json`` dump): config,
per-shard functional counters, the metrics snapshot with
p50/p95/p99 latency and batch occupancy, and — when the backends are
functional Sieve devices — a Fig. 15/16-style *deployment* section
that merges the shards' :class:`DeviceStats`, summarizes them as a
:class:`~repro.sieve.perfmodel.WorkloadStats`, and projects Type-1 /
Type-3 device throughput for the exact traffic the service just
served, alongside the observed simulated matching rate fed through
the host pipeline model (:func:`repro.pipeline.analyze_observed_pipeline`).
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence

from ..api import QueryBackend
from . import hooks
from .cache import KmerResultCache
from .config import ServiceConfig
from .dispatcher import Request, ServiceError, ServiceResponse, ShardWorker, _rid
from .metrics import MetricsRegistry
from .stats import STATS_SCHEMA


class ClassificationService:
    """Async sharded k-mer classification server (in-process)."""

    def __init__(
        self,
        backends: Sequence[QueryBackend],
        config: Optional[ServiceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        chaos: Optional[Any] = None,
        extender: Optional[Any] = None,
    ) -> None:
        if not backends:
            raise ServiceError("need at least one backend")
        config = config or ServiceConfig(num_shards=len(backends))
        if config.num_shards != len(backends):
            raise ServiceError(
                f"config.num_shards={config.num_shards} but "
                f"{len(backends)} backends supplied"
            )
        ks = {b.capabilities().k for b in backends}
        if len(ks) != 1:
            raise ServiceError(f"shards disagree on k: {sorted(ks)}")
        self.k = ks.pop()
        #: Optional :class:`repro.mapping.SeedExtender` enabling the
        #: mapping request type (:meth:`submit_mapping`): the shards
        #: stay pure seed-location filters, extension runs host-side on
        #: each request's sliced filter answers.
        if extender is not None and extender.k != self.k:
            raise ServiceError(
                f"mapping extender k={extender.k} does not match "
                f"service k={self.k}"
            )
        self.extender = extender
        self.config = config
        self.metrics = metrics or MetricsRegistry()
        #: Optional :class:`repro.faults.ChaosInjector` shared by every
        #: shard (the plan addresses shards by id).
        self.chaos = chaos
        self._executor = None
        if config.executor_threads > 0:
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(
                max_workers=config.executor_threads,
                thread_name_prefix="sieve-shard",
            )
        #: One dedup/cache planner shared by every shard: replicas hold
        #: the same reference, so an answer recorded through one shard
        #: is valid for all of them.  Only ever touched on the event
        #: loop thread (see :mod:`repro.service.cache`).
        self.cache: Optional[KmerResultCache] = None
        if config.cache_enabled:
            canonicals = {b.capabilities().canonical for b in backends}
            if len(canonicals) != 1:
                raise ServiceError(
                    "cache/dedup needs all shards to agree on "
                    "canonicalization; backends report "
                    f"{sorted(canonicals)}"
                )
            self.cache = KmerResultCache(
                config.cache_capacity, self.k, canonicals.pop()
            )
        self.shards: List[ShardWorker] = [
            ShardWorker(
                i,
                backend,
                config,
                self.metrics,
                chaos=chaos,
                on_crash=self._redispatch,
                scope=self,
                executor=self._executor,
                cache=self.cache,
            )
            for i, backend in enumerate(backends)
        ]
        self._tasks: List["asyncio.Task[None]"] = []
        self._next_shard = 0
        self._draining = False
        self._req_counter = 0

    @classmethod
    def from_database(
        cls,
        database,
        config: Optional[ServiceConfig] = None,
        etm_enabled: bool = True,
    ) -> "ClassificationService":
        """Replicate ``database`` onto one functional Sieve device per
        shard (the deployment the paper evaluates)."""
        from ..sieve.device import SieveDevice

        config = config or ServiceConfig()
        backends = [
            SieveDevice.from_database(database, etm_enabled=etm_enabled)
            for _ in range(config.num_shards)
        ]
        return cls(backends, config)

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        if self._tasks:
            raise ServiceError("service already started")
        self._draining = False
        self._tasks = [
            asyncio.ensure_future(shard.run()) for shard in self.shards
        ]

    async def drain(self) -> None:
        """Wait until every queued request has been dispatched.

        Draining is unbounded by design: every queued request resolves
        through dispatch, deadline expiry, or crash failover, so the
        join always terminates once workers make progress.
        """
        self._draining = True
        try:
            await asyncio.gather(*(s.queue.join() for s in self.shards))  # lint: disable=SV010 (every queued request terminates via dispatch/expiry/failover)
        finally:
            self._draining = False
        if hooks.OBSERVER is not None:
            hooks.OBSERVER.on_service_quiesce(self)

    async def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: optionally drain, then cancel the workers.

        Without a drain, every request still unanswered resolves with a
        :class:`ServiceError` (the worker loops fail what they hold).
        """
        if drain and self._tasks:
            await self.drain()
        for task in self._tasks:
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        for shard in self.shards:
            # A worker cancelled before its first step never ran its
            # loop, so nothing released its queue yet.
            shard.release_queued()
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    @property
    def running(self) -> bool:
        return bool(self._tasks)

    # -- request path ---------------------------------------------------------

    def submit(
        self, read, deadline_s: Optional[float] = None
    ) -> "asyncio.Future[ServiceResponse]":
        """Enqueue one read; returns the future it resolves through.

        Raises :class:`RejectedError` immediately when the routed
        shard's queue is full (retry via :class:`ServiceClient`).
        """
        return self._submit(read, deadline_s, None)

    def submit_mapping(
        self, read, deadline_s: Optional[float] = None
    ) -> "asyncio.Future[ServiceResponse]":
        """Enqueue one *mapping* request; resolves with
        ``ServiceResponse.mapping`` set.

        The k-mer leg is the classification path byte-for-byte — same
        coalescing, dedup, cache, and sanitizer audit — so mapping
        answers are bit-identical at any shard/worker topology.
        Requires the service to have been built with an ``extender``.
        """
        if self.extender is None:
            raise ServiceError(
                "service has no mapping extender; pass extender= to "
                "ClassificationService to enable submit_mapping"
            )
        return self._submit(read, deadline_s, self.extender)

    def _submit(
        self, read, deadline_s: Optional[float], extender: Optional[Any]
    ) -> "asyncio.Future[ServiceResponse]":
        if self._draining:
            raise ServiceError("service is draining; no new requests")
        loop = asyncio.get_running_loop()
        shard = self._healthy_shard()
        if shard is None:
            raise ServiceError("no healthy shards available")
        deadline_s = (
            deadline_s
            if deadline_s is not None
            else self.config.default_deadline_s
        )
        now = loop.time()
        self._req_counter += 1
        request = Request(
            read=read,
            kmers=list(read.kmers(self.k)),
            future=loop.create_future(),
            enqueued_at=now,
            deadline=now + deadline_s if deadline_s is not None else None,
            req_id=self._req_counter,
            extender=extender,
        )
        shard.try_submit(request)
        return request.future

    async def classify(
        self, read, deadline_s: Optional[float] = None
    ) -> ServiceResponse:
        """Submit and await one read (no retry on rejection)."""
        return await self.submit(read, deadline_s=deadline_s)

    async def map_read(
        self, read, deadline_s: Optional[float] = None
    ) -> ServiceResponse:
        """Submit and await one mapping request (no retry on rejection)."""
        return await self.submit_mapping(read, deadline_s=deadline_s)

    # -- failover -------------------------------------------------------------

    def _healthy_shard(
        self, exclude: Optional[int] = None
    ) -> Optional[ShardWorker]:
        """Next round-robin shard that is not crashed (nor ``exclude``)."""
        n = len(self.shards)
        for offset in range(n):
            candidate = self.shards[(self._next_shard + offset) % n]
            if candidate.health.state == "crashed":
                continue
            if exclude is not None and candidate.shard_id == exclude:
                continue
            self._next_shard = (candidate.shard_id + 1) % n
            return candidate
        return None

    async def _redispatch(
        self, from_shard: int, orphans: List[Request]
    ) -> None:
        """Failover: re-route a crashed shard's orphaned requests.

        Uses a *blocking* queue put — accepted work is never re-rejected
        for backpressure, it just waits for room on a surviving shard.
        Requests keep their original futures, so callers observe an
        ordinary (if slower) completion; exactly-once semantics hold
        because the crashing shard failed before executing the batch.
        """
        for req in orphans:
            target = self._healthy_shard(exclude=from_shard)
            if target is None:
                if not req.future.done():
                    req.future.set_exception(
                        ServiceError("all shards crashed; request lost")
                    )
                    if hooks.OBSERVER is not None:
                        hooks.OBSERVER.on_request_failed(
                            self, from_shard, _rid(req)
                        )
                continue
            # Blocking put is the failover contract (see docstring):
            # accepted work waits for room rather than being re-rejected.
            await target.queue.put(req)  # lint: disable=SV010 (deliberate blocking put; failover never re-rejects accepted work)
            self.metrics.counter("submitted_total").inc()
            # Re-admit is announced *after* the put, i.e. at the queue
            # position the request really took: while a full queue
            # blocks the put, fresh submissions are admitted and queued
            # ahead of it.  ``Queue.put`` does not yield between its
            # ``put_nowait`` and returning, so the target worker cannot
            # coalesce the request before this announcement.
            if hooks.OBSERVER is not None:
                hooks.OBSERVER.on_request_admitted(
                    self, target.shard_id, _rid(req), len(req.kmers)
                )

    # -- observability --------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """JSON-serializable service state (the ``/stats`` payload)."""
        from ..sieve.device import DeviceStats

        shard_rows = []
        merged: Optional[DeviceStats] = None
        degraded = False
        for worker in self.shards:
            backend_stats = worker.backend.stats()
            capabilities = worker.backend.capabilities()
            degraded = degraded or capabilities.degraded
            degraded = degraded or worker.health.state == "crashed"
            shard_rows.append(
                {
                    "shard": worker.shard_id,
                    "backend": capabilities.name,
                    "queries": backend_stats.queries,
                    "hits": backend_stats.hits,
                    "hit_rate": backend_stats.hit_rate,
                    "queue_depth": worker.queue.qsize(),
                    "sim_time_ns": worker.sim_time_ns,
                    "sim_energy_nj": worker.sim_energy_nj,
                    "health": worker.health.as_dict(),
                    "degraded": capabilities.degraded,
                }
            )
            device_stats = getattr(worker.backend, "stats", None)
            if isinstance(device_stats, DeviceStats):
                if merged is None:
                    merged = DeviceStats()
                merged.absorb(device_stats)
        sim_time_ns = sum(w.sim_time_ns for w in self.shards)
        out: Dict[str, Any] = {
            "schema": STATS_SCHEMA,
            "service": {
                "config": self.config.to_dict(),
                "k": self.k,
            },
            "health": {
                "shards": shard_rows,
                "healthy_shards": sum(
                    1 for w in self.shards if w.health.state != "crashed"
                ),
                "degraded": degraded,
            },
            "clocks": {
                "sim_time_ns": sim_time_ns,
                "sim_energy_nj": sum(
                    w.sim_energy_nj for w in self.shards
                ),
            },
            "metrics": self.metrics.snapshot(),
        }
        if self.cache is not None:
            out["cache"] = self.cache.counters()
        if self.extender is not None:
            out["mapping"] = self.extender.stats_dict()
        kmers_served = self.metrics.counter("kmers_total").value
        if sim_time_ns > 0 and kmers_served:
            out["observed"] = self._observed(kmers_served, sim_time_ns)
        if merged is not None and merged.queries:
            deployment = self._deployment(merged)
            if deployment is not None:
                out["deployment"] = deployment
        cluster_rows = []
        for worker in self.shards:
            cluster_stats = getattr(worker.backend, "cluster_stats", None)
            if callable(cluster_stats):
                cluster_rows.append(cluster_stats())
        if cluster_rows:
            # One cluster backend per shard is the supported topology
            # (num_shards=1 fronting a ClusterBackend); keep the list
            # shape anyway so mixed deployments stay representable.
            out["cluster"] = (
                cluster_rows[0] if len(cluster_rows) == 1 else cluster_rows
            )
        return out

    def _observed(
        self, kmers_served: int, sim_time_ns: float
    ) -> Dict[str, Any]:
        """Observed simulated matching rate -> pipeline bottleneck."""
        from ..pipeline import analyze_observed_pipeline

        qps = kmers_served / (sim_time_ns * 1e-9)
        report = analyze_observed_pipeline(qps)
        return {
            "simulated_matching_qps": qps,
            "pipeline": {
                "stage_qps": dict(report.stage_qps),
                "bottleneck": report.bottleneck,
                "sustained_qps": report.sustained_qps,
                "matching_utilization": report.matching_utilization,
            },
        }

    def _deployment(self, merged) -> Optional[Dict[str, Any]]:
        """Project paper-model throughput for the served traffic."""
        from ..sieve.perfmodel import (
            ModelError,
            Type1Model,
            Type3Model,
            WorkloadStats,
        )

        try:
            workload = WorkloadStats.from_functional(
                "service", self.k, merged
            )
        except ModelError:
            return None
        projections = {}
        for model in (Type1Model(), Type3Model()):
            result = model.run(workload)
            projections[model.design] = {
                "time_s": result.time_s,
                "energy_j": result.energy_j,
                "throughput_qps": result.throughput_qps,
            }
        return {
            "workload": {
                "num_kmers": workload.num_kmers,
                "hit_rate": workload.hit_rate,
                "index_filtered_fraction": workload.index_filtered_fraction,
            },
            "projections": projections,
        }
