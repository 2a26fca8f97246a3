"""Integration tests for the async classification service (PR-4).

Covers the acceptance properties of ``repro.service``: coalesced
micro-batches classify bit-identically to the sequential scalar path,
bounded queues reject with retry hints, deadlines expire in the queue,
drain completes every accepted request, and the metrics snapshot
carries the promised percentile schema.  Everything runs on small
fixtures with ``max_linger_s=0`` and pre-enqueued requests, so batch
composition is deterministic on the single-threaded test loop.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro import hooks
from repro.api import (
    QueryBackendBase,
    ResultBatch,
    classification_from_results,
)
from repro.service import (
    CacheCoherencyError,
    ClassificationService,
    DeadlineExceededError,
    KmerResultCache,
    RejectedError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.cache import CacheError
from repro.service.config import ServiceConfigError
from repro.service.metrics import Histogram, MetricsRegistry
from repro.sieve import SieveDevice


def make_service(dataset, layout, **overrides) -> ClassificationService:
    defaults = dict(
        num_shards=2,
        max_batch_kmers=96,
        max_linger_s=0.0,
        queue_depth=256,
    )
    defaults.update(overrides)
    config = ServiceConfig(**defaults)
    backends = [
        SieveDevice.from_database(dataset.database, layout=layout)
        for _ in range(config.num_shards)
    ]
    return ClassificationService(backends, config)


async def serve_all(service, reads, deadline_s=None):
    """Pre-enqueue, start, gather, stop — the deterministic drive."""
    futures = [service.submit(r, deadline_s=deadline_s) for r in reads]
    await service.start()
    responses = await asyncio.gather(*futures)
    await service.stop(drain=True)
    return responses


#: The three dispatch modes: inline (no executor), executor at
#: in-flight depth 0, and pipelined (executor at depth 1).
DISPATCH_MODES = {
    "inline": {},
    "executor": {"executor_threads": 1},
    "pipelined": {"executor_threads": 1, "pipelined": True},
}


class TestCoalescingIdentity:
    def test_bit_identical_to_sequential_scalar(
        self, small_dataset, small_layout
    ):
        service = make_service(small_dataset, small_layout)
        reads = small_dataset.reads * 2
        responses = asyncio.run(serve_all(service, reads))

        reference = SieveDevice.from_database(
            small_dataset.database, layout=small_layout
        )
        for read, response in zip(reads, responses):
            kmers = list(read.kmers(small_dataset.k))
            expected = classification_from_results(
                read.seq_id,
                reference.query_scalar(kmers),
                true_taxon=read.taxon_id,
            )
            assert response.classification == expected
            assert response.num_kmers == len(kmers)

    def test_batches_actually_coalesce(self, small_dataset, small_layout):
        service = make_service(small_dataset, small_layout)
        responses = asyncio.run(serve_all(service, small_dataset.reads))
        counters = service.metrics.snapshot()["counters"]
        assert counters["batches_total"] < len(small_dataset.reads)
        assert any(r.coalesced_requests > 1 for r in responses)
        occupancy = service.metrics.snapshot()["histograms"][
            "batch_occupancy"
        ]
        assert occupancy["mean"] > 1.0

    def test_deterministic_counters_across_runs(
        self, small_dataset, small_layout
    ):
        def one_run():
            service = make_service(small_dataset, small_layout)
            asyncio.run(serve_all(service, small_dataset.reads))
            return service.metrics.snapshot()["counters"]

        assert one_run() == one_run()

    def test_simulated_batch_cost_reported(
        self, small_dataset, small_layout
    ):
        service = make_service(small_dataset, small_layout)
        responses = asyncio.run(serve_all(service, small_dataset.reads))
        assert all(r.sim_batch_ns > 0 for r in responses)
        stats = service.stats()
        assert stats["clocks"]["sim_time_ns"] == pytest.approx(
            sum(w.sim_time_ns for w in service.shards)
        )
        # The simulated clock prices the same events the device counted.
        total_activations = sum(
            w.backend.stats.row_activations for w in service.shards
        )
        assert total_activations > 0


class TestBackpressure:
    def test_full_queue_rejects_with_retry_hint(
        self, small_dataset, small_layout
    ):
        service = make_service(
            small_dataset, small_layout, num_shards=1, queue_depth=2
        )

        async def overfill():
            for read in small_dataset.reads[:2]:
                service.submit(read)
            with pytest.raises(RejectedError) as exc_info:
                service.submit(small_dataset.reads[2])
            assert (
                exc_info.value.retry_after_s
                == service.config.retry_after_s
            )

        asyncio.run(overfill())
        counters = service.metrics.snapshot()["counters"]
        assert counters["rejected_total"] == 1

    def test_client_retries_through_backpressure(
        self, small_dataset, small_layout
    ):
        service = make_service(
            small_dataset,
            small_layout,
            num_shards=1,
            queue_depth=2,
            retry_after_s=0.001,
        )

        async def drive():
            await service.start()
            client = ServiceClient(service)
            responses = await client.classify_many(small_dataset.reads)
            await service.stop(drain=True)
            return responses

        responses = asyncio.run(drive())
        assert len(responses) == len(small_dataset.reads)
        assert all(r.classification is not None for r in responses)


class TestAdmission:
    def test_bad_read_fails_alone_at_submit(
        self, small_dataset, small_layout
    ):
        """A read with an ``N`` raises from ``submit`` and is never
        admitted; the good reads around it coalesce into one batch and
        answer as the sequential path does."""
        from repro.analysiskit import ScheduleSanitizer
        from repro.genomics import DnaSequence, EncodingError

        good = small_dataset.reads[:4]
        # DnaSequence checks its bases on construction; forge the read an
        # unchecked source could hand to the service.
        bad = DnaSequence("bad", good[0].bases)
        object.__setattr__(bad, "bases", bad.bases[:10] + "N" + bad.bases[11:])
        service = make_service(
            small_dataset, small_layout, num_shards=1, max_batch_kmers=4096
        )
        sanitizer = ScheduleSanitizer()

        async def drive():
            futures = [service.submit(read) for read in good[:2]]
            with pytest.raises(EncodingError):
                service.submit(bad)
            assert service.shards[0].queue.qsize() == 2
            futures += [service.submit(read) for read in good[2:]]
            await service.start()
            responses = await asyncio.gather(*futures)
            # A drain ends the scope's trace, so read it first.
            history = sanitizer.history_for(service)
            await service.stop(drain=True)
            return responses, history

        with hooks.observing(*hooks.OBSERVERS, sanitizer):
            responses, history = asyncio.run(drive())

        counters = service.metrics.snapshot()["counters"]
        assert counters["submitted_total"] == len(good)
        assert counters["batches_total"] == 1
        reference = SieveDevice.from_database(
            small_dataset.database, layout=small_layout
        )
        for read, response in zip(good, responses):
            assert response.coalesced_requests == len(good)
            expected = classification_from_results(
                read.seq_id,
                reference.query_scalar(list(read.kmers(small_dataset.k))),
                true_taxon=read.taxon_id,
            )
            assert response.classification == expected
        admits = [
            detail
            for _, _, event, detail in history
            if event == "ADMIT"
        ]
        assert admits == [
            f"req={i + 1} kmers={read.kmer_count(small_dataset.k)}"
            for i, read in enumerate(good)
        ]
        assert sanitizer.violations_raised == 0


class TestLifecycle:
    def test_drain_completes_every_accepted_request(
        self, small_dataset, small_layout
    ):
        service = make_service(small_dataset, small_layout)

        async def drive():
            futures = [service.submit(r) for r in small_dataset.reads]
            await service.start()
            await service.drain()
            assert all(f.done() for f in futures)
            await service.stop(drain=False)

        asyncio.run(drive())

    def test_submit_while_draining_is_refused(
        self, small_dataset, small_layout
    ):
        service = make_service(small_dataset, small_layout)

        async def drive():
            service.submit(small_dataset.reads[0])
            await service.start()
            drain = asyncio.ensure_future(service.drain())
            await asyncio.sleep(0)
            if not drain.done():
                with pytest.raises(ServiceError):
                    service.submit(small_dataset.reads[1])
            await drain
            await service.stop(drain=False)

        asyncio.run(drive())

    def test_double_start_is_an_error(self, small_dataset, small_layout):
        service = make_service(small_dataset, small_layout)

        async def drive():
            await service.start()
            with pytest.raises(ServiceError):
                await service.start()
            await service.stop()

        asyncio.run(drive())

    @pytest.mark.parametrize("turns", [0, 1], ids=["unstarted", "running"])
    @pytest.mark.parametrize("mode", list(DISPATCH_MODES))
    def test_stop_without_drain_answers_every_request(
        self, small_dataset, small_layout, mode, turns
    ):
        """``stop(drain=False)`` leaves no admitted request pending.

        With no loop turn before the stop the workers are cancelled
        before their first step, so every request fails with a
        :class:`ServiceError`; after one turn the executor modes are
        cancelled mid-batch and inline mode may already have answered.
        """
        service = make_service(
            small_dataset, small_layout, **DISPATCH_MODES[mode]
        )

        async def drive():
            futures = [service.submit(r) for r in small_dataset.reads]
            await service.start()
            for _ in range(turns):
                await asyncio.sleep(0)
            await service.stop(drain=False)
            _, pending = await asyncio.wait(futures, timeout=1.0)
            return futures, pending

        futures, pending = asyncio.run(drive())
        assert not pending
        errors = [future.exception() for future in futures]
        assert all(e is None or isinstance(e, ServiceError) for e in errors)
        if turns == 0:
            assert all(isinstance(e, ServiceError) for e in errors)

    def test_deadline_expires_in_queue(self, small_dataset, small_layout):
        service = make_service(small_dataset, small_layout, num_shards=1)

        async def drive():
            future = service.submit(
                small_dataset.reads[0], deadline_s=1e-9
            )
            await asyncio.sleep(0.01)
            await service.start()
            with pytest.raises(DeadlineExceededError):
                await future
            await service.stop(drain=True)

        asyncio.run(drive())
        counters = service.metrics.snapshot()["counters"]
        assert counters["deadline_expired_total"] == 1


class TestObservability:
    def test_stats_schema_and_json_round_trip(
        self, small_dataset, small_layout
    ):
        service = make_service(small_dataset, small_layout)
        asyncio.run(serve_all(service, small_dataset.reads))
        stats = service.stats()
        assert stats["schema"] == "sieve-stats-v2"
        assert stats["service"]["k"] == small_dataset.k
        assert len(stats["health"]["shards"]) == 2
        for required in ("batches_total", "kmers_total", "hits_total"):
            assert required in stats["metrics"]["counters"]
        latency = stats["metrics"]["histograms"]["request_latency_ms"]
        for pct in ("p50", "p95", "p99"):
            assert latency[pct] >= 0.0
        assert latency["p50"] <= latency["p95"] <= latency["p99"]
        # Sieve shards -> deployment projection for the served trace.
        assert "deployment" in stats
        assert stats["deployment"]["workload"]["num_kmers"] > 0
        assert stats["deployment"]["projections"]
        assert "observed" in stats
        assert stats["observed"]["pipeline"]["bottleneck"]
        json.dumps(stats)  # the /stats payload must serialize

    def test_json_payload_emits_only_v2_keys(
        self, small_dataset, small_layout
    ):
        from repro.service import STATS_SCHEMA

        service = make_service(small_dataset, small_layout)
        asyncio.run(serve_all(service, small_dataset.reads))
        payload = json.loads(json.dumps(service.stats()))
        assert payload["schema"] == STATS_SCHEMA
        # Sieve shards without cache or extender: the grouped sections
        # plus the two served-traffic projections, nothing flat.
        assert set(payload) == {
            "schema",
            "service",
            "health",
            "clocks",
            "metrics",
            "observed",
            "deployment",
        }

    def test_shard_stats_merge_matches_totals(
        self, small_dataset, small_layout
    ):
        service = make_service(small_dataset, small_layout)
        asyncio.run(serve_all(service, small_dataset.reads))
        stats = service.stats()
        total_queries = sum(
            row["queries"] for row in stats["health"]["shards"]
        )
        counters = stats["metrics"]["counters"]
        assert total_queries == counters["kmers_total"]
        total_hits = sum(row["hits"] for row in stats["health"]["shards"])
        assert total_hits == counters["hits_total"]


class TestConfigAndMetrics:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_shards": 0},
            {"max_batch_kmers": 0},
            {"max_linger_s": -1.0},
            {"queue_depth": 0},
            {"default_deadline_s": 0.0},
            {"retry_after_s": 0.0},
            {"executor_threads": -1},
            {"cache_capacity": -1},
            {"cache_self_check": True},
        ],
    )
    def test_config_validation(self, overrides):
        with pytest.raises(ServiceConfigError):
            ServiceConfig(**overrides)

    def test_shard_count_must_match_backends(
        self, small_dataset, small_layout
    ):
        backends = [
            SieveDevice.from_database(
                small_dataset.database, layout=small_layout
            )
        ]
        with pytest.raises(ServiceError):
            ClassificationService(
                backends, ServiceConfig(num_shards=2)
            )

    def test_histogram_decimation_is_deterministic(self):
        def fill():
            h = Histogram("x", max_samples=16)
            for i in range(1000):
                h.observe(float(i % 97))
            return h.summary()

        a, b = fill(), fill()
        assert a == b
        assert a["count"] == 1000.0
        assert 0.0 <= a["p50"] <= a["p95"] <= a["p99"] <= 96.0

    def test_histogram_percentile_small_sample(self):
        h = Histogram("y")
        for v in (5.0, 1.0, 9.0):
            h.observe(v)
        assert h.percentile(50) == 5.0
        assert h.percentile(99) == 9.0
        assert h.summary()["min"] == 1.0

    def test_registry_rejects_kind_confusion(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError):
            registry.histogram("a")


class TestExecutorSeam:
    """``executor_threads > 0`` moves ``query()`` off the event loop.

    Results must stay bit-identical to the inline default — the
    executor only changes *where* the blocking call runs, never what
    it computes — and the schedule sanitizer (session fixture) must
    see a clean exactly-once schedule either way.
    """

    def test_executor_results_match_inline(self, small_dataset, small_layout):
        def one_run(threads):
            service = make_service(
                small_dataset,
                small_layout,
                num_shards=1,
                executor_threads=threads,
            )
            responses = asyncio.run(serve_all(service, small_dataset.reads))
            return [r.classification for r in responses]

        assert one_run(0) == one_run(1)

    def test_executor_is_shut_down_on_stop(self, small_dataset, small_layout):
        service = make_service(
            small_dataset, small_layout, num_shards=1, executor_threads=1
        )
        asyncio.run(serve_all(service, small_dataset.reads[:4]))
        assert service._executor is not None
        assert service._executor._shutdown


class TestPipelinedDispatch:
    """``pipelined=True`` overlaps host prep of batch N+1 with device
    simulation of batch N on the executor seam.

    Responses must stay bit-identical to the serial schedule (one
    in-flight device batch per shard, launched in admission order), and
    the session schedule sanitizer must see a clean exactly-once,
    admission-ordered schedule throughout.
    """

    def test_requires_executor(self):
        with pytest.raises(ServiceConfigError):
            ServiceConfig(pipelined=True, executor_threads=0)

    def test_bit_identical_to_serial(self, small_dataset, small_layout):
        def one_run(**overrides):
            service = make_service(
                small_dataset, small_layout, num_shards=1, **overrides
            )
            responses = asyncio.run(serve_all(service, small_dataset.reads))
            return [r.classification for r in responses]

        serial = one_run()
        pipelined = one_run(executor_threads=1, pipelined=True)
        assert pipelined == serial

    def test_matches_sequential_scalar(self, small_dataset, small_layout):
        service = make_service(
            small_dataset,
            small_layout,
            executor_threads=2,
            pipelined=True,
        )
        reads = small_dataset.reads * 2
        responses = asyncio.run(serve_all(service, reads))
        reference = SieveDevice.from_database(
            small_dataset.database, layout=small_layout
        )
        for read, response in zip(reads, responses):
            kmers = list(read.kmers(small_dataset.k))
            expected = classification_from_results(
                read.seq_id,
                reference.query_scalar(kmers),
                true_taxon=read.taxon_id,
            )
            assert response.classification == expected

    def test_drain_completes_every_request(self, small_dataset, small_layout):
        service = make_service(
            small_dataset,
            small_layout,
            num_shards=1,
            executor_threads=1,
            pipelined=True,
        )
        reads = small_dataset.reads * 3
        responses = asyncio.run(serve_all(service, reads))
        assert len(responses) == len(reads)
        counters = service.metrics.snapshot()["counters"]
        assert counters["completed_total"] == len(reads)

    def test_deterministic_counters_across_runs(
        self, small_dataset, small_layout
    ):
        def one_run():
            service = make_service(
                small_dataset,
                small_layout,
                num_shards=1,
                executor_threads=1,
                pipelined=True,
            )
            asyncio.run(serve_all(service, small_dataset.reads))
            return service.metrics.snapshot()["counters"]

        assert one_run() == one_run()

    def test_chaos_crash_redispatches(self, small_dataset, small_layout):
        """A shard crash mid-pipeline retires the in-flight batch and
        fails over the rest; every request still resolves."""
        from repro.faults import ChaosInjector, ChaosPlan

        config = ServiceConfig(
            num_shards=2,
            max_batch_kmers=96,
            max_linger_s=0.0,
            queue_depth=256,
            executor_threads=1,
            pipelined=True,
        )
        backends = [
            SieveDevice.from_database(
                small_dataset.database, layout=small_layout
            )
            for _ in range(config.num_shards)
        ]
        plan = ChaosPlan.seeded(
            "pipelined-crash", num_shards=config.num_shards, crashes=1
        )
        service = ClassificationService(
            backends, config, chaos=ChaosInjector(plan)
        )
        reads = small_dataset.reads * 2
        responses = asyncio.run(serve_all(service, reads))
        assert len(responses) == len(reads)
        assert (
            service.stats()["health"]["healthy_shards"]
            == config.num_shards - 1
        )
        reference = SieveDevice.from_database(
            small_dataset.database, layout=small_layout
        )
        for read, response in zip(reads, responses):
            expected = classification_from_results(
                read.seq_id,
                reference.query_scalar(list(read.kmers(small_dataset.k))),
                true_taxon=read.taxon_id,
            )
            assert response.classification == expected


class _GatedBackend:
    """Delegates to ``inner``; its first ``query()`` (on the executor
    thread) blocks until ``gate`` is set or ``timeout_s`` passes and
    records which happened."""

    def __init__(self, inner, gate, timeout_s):
        self.inner = inner
        self.gate = gate
        self.timeout_s = timeout_s
        self.opened = []

    def capabilities(self):
        return self.inner.capabilities()

    def stats(self):
        return self.inner.stats()

    def perf_counters(self):
        return self.inner.perf_counters()

    def batch_cost(self, delta):
        return self.inner.batch_cost(delta)

    def query(self, kmers):
        if not self.opened:
            self.opened.append(self.gate.wait(self.timeout_s))
        return self.inner.query(kmers)


class _CoalesceSpy(hooks.Observer):
    """Schedule observer that sets ``gate`` when batch 1 coalesces."""

    def __init__(self, gate):
        self.gate = gate

    def on_batch_coalesced(self, scope, shard_id, index, entries):
        if index == 1:
            self.gate.set()


class TestInFlightDepth:
    """Depth 1 coalesces batch N+1 while batch N is still running on
    the device; depth 0 does not start batch N+1 until N retired."""

    @pytest.mark.parametrize("pipelined", [False, True], ids=["depth0", "depth1"])
    def test_next_batch_coalesces_during_device_work(
        self, small_dataset, pipelined
    ):
        import threading

        gate = threading.Event()
        backend = _GatedBackend(small_dataset.database, gate, timeout_s=0.5)
        config = ServiceConfig(
            num_shards=1,
            max_batch_kmers=1,  # one request per batch
            max_linger_s=0.0,
            executor_threads=1,
            pipelined=pipelined,
        )
        service = ClassificationService([backend], config)
        with hooks.observing(*hooks.OBSERVERS, _CoalesceSpy(gate)):
            responses = asyncio.run(
                serve_all(service, small_dataset.reads[:2])
            )
        assert len(responses) == 2
        # Batch 0's query saw batch 1 coalesce only when pipelined.
        assert backend.opened == [pipelined]


class TestHotKmerCache:
    """Cross-request dedup + hot-k-mer result cache (PR-8 tentpole).

    The cache must be an *identity* optimization: every configuration
    below — dedup only, bounded LFU cache, shadow self-check — must
    classify bit-identically to the sequential scalar path, while the
    counters prove the device actually skipped work.
    """

    CACHE_MODES = (
        pytest.param({"dedup": True}, id="dedup-only"),
        pytest.param({"cache_capacity": 256}, id="cached"),
        pytest.param(
            {"cache_capacity": 256, "cache_self_check": True}, id="shadow"
        ),
        pytest.param(
            {"cache_capacity": 8, "dedup": True}, id="tiny-evicting"
        ),
    )

    @pytest.mark.parametrize("overrides", CACHE_MODES)
    def test_bit_identical_to_sequential_scalar(
        self, small_dataset, small_layout, overrides
    ):
        service = make_service(small_dataset, small_layout, **overrides)
        reads = small_dataset.reads * 2
        responses = asyncio.run(serve_all(service, reads))
        reference = SieveDevice.from_database(
            small_dataset.database, layout=small_layout
        )
        for read, response in zip(reads, responses):
            kmers = list(read.kmers(small_dataset.k))
            expected = classification_from_results(
                read.seq_id,
                reference.query_scalar(kmers),
                true_taxon=read.taxon_id,
            )
            assert response.classification == expected

    def test_cache_actually_skips_device_work(
        self, small_dataset, small_layout
    ):
        def device_queries(**overrides):
            service = make_service(
                small_dataset, small_layout, num_shards=1, **overrides
            )
            asyncio.run(serve_all(service, small_dataset.reads * 3))
            stats = service.stats()
            queries = sum(
                row["queries"] for row in stats["health"]["shards"]
            )
            return queries, stats

        uncached_queries, _ = device_queries()
        cached_queries, stats = device_queries(cache_capacity=4096)
        assert cached_queries < uncached_queries
        cache = stats["cache"]
        # Repeating the read set makes every k-mer hot: passes 2 and 3
        # must be pure cache hits.
        assert cache["hit_kmers"] > 0
        assert cache["evictions"] == 0
        assert uncached_queries - cached_queries == cache["saved_kmers"]
        # The legacy counter contract is untouched: kmers_total still
        # counts admitted k-mers, not device k-mers.
        counters = stats["metrics"]["counters"]
        assert counters["kmers_total"] == cache["lookup_kmers"]
        assert counters["kmers_total"] == uncached_queries

    def test_savings_clocks_are_reported(self, small_dataset, small_layout):
        service = make_service(
            small_dataset, small_layout, num_shards=1, cache_capacity=4096
        )
        asyncio.run(serve_all(service, small_dataset.reads * 2))
        cache = service.stats()["cache"]
        assert cache["hit_rate"] > 0.0
        assert cache["saved_sim_ns"] > 0.0

    @pytest.mark.parametrize("overrides", CACHE_MODES)
    def test_counters_deterministic_across_runs(
        self, small_dataset, small_layout, overrides
    ):
        def one_run():
            service = make_service(
                small_dataset, small_layout, num_shards=1, **overrides
            )
            asyncio.run(serve_all(service, small_dataset.reads))
            stats = service.stats()
            return (
                stats["metrics"]["counters"],
                stats["cache"],
                stats["clocks"]["sim_time_ns"],
            )

        assert one_run() == one_run()

    def test_pipelined_cached_matches_serial_cached(
        self, small_dataset, small_layout
    ):
        def one_run(**overrides):
            service = make_service(
                small_dataset,
                small_layout,
                num_shards=1,
                cache_capacity=256,
                **overrides,
            )
            responses = asyncio.run(serve_all(service, small_dataset.reads))
            return (
                [r.classification for r in responses],
                service.stats()["cache"],
            )

        serial, serial_cache = one_run()
        pipelined, pipelined_cache = one_run(
            executor_threads=1, pipelined=True
        )
        assert pipelined == serial
        # Plan-at-launch-after-retire keeps the pipelined cache state
        # serial-equivalent, so even the hit/miss split matches.
        assert {
            k: v for k, v in pipelined_cache.items() if "wall" not in k
        } == {k: v for k, v in serial_cache.items() if "wall" not in k}

    def test_shadow_mode_raises_on_poisoned_cache(
        self, small_dataset, small_layout
    ):
        from repro.genomics import cache_key_kmer

        service = make_service(
            small_dataset,
            small_layout,
            num_shards=1,
            cache_capacity=4096,
            cache_self_check=True,
        )
        probe = small_dataset.reads[0]

        async def poison_then_serve():
            first = service.submit(probe)
            await service.start()
            await first  # populates the cache with the probe's k-mers
            key = cache_key_kmer(
                next(iter(probe.kmers(small_dataset.k))),
                small_dataset.k,
                service.cache.canonical,
            )
            store = service.cache._store
            row, found = store.find(np.asarray([key], dtype=np.uint64))
            assert found[0]
            # Corrupt one stored payload: the shadow pass re-answers
            # the batch on the device and must catch the lie instead
            # of serving it.
            store.hit[row] = True
            store.payload[row] = 999_999
            retry = service.submit(probe)
            try:
                await retry
            finally:
                await service.stop(drain=False)

        with pytest.raises(CacheCoherencyError):
            asyncio.run(poison_then_serve())

    def test_mixed_canonical_backends_rejected(self, small_dataset):
        class FakeCaps:
            def __init__(self, canonical):
                self.canonical = canonical
                self.k = small_dataset.k

        class FakeBackend(QueryBackendBase):
            def __init__(self, canonical):
                super().__init__()
                self._caps = FakeCaps(canonical)

            def capabilities(self):
                return self._caps

        with pytest.raises(ServiceError):
            ClassificationService(
                [FakeBackend(True), FakeBackend(False)],
                ServiceConfig(num_shards=2, cache_capacity=16),
            )


class TestKmerResultCacheUnit:
    """Unit coverage for the LFU mechanics of ``KmerResultCache``."""

    @staticmethod
    def _result(query, payload=None):
        from repro.api import BackendResult

        return BackendResult(
            query=query, hit=payload is not None, payload=payload
        )

    def _filled(self, capacity=2, k=5, canonical=False):
        cache = KmerResultCache(capacity, k, canonical)
        plan = cache.plan([1, 2, 1])
        assert plan.device_keys.tolist() == [1, 2]
        assert plan.dedup_kmers == 1
        cache.complete(
            plan,
            ResultBatch.from_results([self._result(1, 10), self._result(2)]),
        )
        return cache

    def test_plan_complete_fans_out_dedup(self):
        cache = self._filled()
        full = cache.complete(
            cache.plan([2, 1, 2]), ResultBatch.from_results([])
        )  # both keys now cached: no device work
        assert [r.query for r in full] == [2, 1, 2]
        assert [r.payload for r in full] == [None, 10, None]
        assert cache.hit_keys == 2
        assert cache.hit_kmers == 3

    def test_lfu_evicts_least_frequent_oldest_first(self):
        cache = self._filled(capacity=2)
        # Touch key 1 (freq 2+...), leave key 2 cold, then insert 3:
        # the cold key 2 must be the eviction victim.
        cache.complete(cache.plan([1]), ResultBatch.from_results([]))
        plan = cache.plan([3])
        cache.complete(plan, ResultBatch.from_results([self._result(3, 30)]))
        assert cache._store.keys.tolist() == [1, 3]
        assert cache.evictions == 1

    def test_eviction_is_deterministic(self):
        def churn():
            cache = KmerResultCache(4, 5, False)
            for batch in ([1, 2, 3, 4], [5, 1, 6], [7, 2, 5], [8, 9]):
                plan = cache.plan(batch)
                cache.complete(
                    plan,
                    ResultBatch.from_results(
                        [self._result(k, k * 10) for k in plan.device_kmers]
                    ),
                )
            return cache._store.keys.tolist(), cache.counters()

        assert churn() == churn()

    def test_capacity_zero_dedups_but_stores_nothing(self):
        cache = KmerResultCache(0, 5, False)
        plan = cache.plan([4, 4, 5])
        assert plan.dedup_kmers == 1
        cache.complete(
            plan,
            ResultBatch.from_results([self._result(4, 1), self._result(5, 2)]),
        )
        assert len(cache) == 0
        assert cache.plan([4]).device_keys.tolist() == [4]  # still a miss

    def test_canonical_keys_fold_strands(self):
        from repro.genomics import canonical_kmer
        from repro.genomics.encoding import revcomp_value

        k = 5
        fwd = 0b0001101100
        rev = revcomp_value(fwd, k)
        assert fwd != rev
        cache = KmerResultCache(8, k, True)
        plan = cache.plan([fwd, rev])
        # Both strands fold to one canonical key: one device k-mer.
        assert len(plan.device_keys) == 1
        canon = canonical_kmer(fwd, k)
        result = self._result(fwd, 42)
        full = cache.complete(plan, ResultBatch.from_results([result]))
        assert [r.query for r in full] == [fwd, rev]
        assert all(r.payload == 42 for r in full)
        assert cache.plan([rev]).cache_hits == 1
        assert canon in cache._store.keys.tolist()

    def test_complete_length_mismatch_raises(self):
        cache = KmerResultCache(4, 5, False)
        plan = cache.plan([1, 2])
        with pytest.raises(CacheError):
            cache.complete(plan, ResultBatch.from_results([self._result(1, 1)]))

    def test_self_check_flags_divergence(self):
        cache = KmerResultCache(4, 5, False)
        plan = cache.plan([1])
        served = ResultBatch.from_results([self._result(1, 10)])
        assert (
            cache.self_check(
                plan, served, ResultBatch.from_results([self._result(1, 10)])
            )
            is None
        )
        with pytest.raises(CacheCoherencyError):
            cache.self_check(
                plan, served, ResultBatch.from_results([self._result(1, 11)])
            )


class TestInteractionMatrix:
    """Everything at once (ISSUE-8 hardening): pipelined dispatch over
    an mmap-backed database with a chaos crash, an active fault
    injector, and the hot-k-mer cache must still classify bit-identically
    to the sequential scalar path on an identically-faulted replica —
    with the session ScheduleSanitizer watching the whole run.
    """

    @pytest.mark.parametrize(
        "cache_overrides",
        [
            pytest.param({}, id="uncached"),
            pytest.param({"dedup": True}, id="dedup"),
            pytest.param({"cache_capacity": 128}, id="cached"),
            pytest.param(
                {"cache_capacity": 128, "cache_self_check": True},
                id="shadow",
            ),
        ],
    )
    def test_all_features_bit_identical_to_scalar(
        self, small_dataset, small_layout, tmp_path, cache_overrides
    ):
        from repro import serialization
        from repro.faults import (
            ChaosInjector,
            ChaosPlan,
            FaultInjector,
            FaultModel,
            fault_injection,
        )
        from repro.genomics import KmerDatabase

        seg_dir = tmp_path / "segments"
        serialization.save_segments(small_dataset.database, seg_dir)
        database = KmerDatabase.open_mmap(seg_dir, verify=True)

        injector = FaultInjector(
            FaultModel.seeded("interaction-matrix", bit_flip_rate=2e-5)
        )

        def build_replica():
            # reset_units: every replica (and the scalar reference)
            # corrupts identically, so bit-identity still holds under
            # injected faults.
            injector.reset_units()
            with fault_injection(injector):
                return SieveDevice.from_database(
                    database, layout=small_layout
                )

        config = ServiceConfig(
            num_shards=2,
            max_batch_kmers=96,
            max_linger_s=0.0,
            queue_depth=512,
            executor_threads=1,
            pipelined=True,
            **cache_overrides,
        )
        backends = [build_replica() for _ in range(config.num_shards)]
        plan = ChaosPlan.seeded(
            "interaction-matrix-crash",
            num_shards=config.num_shards,
            crashes=1,
        )
        service = ClassificationService(
            backends, config, chaos=ChaosInjector(plan)
        )
        reads = small_dataset.reads * 2
        responses = asyncio.run(serve_all(service, reads))
        assert len(responses) == len(reads)
        assert (
            service.stats()["health"]["healthy_shards"]
            == config.num_shards - 1
        )

        reference = build_replica()
        for read, response in zip(reads, responses):
            expected = classification_from_results(
                read.seq_id,
                reference.query_scalar(list(read.kmers(small_dataset.k))),
                true_taxon=read.taxon_id,
            )
            assert response.classification == expected
