"""Chaos tests: the service under injected crashes, stalls, and faults.

Drives :class:`repro.service.ClassificationService` with a seeded
:class:`repro.faults.ChaosPlan` — shard crashes, stalls, slow batches —
and checks the hardening contract: no accepted request is lost or
double-answered, orphaned micro-batches fail over to surviving shards,
rejections keep carrying ``retry_after_s``, drain still completes, and
``stats()`` surfaces per-replica health plus the service-level
``degraded`` flag.  The DRAM protocol sanitizer stays active for the
whole module (session fixture), so chaos runs double as a protocol
audit.  Everything is pre-enqueued on a single-threaded loop with
``max_linger_s=0``: the chaos schedule is part of the test's identity,
not a race.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import classification_from_results
from repro.faults import (
    ChaosInjector,
    ChaosPlan,
    FaultError,
    FaultInjector,
    FaultModel,
    fault_injection,
)
from repro.service import (
    ClassificationService,
    RejectedError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ShardCrashError,
)
from repro.service.client import (
    BACKOFF_CAP_S,
    BACKOFF_JITTER,
    BACKOFF_MULTIPLIER,
)
from repro.sieve import SieveDevice


def make_chaos_service(
    dataset, layout, chaos=None, fault_model=None, **overrides
):
    """Two-shard service; optional chaos plan and DRAM fault model.

    With a fault model, every replica (and the scalar reference the
    tests compare against) is built under ``reset_units()``, so all
    shards corrupt identically and answers stay shard-independent.
    """
    defaults = dict(
        num_shards=2,
        max_batch_kmers=96,
        max_linger_s=0.0,
        queue_depth=256,
    )
    defaults.update(overrides)
    config = ServiceConfig(**defaults)
    injector = (
        FaultInjector(fault_model) if fault_model is not None else None
    )

    def build_backend():
        if injector is None:
            return SieveDevice.from_database(dataset.database, layout=layout)
        injector.reset_units()
        with fault_injection(injector):
            return SieveDevice.from_database(dataset.database, layout=layout)

    backends = [build_backend() for _ in range(config.num_shards)]
    service = ClassificationService(backends, config, chaos=chaos)
    return service, build_backend


async def serve_all(service, reads, deadline_s=None):
    futures = [service.submit(r, deadline_s=deadline_s) for r in reads]
    await service.start()
    responses = await asyncio.gather(*futures)
    await service.stop(drain=True)
    return responses


class TestChaosPlan:
    def test_plan_validation(self):
        with pytest.raises(FaultError):
            ChaosPlan(crashes=((-1, 0),))
        with pytest.raises(FaultError):
            ChaosPlan(stalls=((0, 0, -1.0),))
        assert not ChaosPlan().active
        assert ChaosPlan(crashes=((0, 0),)).active

    def test_seeded_plan_is_deterministic_and_capped(self):
        plan_a = ChaosPlan.seeded("camp", num_shards=2, crashes=5, stalls=1)
        plan_b = ChaosPlan.seeded("camp", num_shards=2, crashes=5, stalls=1)
        assert plan_a == plan_b
        # Never crashes every shard: at least one survivor.
        assert len(plan_a.crashes) <= 1
        crashed = {shard for shard, _ in plan_a.crashes}
        stalled = {shard for shard, _, _ in plan_a.stalls}
        assert stalled and not (stalled & crashed)

    def test_injector_fires_once_per_scheduled_event(self):
        plan = ChaosPlan(crashes=((0, 1),), stalls=((1, 0, 0.01),))
        injector = ChaosInjector(plan)
        assert injector.before_batch(0, 0) is None
        action = injector.before_batch(0, 1)
        assert action is not None and action.crash
        stall = injector.before_batch(1, 0)
        assert stall is not None and stall.stall_s == pytest.approx(0.01)
        assert injector.before_batch(1, 0) is None  # one-shot
        assert injector.stats.crashes == 1
        assert injector.stats.stalls == 1


class TestCrashFailover:
    def test_crash_loses_nothing(self, small_dataset, small_layout):
        chaos = ChaosInjector(ChaosPlan(crashes=((0, 0),)))
        service, build_backend = make_chaos_service(
            small_dataset, small_layout, chaos=chaos
        )
        reads = small_dataset.reads * 2
        responses = asyncio.run(serve_all(service, reads))

        assert len(responses) == len(reads)
        reference = build_backend()
        for read, response in zip(reads, responses):
            expected = classification_from_results(
                read.seq_id,
                reference.query(list(read.kmers(small_dataset.k))),
                true_taxon=read.taxon_id,
            )
            assert response.classification == expected
        # Exactly once: every accepted request completed exactly one
        # response future, and the completion counter agrees.
        counters = service.metrics.snapshot()["counters"]
        assert counters["completed_total"] == len(reads)
        assert counters["shard_crashes_total"] == 1
        assert counters["redispatched_total"] > 0

    def test_crash_surfaces_in_stats(self, small_dataset, small_layout):
        chaos = ChaosInjector(ChaosPlan(crashes=((0, 0),)))
        service, _ = make_chaos_service(
            small_dataset, small_layout, chaos=chaos
        )
        asyncio.run(serve_all(service, small_dataset.reads))
        stats = service.stats()
        assert stats["health"]["degraded"] is True
        assert stats["health"]["healthy_shards"] == 1
        by_shard = {row["shard"]: row for row in stats["health"]["shards"]}
        assert by_shard[0]["health"]["state"] == "crashed"
        assert by_shard[0]["health"]["crashes"] == 1
        assert by_shard[0]["health"]["redispatched"] > 0
        assert by_shard[1]["health"]["state"] == "healthy"
        assert by_shard[1]["health"]["batches"] > 0

    def test_submit_after_total_crash_is_refused(
        self, small_dataset, small_layout
    ):
        chaos = ChaosInjector(ChaosPlan(crashes=((0, 0), (1, 0))))
        service, _ = make_chaos_service(
            small_dataset, small_layout, chaos=chaos
        )
        reads = small_dataset.reads

        async def drive():
            futures = [service.submit(r) for r in reads]
            await service.start()
            results = await asyncio.gather(*futures, return_exceptions=True)
            await service.stop(drain=True)
            with pytest.raises(ServiceError, match="no healthy shards"):
                service.submit(reads[0])
            return results

        results = asyncio.run(drive())
        # With every shard crashed, accepted requests fail loudly
        # (never silently dropped, never answered twice).
        assert all(isinstance(r, ServiceError) for r in results)

    def test_crash_without_failover_fails_futures(
        self, small_dataset, small_layout
    ):
        """A worker with no on_crash callback fails its orphans."""
        from repro.service.dispatcher import ShardWorker
        from repro.service.metrics import MetricsRegistry

        chaos = ChaosInjector(ChaosPlan(crashes=((0, 0),)))
        config = ServiceConfig(num_shards=1, queue_depth=8)
        backend = SieveDevice.from_database(
            small_dataset.database, layout=small_layout
        )

        async def drive():
            worker = ShardWorker(
                0, backend, config, MetricsRegistry(), chaos=chaos
            )
            loop = asyncio.get_running_loop()
            from repro.service.dispatcher import Request

            read = small_dataset.reads[0]
            request = Request(
                read=read,
                num_kmers=read.kmer_count(small_dataset.k),
                future=loop.create_future(),
                enqueued_at=loop.time(),
            )
            worker.try_submit(request)
            await worker.run()  # returns (not raises) on crash
            with pytest.raises(ShardCrashError):
                request.future.result()
            assert worker.health.state == "crashed"

        asyncio.run(drive())


class TestStallsAndSlowness:
    def test_stall_delays_but_completes(self, small_dataset, small_layout):
        chaos = ChaosInjector(
            ChaosPlan(stalls=((0, 0, 0.01),), slow_shards=((1, 0.001),))
        )
        service, _ = make_chaos_service(
            small_dataset, small_layout, chaos=chaos
        )
        responses = asyncio.run(serve_all(service, small_dataset.reads * 2))
        assert len(responses) == 2 * len(small_dataset.reads)
        counters = service.metrics.snapshot()["counters"]
        assert counters["shard_stalls_total"] >= 1
        assert counters.get("shard_crashes_total", 0) == 0
        stats = service.stats()
        assert stats["health"]["degraded"] is False
        assert stats["health"]["healthy_shards"] == 2
        assert chaos.stats.stalls >= 1
        assert chaos.stats.slow_batches >= 1


class TestSeededCampaign:
    def test_campaign_answers_every_request_exactly_once(
        self, small_dataset, small_layout
    ):
        """ISSUE acceptance: >=1 crash, >=1 stall, bit-flip 1e-6 —
        every accepted request is answered exactly once, and answers
        are shard-independent (replicas corrupt identically)."""
        plan = ChaosPlan.seeded(
            "acceptance", num_shards=2, crashes=1, stalls=1, stall_s=0.005
        )
        assert plan.crashes and plan.stalls
        chaos = ChaosInjector(plan)
        model = FaultModel.seeded("acceptance", bit_flip_rate=1e-6)
        service, build_backend = make_chaos_service(
            small_dataset, small_layout, chaos=chaos, fault_model=model
        )
        reads = small_dataset.reads * 3
        responses = asyncio.run(serve_all(service, reads))

        assert len(responses) == len(reads)
        counters = service.metrics.snapshot()["counters"]
        assert counters["completed_total"] == len(reads)
        assert counters["shard_crashes_total"] == 1
        reference = build_backend()
        assert reference.capabilities().degraded is True
        for read, response in zip(reads, responses):
            expected = classification_from_results(
                read.seq_id,
                reference.query(list(read.kmers(small_dataset.k))),
                true_taxon=read.taxon_id,
            )
            assert response.classification == expected
        assert service.stats()["health"]["degraded"] is True  # crashed shard

    def test_campaign_replays_identically(self, small_dataset, small_layout):
        def run():
            chaos = ChaosInjector(
                ChaosPlan.seeded("replay", num_shards=2, stall_s=0.001)
            )
            model = FaultModel.seeded("replay", bit_flip_rate=1e-5)
            service, _ = make_chaos_service(
                small_dataset, small_layout, chaos=chaos, fault_model=model
            )
            responses = asyncio.run(
                serve_all(service, small_dataset.reads * 2)
            )
            return (
                [r.classification for r in responses],
                chaos.log,
                service.metrics.snapshot()["counters"],
            )

        first = run()
        second = run()
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[2] == second[2]


class TestBackpressureUnderChaos:
    def test_rejections_keep_retry_hint(self, small_dataset, small_layout):
        chaos = ChaosInjector(ChaosPlan(stalls=((0, 0, 0.01),)))
        service, _ = make_chaos_service(
            small_dataset, small_layout, chaos=chaos, queue_depth=1
        )
        reads = small_dataset.reads

        async def overfill():
            rejections = []
            for read in reads:
                try:
                    service.submit(read)
                except RejectedError as exc:
                    rejections.append(exc)
            await service.start()
            await service.stop(drain=True)
            return rejections

        rejections = asyncio.run(overfill())
        assert rejections
        for exc in rejections:
            assert exc.retry_after_s == service.config.retry_after_s
            assert exc.retry_after_s > 0


class TestClientBackoff:
    """Satellite fix: jittered capped exponential backoff."""

    def test_backoff_is_deterministic_and_capped(
        self, small_dataset, small_layout
    ):
        service, _ = make_chaos_service(
            small_dataset,
            small_layout,
            retry_after_s=0.004,
        )
        client = ServiceClient(service, seed=7)
        hint = service.config.retry_after_s
        delays = [
            client.backoff_delay_s("read-1", attempt, hint)
            for attempt in range(1, 8)
        ]
        assert delays == [
            client.backoff_delay_s("read-1", attempt, hint)
            for attempt in range(1, 8)
        ]
        # Attempt 1 honors the server's hint as a *floor* and jitters
        # upward; later attempts scale down into the exponential delay.
        assert hint <= delays[0] <= hint * (1.0 + BACKOFF_JITTER)
        for attempt, delay in enumerate(delays[1:], start=2):
            raw = min(hint * BACKOFF_MULTIPLIER ** (attempt - 1), BACKOFF_CAP_S)
            assert raw * (1.0 - BACKOFF_JITTER) <= delay <= raw
        # The cap keeps deep retries bounded, and attempt 7 reaches it.
        assert hint * BACKOFF_MULTIPLIER**6 > BACKOFF_CAP_S
        assert max(delays) <= BACKOFF_CAP_S

    def test_first_retry_never_undercuts_server_hint(
        self, small_dataset, small_layout
    ):
        """Regression: the jitter used to scale attempt 1 *down*, so
        clients could retry before the server said capacity would
        exist — re-rejecting the whole storm."""
        service, _ = make_chaos_service(small_dataset, small_layout)
        hint = service.config.retry_after_s
        for seed in range(4):
            client = ServiceClient(service, seed=seed)
            for i in range(32):
                assert (
                    client.backoff_delay_s(f"read-{i}", 1, hint) >= hint
                )

    def test_backoff_decorrelates_a_retry_storm(
        self, small_dataset, small_layout
    ):
        """Concurrent requests rejected together must not sleep the
        same duration (the bug: replaying retry_after_s verbatim)."""
        service, _ = make_chaos_service(small_dataset, small_layout)
        client = ServiceClient(service, seed=0)
        hint = service.config.retry_after_s
        delays = {
            client.backoff_delay_s(f"read-{i}", 1, hint) for i in range(16)
        }
        assert len(delays) == 16
        # Distinct client seeds decorrelate even on equal request keys.
        other = ServiceClient(service, seed=1)
        assert client.backoff_delay_s("x", 1, hint) != other.backoff_delay_s(
            "x", 1, hint
        )

    def test_backoff_rejects_bad_attempt(self, small_dataset, small_layout):
        service, _ = make_chaos_service(small_dataset, small_layout)
        client = ServiceClient(service)
        with pytest.raises(ValueError):
            client.backoff_delay_s("r", 0, 0.01)

    def test_client_completes_through_chaos(
        self, small_dataset, small_layout
    ):
        """End to end: bounded queues + a stall + client retries."""
        chaos = ChaosInjector(ChaosPlan(stalls=((1, 0, 0.002),)))
        service, _ = make_chaos_service(
            small_dataset,
            small_layout,
            chaos=chaos,
            queue_depth=2,
            retry_after_s=0.001,
        )
        client = ServiceClient(service)

        async def drive():
            await service.start()
            responses = await client.classify_many(small_dataset.reads * 2)
            await service.stop(drain=True)
            return responses

        responses = asyncio.run(drive())
        assert len(responses) == 2 * len(small_dataset.reads)
        assert all(r.classification is not None for r in responses)
