"""Tests for the runtime service ScheduleSanitizer.

Two layers:

* **state machine** — drive the observer interface directly with a
  dummy scope and assert each scheduling invariant (exactly-once batch
  execution, no double answers, no drops at quiesce, monotone batch
  ids, k-mer partition integrity) trips a :class:`ScheduleViolation`
  carrying the event trace;
* **integration** — run the real :class:`ClassificationService` (and a
  rigged double-dispatching :class:`ShardWorker`) under an installed
  sanitizer and check that clean schedules pass with events observed
  while a double dispatch trips.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.analysiskit import (
    ScheduleSanitizer,
    ScheduleViolation,
    active_schedule_sanitizer,
    disable_schedule_sanitizer,
    enable_schedule_from_env,
    enable_schedule_sanitizer,
)
from repro.service import (
    ClassificationService,
    MetricsRegistry,
    ServiceConfig,
    hooks,
)
from repro.service.dispatcher import Request, ShardWorker


class Scope:
    """A weakref-able stand-in for a service scope."""


@pytest.fixture()
def sanitizer():
    """A fresh sanitizer installed for one test, previous one restored."""
    previous = hooks.get_observer()
    fresh = ScheduleSanitizer()
    hooks.install(fresh)
    yield fresh
    hooks.install(previous)


def admit_and_batch(san, scope, *, req_id=1, kmers=10, batch=0, shard=0):
    """Admit one request and coalesce it into one batch."""
    san.on_request_admitted(scope, shard, req_id, kmers)
    san.on_batch_coalesced(scope, shard, batch, [(req_id, kmers)])


class TestStateMachine:
    def test_clean_lifecycle_passes(self, sanitizer):
        scope = Scope()
        admit_and_batch(sanitizer, scope)
        sanitizer.on_batch_executed(scope, 0, 0, [1], 10)
        sanitizer.on_request_completed(scope, 0, 1, 10)
        sanitizer.on_service_quiesce(scope)
        assert sanitizer.violations_raised == 0
        assert sanitizer.events_observed == 5

    def test_batch_executed_twice_trips(self, sanitizer):
        scope = Scope()
        admit_and_batch(sanitizer, scope)
        sanitizer.on_batch_executed(scope, 0, 0, [1], 10)
        sanitizer.on_request_completed(scope, 0, 1, 10)
        with pytest.raises(ScheduleViolation) as excinfo:
            sanitizer.on_batch_executed(scope, 0, 0, [1], 10)
        err = excinfo.value
        assert "exactly-once" in str(err)
        assert err.unit.endswith(":shard0")
        # The trace ends with the violating EXECUTE event.
        assert err.history[-1][2] == "EXECUTE"
        assert sanitizer.violations_raised == 1

    def test_execute_without_coalesce_trips(self, sanitizer):
        scope = Scope()
        sanitizer.on_request_admitted(scope, 0, 1, 10)
        with pytest.raises(ScheduleViolation, match="without being coalesced"):
            sanitizer.on_batch_executed(scope, 0, 0, [1], 10)

    def test_non_monotone_batch_ids_trip(self, sanitizer):
        scope = Scope()
        admit_and_batch(sanitizer, scope, req_id=1, batch=5)
        sanitizer.on_batch_executed(scope, 0, 5, [1], 10)
        sanitizer.on_request_completed(scope, 0, 1, 10)
        admit_and_batch(sanitizer, scope, req_id=2, batch=3)
        with pytest.raises(ScheduleViolation, match="not monotone"):
            sanitizer.on_batch_executed(scope, 0, 3, [2], 10)

    def test_request_answered_twice_trips(self, sanitizer):
        scope = Scope()
        admit_and_batch(sanitizer, scope)
        sanitizer.on_batch_executed(scope, 0, 0, [1], 10)
        sanitizer.on_request_completed(scope, 0, 1, 10)
        with pytest.raises(ScheduleViolation, match="answered twice"):
            sanitizer.on_request_completed(scope, 0, 1, 10)

    def test_completion_without_execution_trips(self, sanitizer):
        scope = Scope()
        admit_and_batch(sanitizer, scope)
        with pytest.raises(ScheduleViolation, match="without an executed"):
            sanitizer.on_request_completed(scope, 0, 1, 10)

    def test_kmer_partition_mismatch_trips(self, sanitizer):
        scope = Scope()
        sanitizer.on_request_admitted(scope, 0, 1, 10)
        sanitizer.on_request_admitted(scope, 0, 2, 7)
        sanitizer.on_batch_coalesced(scope, 0, 0, [(1, 10), (2, 7)])
        with pytest.raises(ScheduleViolation, match="partition mismatch"):
            sanitizer.on_batch_executed(scope, 0, 0, [1, 2], 16)

    def test_completion_slice_mismatch_trips(self, sanitizer):
        scope = Scope()
        admit_and_batch(sanitizer, scope)
        sanitizer.on_batch_executed(scope, 0, 0, [1], 10)
        with pytest.raises(ScheduleViolation, match="mis-partition"):
            sanitizer.on_request_completed(scope, 0, 1, 9)

    def test_admit_twice_without_orphan_trips(self, sanitizer):
        scope = Scope()
        sanitizer.on_request_admitted(scope, 0, 1, 10)
        with pytest.raises(ScheduleViolation, match="admitted twice"):
            sanitizer.on_request_admitted(scope, 1, 1, 10)

    def test_crash_orphan_readmit_is_exactly_once(self, sanitizer):
        """The failover path: orphaned work may be re-admitted once."""
        scope = Scope()
        admit_and_batch(sanitizer, scope, shard=0)
        sanitizer.on_requests_orphaned(scope, 0, [1])
        sanitizer.on_request_admitted(scope, 1, 1, 10)  # failover target
        sanitizer.on_batch_coalesced(scope, 1, 0, [(1, 10)])
        sanitizer.on_batch_executed(scope, 1, 0, [1], 10)
        sanitizer.on_request_completed(scope, 1, 1, 10)
        sanitizer.on_service_quiesce(scope)
        assert sanitizer.violations_raised == 0

    def test_readmit_with_changed_kmers_trips(self, sanitizer):
        scope = Scope()
        sanitizer.on_request_admitted(scope, 0, 1, 10)
        sanitizer.on_requests_orphaned(scope, 0, [1])
        with pytest.raises(ScheduleViolation, match="re-admitted with"):
            sanitizer.on_request_admitted(scope, 1, 1, 11)

    def test_quiesce_with_pending_request_trips(self, sanitizer):
        scope = Scope()
        sanitizer.on_request_admitted(scope, 0, 1, 10)
        with pytest.raises(ScheduleViolation, match="dropped"):
            sanitizer.on_service_quiesce(scope)

    def test_expiry_is_a_valid_terminal(self, sanitizer):
        scope = Scope()
        admit_and_batch(sanitizer, scope)
        sanitizer.on_request_expired(scope, 0, 1)
        sanitizer.on_service_quiesce(scope)
        assert sanitizer.violations_raised == 0

    def test_scopes_are_independent(self, sanitizer):
        a, b = Scope(), Scope()
        sanitizer.on_request_admitted(a, 0, 1, 10)
        # Same req id in another scope is a different request.
        sanitizer.on_request_admitted(b, 0, 1, 10)
        assert sanitizer.pending_requests(a) == 1
        assert sanitizer.pending_requests(b) == 1
        assert sanitizer.history_for(a)[-1][2] == "ADMIT"

    def test_quiesce_clears_scope_state(self, sanitizer):
        scope = Scope()
        admit_and_batch(sanitizer, scope)
        sanitizer.on_batch_executed(scope, 0, 0, [1], 10)
        sanitizer.on_request_completed(scope, 0, 1, 10)
        sanitizer.on_service_quiesce(scope)
        assert sanitizer.pending_requests(scope) == 0
        assert sanitizer.history_for(scope) == []


class TestDedupEvents:
    """``on_batch_deduped`` conservation invariants (PR-8 cache)."""

    def _exec(self, san, scope, *, kmers=10, batch=0, shard=0):
        admit_and_batch(san, scope, kmers=kmers, batch=batch, shard=shard)
        san.on_batch_executed(scope, shard, batch, [1], kmers)

    def test_clean_dedup_split_passes(self, sanitizer):
        scope = Scope()
        self._exec(sanitizer, scope)
        # 10 k-mers: 7 unique, 2 cache hits, 5 to the device.
        sanitizer.on_batch_deduped(scope, 0, 0, 10, 7, 2, 5)
        sanitizer.on_request_completed(scope, 0, 1, 10)
        sanitizer.on_service_quiesce(scope)
        assert sanitizer.violations_raised == 0

    def test_shadow_mode_full_batch_passes(self, sanitizer):
        scope = Scope()
        self._exec(sanitizer, scope)
        # Shadow mode re-answers everything: device == total.
        sanitizer.on_batch_deduped(scope, 0, 0, 10, 7, 2, 10)
        assert sanitizer.violations_raised == 0

    def test_dedup_without_execute_trips(self, sanitizer):
        scope = Scope()
        admit_and_batch(sanitizer, scope)
        with pytest.raises(ScheduleViolation, match="execute"):
            sanitizer.on_batch_deduped(scope, 0, 0, 10, 7, 2, 5)

    def test_dedup_twice_trips(self, sanitizer):
        scope = Scope()
        self._exec(sanitizer, scope)
        sanitizer.on_batch_deduped(scope, 0, 0, 10, 7, 2, 5)
        with pytest.raises(ScheduleViolation, match="twice"):
            sanitizer.on_batch_deduped(scope, 0, 0, 10, 7, 2, 5)

    def test_total_mismatch_trips(self, sanitizer):
        """A cache that drops or invents k-mers relative to the execute
        event is exactly the bug the event exists to catch."""
        scope = Scope()
        self._exec(sanitizer, scope, kmers=10)
        with pytest.raises(ScheduleViolation, match="dropped or invented"):
            sanitizer.on_batch_deduped(scope, 0, 0, 9, 7, 2, 5)

    @pytest.mark.parametrize(
        "unique,hits,device",
        [
            (11, 2, 5),  # unique > total
            (7, 8, 5),  # hits > unique
            (7, 2, 4),  # device < unique - hits (answers lost)
            (7, 2, 11),  # device > total
            (7, -1, 5),  # negative hits
        ],
    )
    def test_inconsistent_splits_trip(self, sanitizer, unique, hits, device):
        scope = Scope()
        self._exec(sanitizer, scope, kmers=10)
        with pytest.raises(ScheduleViolation):
            sanitizer.on_batch_deduped(scope, 0, 0, 10, unique, hits, device)


class TestAdmissionOrder:
    """The pipelined-dispatch invariant: a shard's executed requests
    move strictly forward in its admission order."""

    def test_in_order_execution_passes(self, sanitizer):
        scope = Scope()
        sanitizer.on_request_admitted(scope, 0, 1, 10)
        sanitizer.on_request_admitted(scope, 0, 2, 7)
        sanitizer.on_batch_coalesced(scope, 0, 0, [(1, 10)])
        sanitizer.on_batch_executed(scope, 0, 0, [1], 10)
        sanitizer.on_batch_coalesced(scope, 0, 1, [(2, 7)])
        sanitizer.on_batch_executed(scope, 0, 1, [2], 7)
        assert sanitizer.violations_raised == 0

    def test_out_of_admission_order_trips(self, sanitizer):
        scope = Scope()
        sanitizer.on_request_admitted(scope, 0, 1, 10)
        sanitizer.on_request_admitted(scope, 0, 2, 7)
        sanitizer.on_batch_coalesced(scope, 0, 0, [(2, 7)])
        sanitizer.on_batch_executed(scope, 0, 0, [2], 7)
        sanitizer.on_batch_coalesced(scope, 0, 1, [(1, 10)])
        with pytest.raises(ScheduleViolation, match="admission order"):
            sanitizer.on_batch_executed(scope, 0, 1, [1], 10)

    def test_order_is_per_shard(self, sanitizer):
        scope = Scope()
        sanitizer.on_request_admitted(scope, 0, 1, 10)
        sanitizer.on_request_admitted(scope, 1, 2, 7)
        sanitizer.on_batch_coalesced(scope, 1, 0, [(2, 7)])
        sanitizer.on_batch_executed(scope, 1, 0, [2], 7)
        sanitizer.on_batch_coalesced(scope, 0, 0, [(1, 10)])
        sanitizer.on_batch_executed(scope, 0, 0, [1], 10)
        assert sanitizer.violations_raised == 0

    def test_readmission_assigns_fresh_position(self, sanitizer):
        """Failover redispatch is ordered by *re*-admission: orphaned
        work re-admitted on a new shard executes after whatever that
        shard already ran."""
        scope = Scope()
        sanitizer.on_request_admitted(scope, 0, 1, 10)
        sanitizer.on_request_admitted(scope, 1, 2, 7)
        sanitizer.on_batch_coalesced(scope, 1, 0, [(2, 7)])
        sanitizer.on_batch_executed(scope, 1, 0, [2], 7)
        sanitizer.on_batch_coalesced(scope, 0, 0, [(1, 10)])
        sanitizer.on_requests_orphaned(scope, 0, [1])
        sanitizer.on_request_admitted(scope, 1, 1, 10)
        sanitizer.on_batch_coalesced(scope, 1, 1, [(1, 10)])
        sanitizer.on_batch_executed(scope, 1, 1, [1], 10)
        assert sanitizer.violations_raised == 0


def spawn_pair(san, scope):
    """Two live workers splitting partitions 0-3."""
    san.on_worker_spawned(scope, 0, 1, [0, 1])
    san.on_worker_spawned(scope, 1, 1, [2, 3])


class TestClusterEvents:
    """Cluster lifecycle invariants: spawn/drain/exit, handoff, and
    exactly-once fan-out/reply/merge per routed query."""

    def test_clean_lifecycle_passes(self, sanitizer):
        scope = Scope()
        spawn_pair(sanitizer, scope)
        sanitizer.on_cluster_fanout(scope, 1, 0, 6)
        sanitizer.on_cluster_fanout(scope, 1, 1, 4)
        sanitizer.on_cluster_reply(scope, 1, 0, 6)
        sanitizer.on_cluster_reply(scope, 1, 1, 4)
        sanitizer.on_cluster_merged(scope, 1, 10)
        sanitizer.on_worker_draining(scope, 0, 1)
        sanitizer.on_worker_exited(scope, 0, 1)
        sanitizer.on_worker_spawned(scope, 0, 2, [0, 1])
        assert sanitizer.violations_raised == 0

    def test_respawn_must_raise_generation(self, sanitizer):
        scope = Scope()
        spawn_pair(sanitizer, scope)
        sanitizer.on_worker_draining(scope, 0, 1)
        sanitizer.on_worker_exited(scope, 0, 1)
        with pytest.raises(ScheduleViolation, match="generations must"):
            sanitizer.on_worker_spawned(scope, 0, 1, [0, 1])

    def test_spawn_while_live_trips(self, sanitizer):
        scope = Scope()
        spawn_pair(sanitizer, scope)
        with pytest.raises(ScheduleViolation, match="still 'live'"):
            sanitizer.on_worker_spawned(scope, 0, 2, [0, 1])

    def test_spawn_claiming_owned_partition_trips(self, sanitizer):
        scope = Scope()
        spawn_pair(sanitizer, scope)
        with pytest.raises(ScheduleViolation, match="through handoff"):
            sanitizer.on_worker_spawned(scope, 2, 1, [1])

    def test_handoff_moves_ownership(self, sanitizer):
        scope = Scope()
        spawn_pair(sanitizer, scope)
        sanitizer.on_partition_handoff(scope, 1, 0, 1)
        # Worker 1 now legitimately answers partition-1 work; worker 0
        # respawning with its old claim must trip.
        sanitizer.on_worker_draining(scope, 0, 1)
        sanitizer.on_worker_exited(scope, 0, 1)
        with pytest.raises(ScheduleViolation, match="through handoff"):
            sanitizer.on_worker_spawned(scope, 0, 2, [0, 1])

    def test_handoff_from_non_owner_trips(self, sanitizer):
        scope = Scope()
        spawn_pair(sanitizer, scope)
        with pytest.raises(ScheduleViolation, match="owned by"):
            sanitizer.on_partition_handoff(scope, 2, 0, 1)

    def test_handoff_to_dead_worker_trips(self, sanitizer):
        scope = Scope()
        spawn_pair(sanitizer, scope)
        sanitizer.on_worker_draining(scope, 1, 1)
        sanitizer.on_worker_exited(scope, 1, 1)
        with pytest.raises(ScheduleViolation, match="exited"):
            sanitizer.on_partition_handoff(scope, 0, 0, 1)

    def test_drain_requires_live_state(self, sanitizer):
        scope = Scope()
        spawn_pair(sanitizer, scope)
        sanitizer.on_worker_draining(scope, 0, 1)
        with pytest.raises(ScheduleViolation, match="expected 'live'"):
            sanitizer.on_worker_draining(scope, 0, 1)

    def test_exit_with_unanswered_fanout_trips(self, sanitizer):
        scope = Scope()
        spawn_pair(sanitizer, scope)
        sanitizer.on_cluster_fanout(scope, 1, 0, 6)
        sanitizer.on_worker_draining(scope, 0, 1)
        with pytest.raises(ScheduleViolation, match="would be lost"):
            sanitizer.on_worker_exited(scope, 0, 1)

    def test_double_fanout_trips(self, sanitizer):
        scope = Scope()
        spawn_pair(sanitizer, scope)
        sanitizer.on_cluster_fanout(scope, 1, 0, 6)
        with pytest.raises(ScheduleViolation, match="twice"):
            sanitizer.on_cluster_fanout(scope, 1, 0, 6)

    def test_fanout_to_draining_worker_trips(self, sanitizer):
        scope = Scope()
        spawn_pair(sanitizer, scope)
        sanitizer.on_worker_draining(scope, 0, 1)
        with pytest.raises(ScheduleViolation, match="draining"):
            sanitizer.on_cluster_fanout(scope, 1, 0, 6)

    def test_reply_without_fanout_trips(self, sanitizer):
        scope = Scope()
        spawn_pair(sanitizer, scope)
        with pytest.raises(ScheduleViolation, match="without a"):
            sanitizer.on_cluster_reply(scope, 1, 0, 6)

    def test_double_reply_trips(self, sanitizer):
        scope = Scope()
        spawn_pair(sanitizer, scope)
        sanitizer.on_cluster_fanout(scope, 1, 0, 6)
        sanitizer.on_cluster_reply(scope, 1, 0, 6)
        with pytest.raises(ScheduleViolation, match="double answer"):
            sanitizer.on_cluster_reply(scope, 1, 0, 6)

    def test_reply_count_mismatch_trips(self, sanitizer):
        scope = Scope()
        spawn_pair(sanitizer, scope)
        sanitizer.on_cluster_fanout(scope, 1, 0, 6)
        with pytest.raises(ScheduleViolation, match="fanned out 6"):
            sanitizer.on_cluster_reply(scope, 1, 0, 5)

    def test_merge_with_missing_reply_trips(self, sanitizer):
        scope = Scope()
        spawn_pair(sanitizer, scope)
        sanitizer.on_cluster_fanout(scope, 1, 0, 6)
        sanitizer.on_cluster_fanout(scope, 1, 1, 4)
        sanitizer.on_cluster_reply(scope, 1, 0, 6)
        with pytest.raises(ScheduleViolation, match="unanswered fan-out"):
            sanitizer.on_cluster_merged(scope, 1, 10)

    def test_merge_total_mismatch_trips(self, sanitizer):
        scope = Scope()
        spawn_pair(sanitizer, scope)
        sanitizer.on_cluster_fanout(scope, 1, 0, 6)
        sanitizer.on_cluster_reply(scope, 1, 0, 6)
        with pytest.raises(ScheduleViolation, match="partition mismatch"):
            sanitizer.on_cluster_merged(scope, 1, 10)

    def test_merge_twice_trips(self, sanitizer):
        scope = Scope()
        spawn_pair(sanitizer, scope)
        sanitizer.on_cluster_fanout(scope, 1, 0, 6)
        sanitizer.on_cluster_reply(scope, 1, 0, 6)
        sanitizer.on_cluster_merged(scope, 1, 6)
        with pytest.raises(ScheduleViolation, match="merged twice"):
            sanitizer.on_cluster_merged(scope, 1, 6)

    def test_fanout_after_merge_trips(self, sanitizer):
        scope = Scope()
        spawn_pair(sanitizer, scope)
        sanitizer.on_cluster_fanout(scope, 1, 0, 6)
        sanitizer.on_cluster_reply(scope, 1, 0, 6)
        sanitizer.on_cluster_merged(scope, 1, 6)
        with pytest.raises(ScheduleViolation, match="after its merge"):
            sanitizer.on_cluster_fanout(scope, 1, 1, 4)

    def test_live_cluster_backend_is_audited(
        self, sanitizer, small_dataset, tmp_path
    ):
        """End to end: a real two-worker cluster with a mid-stream
        rolling restart runs clean under the freshly-installed
        sanitizer, and its events are observed."""
        from repro.cluster import ClusterBackend
        from repro.serialization import save_segments
        from repro.service import ClusterConfig

        segdir = tmp_path / "segments"
        save_segments(small_dataset.database, segdir)
        backend = ClusterBackend(
            str(segdir),
            cluster=ClusterConfig(workers=2, partitions=16),
        )
        try:
            before = sanitizer.events_observed
            read = small_dataset.reads[0]
            kmers = list(read.kmers(small_dataset.k))
            backend.schedule_restart(0, at_query=2)
            backend.query(kmers)
            backend.query(kmers)
            backend.query(kmers)
        finally:
            backend.close()
        assert sanitizer.events_observed > before
        assert sanitizer.violations_raised == 0


class TestInstallation:
    def test_enable_is_idempotent(self):
        previous = hooks.get_observer()
        try:
            first = enable_schedule_sanitizer()
            assert enable_schedule_sanitizer() is first
            assert active_schedule_sanitizer() is first
            disable_schedule_sanitizer()
            assert active_schedule_sanitizer() is None
        finally:
            hooks.install(previous)

    def test_env_gating(self):
        previous = hooks.get_observer()
        try:
            hooks.uninstall()
            assert enable_schedule_from_env({"SIEVE_SANITIZE": "0"}) is None
            assert active_schedule_sanitizer() is None
            assert (
                enable_schedule_from_env({"SIEVE_SANITIZE": "1"}) is not None
            )
        finally:
            hooks.install(previous)


class DoubleDispatchWorker(ShardWorker):
    """Chaos rig: executes every batch twice (the bug SV-class hunts).

    Each batch launches normally; once it retires, the same live slice
    launches again under the same batch index.
    """

    async def _retire(self, inflight, loop):
        await super()._retire(inflight, loop)
        index = self._batch_index - 1
        self._launch([], inflight.live, inflight.flat, index, loop)


def small_config(**overrides):
    defaults = dict(
        num_shards=1,
        max_batch_kmers=64,
        max_linger_s=0.0,
        queue_depth=32,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestIntegration:
    def make_backend(self, dataset, layout):
        from repro.sieve import SieveDevice

        return SieveDevice.from_database(dataset.database, layout=layout)

    def test_clean_service_run_observes_events(
        self, sanitizer, small_dataset, small_layout
    ):
        backends = [self.make_backend(small_dataset, small_layout)]
        service = ClassificationService(backends, small_config())

        async def drive():
            futures = [service.submit(r) for r in small_dataset.reads]
            await service.start()
            await asyncio.gather(*futures)
            await service.stop(drain=True)

        asyncio.run(drive())
        assert sanitizer.violations_raised == 0
        assert sanitizer.events_observed > 0
        # drain() quiesced the scope, so nothing is left pending.
        assert sanitizer.pending_requests(service) == 0

    def test_double_dispatch_trips_with_trace(
        self, sanitizer, small_dataset, small_layout
    ):
        backend = self.make_backend(small_dataset, small_layout)
        read = small_dataset.reads[0]
        kmers = list(read.kmers(small_dataset.k))

        async def drive():
            worker = DoubleDispatchWorker(
                0, backend, small_config(), MetricsRegistry()
            )
            task = asyncio.create_task(worker.run())
            loop = asyncio.get_running_loop()
            request = Request(
                read=read,
                kmers=kmers,
                future=loop.create_future(),
                enqueued_at=loop.time(),
                req_id=1,
            )
            worker.try_submit(request)
            await request.future
            await task

        with pytest.raises(ScheduleViolation) as excinfo:
            asyncio.run(drive())
        err = excinfo.value
        assert "exactly-once" in str(err)
        events = [event for _, _, event, _ in err.history]
        assert events.count("EXECUTE") == 2
        assert sanitizer.violations_raised == 1

    def test_chaos_failover_schedule_is_clean(
        self, sanitizer, small_dataset, small_layout
    ):
        """Crash-before-execute + failover re-dispatch stays violation-free."""
        from repro.faults import ChaosInjector, ChaosPlan

        plan = ChaosPlan(crashes=((0, 0),))
        backends = [
            self.make_backend(small_dataset, small_layout) for _ in range(2)
        ]
        service = ClassificationService(
            backends,
            small_config(num_shards=2),
            chaos=ChaosInjector(plan),
        )

        async def drive():
            futures = [service.submit(r) for r in small_dataset.reads]
            await service.start()
            responses = await asyncio.gather(*futures)
            await service.stop(drain=True)
            return responses

        responses = asyncio.run(drive())
        assert len(responses) == len(small_dataset.reads)
        assert sanitizer.violations_raised == 0
        assert service.shards[0].health.state == "crashed"

    def test_failover_into_full_queue_keeps_admission_order(
        self, sanitizer, small_dataset, small_layout
    ):
        """A redispatched orphan blocked on a full survivor queue is
        admitted where it lands: a fresh submission that takes the
        freed slot first also runs first, and the audit stays clean."""
        from repro.faults import ChaosInjector, ChaosPlan

        kmers_per_read = len(list(small_dataset.reads[0].kmers(small_dataset.k)))
        # Shard 0 crashes on its first batch while shard 1 stalls on its
        # own, so the orphans must wait for room on shard 1.
        plan = ChaosPlan(crashes=((0, 0),), stalls=((1, 0, 0.02),))
        backends = [
            self.make_backend(small_dataset, small_layout) for _ in range(2)
        ]
        service = ClassificationService(
            backends,
            small_config(
                num_shards=2, queue_depth=2, max_batch_kmers=kmers_per_read
            ),
            chaos=ChaosInjector(plan),
        )
        reads = small_dataset.reads

        async def drive():
            # Fill both queues, so the failover put blocks on shard 1.
            futures = [service.submit(r) for r in reads[:4]]
            await service.start()
            # Once shard 1 frees a slot, a fresh submission races the
            # blocked failover put for it.
            for _ in range(100):
                await asyncio.sleep(0)
                shard1 = service.shards[1].queue
                if service.shards[0].health.state == "crashed" and not shard1.full():
                    futures.append(service.submit(reads[4]))
                    break
            responses = await asyncio.gather(*futures)
            await service.stop(drain=True)
            return responses

        responses = asyncio.run(asyncio.wait_for(drive(), timeout=30))
        assert len(responses) == 5
        assert sanitizer.violations_raised == 0
        assert service.shards[0].health.redispatched > 0
