"""Multi-process shard cluster: partitioning, bit-identity, lifecycle.

The tentpole invariant is that the cluster is *invisible* in the
answers: at any (worker count x shards-per-worker) topology — including
mid-stream rolling restarts and scale-up/scale-down handoffs — the
merged classifications are bit-identical to the sequential scalar path
over the same database image.  The session-scoped schedule sanitizer
stays active, so every spawn/drain/handoff/fanout in these tests is
also audited for exactly-once delivery.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal

import numpy as np
import pytest

from repro.api import classification_from_results
from repro.cluster import (
    ClusterBackend,
    ClusterError,
    ConsistentHashRing,
    PartitionError,
    partition_id,
    partition_ids,
)
from repro.cluster.worker import PartitionStore
from repro.genomics import cache_key_kmer
from repro.serialization import save_segments
from repro.service import ClassificationService, ClusterConfig, ServiceConfig
from repro.service import hooks


@pytest.fixture(scope="module")
def segments(small_dataset, tmp_path_factory):
    directory = tmp_path_factory.mktemp("cluster-segments")
    save_segments(small_dataset.database, directory)
    return str(directory)


def make_cluster(segments, workers=2, shards_per_worker=1, partitions=16):
    return ClusterBackend(
        segments,
        cluster=ClusterConfig(
            workers=workers,
            shards_per_worker=shards_per_worker,
            partitions=partitions,
        ),
    )


def reference_classifications(dataset):
    out = []
    for read in dataset.reads[:12]:
        kmers = list(read.kmers(dataset.k))
        out.append(
            classification_from_results(
                read.seq_id,
                dataset.database.query(kmers, batched=False),
                true_taxon=read.taxon_id,
            )
        )
    return out


def cluster_classifications(backend, dataset):
    out = []
    for read in dataset.reads[:12]:
        kmers = list(read.kmers(dataset.k))
        out.append(
            classification_from_results(
                read.seq_id,
                backend.query(kmers),
                true_taxon=read.taxon_id,
            )
        )
    return out


class TestPartitioner:
    def test_vectorized_matches_scalar(self):
        keys = np.array([0, 1, 2**32, 2**63 - 1, 2**64 - 1], dtype=np.uint64)
        vector = partition_ids(keys, 13)
        for key, part in zip(keys.tolist(), vector.tolist()):
            assert partition_id(int(key), 13) == part

    def test_deterministic_and_in_range(self):
        keys = np.arange(5000, dtype=np.uint64) * np.uint64(2654435761)
        a = partition_ids(keys, 32)
        b = partition_ids(keys, 32)
        assert np.array_equal(a, b)
        assert int(a.min()) >= 0 and int(a.max()) < 32

    def test_spreads_low_entropy_keys(self):
        # Consecutive k-mers (the poly-A neighborhood) must not pile
        # into a handful of partitions the way ``key % P`` would.
        keys = np.arange(1024, dtype=np.uint64)
        parts = partition_ids(keys, 16)
        counts = np.bincount(parts, minlength=16)
        assert int(counts.max()) < 4 * (1024 // 16)
        assert int((counts > 0).sum()) == 16

    def test_invalid_partition_count(self):
        with pytest.raises(PartitionError):
            partition_ids(np.array([1], dtype=np.uint64), 0)


class TestConsistentHashRing:
    def test_assignment_is_a_partition_of_the_space(self):
        ring = ConsistentHashRing(["w0:s0", "w1:s0", "w2:s0"])
        assignment = ring.assignment(64)
        seen = sorted(p for parts in assignment.values() for p in parts)
        assert seen == list(range(64))
        assert set(assignment) == {"w0:s0", "w1:s0", "w2:s0"}

    def test_deterministic_across_instances(self):
        nodes = ["w0:s0", "w0:s1", "w1:s0"]
        first = ConsistentHashRing(nodes).assignment(48)
        second = ConsistentHashRing(list(reversed(nodes))).assignment(48)
        assert first == second

    def test_adding_a_node_moves_few_partitions(self):
        before = ConsistentHashRing(["w0:s0", "w1:s0"]).assignment(256)
        after = ConsistentHashRing(["w0:s0", "w1:s0", "w2:s0"]).assignment(256)
        owner_before = {p: n for n, ps in before.items() for p in ps}
        owner_after = {p: n for n, ps in after.items() for p in ps}
        moved = sum(
            1 for p in range(256) if owner_before[p] != owner_after[p]
        )
        # Only partitions captured by the new node move; surviving
        # nodes never trade partitions with each other.
        assert moved == len(after["w2:s0"])
        assert 0 < moved < 256 // 2

    def test_rejects_bad_rings(self):
        with pytest.raises(PartitionError):
            ConsistentHashRing([])
        with pytest.raises(PartitionError):
            ConsistentHashRing(["a", "a"])
        with pytest.raises(PartitionError):
            ConsistentHashRing(["a"], virtual_nodes=0)


class TestClusterBitIdentity:
    @pytest.mark.parametrize(
        "workers,shards_per_worker", [(1, 1), (2, 1), (2, 2), (4, 1)]
    )
    def test_matches_sequential_scalar_path(
        self, segments, small_dataset, workers, shards_per_worker
    ):
        expected = reference_classifications(small_dataset)
        with make_cluster(
            segments, workers=workers, shards_per_worker=shards_per_worker
        ) as backend:
            assert cluster_classifications(backend, small_dataset) == expected

    def test_result_order_and_echoed_queries(self, segments, small_dataset):
        read = small_dataset.reads[0]
        kmers = list(read.kmers(small_dataset.k))
        with make_cluster(segments) as backend:
            results = backend.query(kmers)
        assert [r.query for r in results] == kmers
        expected = small_dataset.database.query(kmers, batched=False)
        assert [(r.hit, r.payload) for r in results] == [
            (r.hit, r.payload) for r in expected
        ]

    def test_no_worker_holds_a_full_build(self, segments, small_dataset):
        with make_cluster(segments, workers=2) as backend:
            rows = backend.cluster_stats()["workers"]
            residents = [r["resident"] for r in rows]
        assert all(r["full_build"] is False for r in residents)
        assert all(r["kind"] == "host-sorted-array-mmap" for r in residents)
        total = len(small_dataset.database)
        assert sum(r["owned_records"] for r in residents) == total
        assert all(r["owned_records"] < total for r in residents)

    def test_stats_accounting(self, segments, small_dataset):
        read = small_dataset.reads[0]
        kmers = list(read.kmers(small_dataset.k))
        with make_cluster(segments) as backend:
            before = backend.stats()
            results = backend.query(kmers)
            after = backend.stats()
        assert after.queries - before.queries == len(kmers)
        assert after.hits - before.hits == sum(1 for r in results if r.hit)


class TestClusterLifecycle:
    def test_rolling_restart_mid_stream_is_invisible(
        self, segments, small_dataset
    ):
        expected = reference_classifications(small_dataset)
        with make_cluster(segments, workers=2) as backend:
            backend.schedule_restart(0, at_query=3)
            backend.schedule_restart(1, at_query=7)
            got = cluster_classifications(backend, small_dataset)
            restarts = backend.cluster_stats()["restarts"]
        assert got == expected
        assert restarts == 2

    def test_scale_up_and_down_mid_stream(self, segments, small_dataset):
        expected = reference_classifications(small_dataset)
        with make_cluster(segments, workers=1, partitions=16) as backend:
            got = cluster_classifications(backend, small_dataset)[:4]
            backend.scale_to(3)
            assert len(backend.live_workers()) == 3
            got += cluster_classifications(backend, small_dataset)[4:8]
            backend.scale_to(1)
            assert len(backend.live_workers()) == 1
            got += cluster_classifications(backend, small_dataset)[8:]
            stats = backend.cluster_stats()
        assert got == expected
        assert stats["handoffs"] > 0

    def test_handoff_preserves_full_coverage(self, segments, small_dataset):
        total = len(small_dataset.database)
        with make_cluster(segments, workers=1, partitions=16) as backend:
            backend.scale_to(2)
            residents = [
                row["resident"]
                for row in backend.cluster_stats()["workers"]
                if row["state"] == "live"
            ]
        assert sum(r["owned_records"] for r in residents) == total

    def test_schedule_restart_rejects_passed_queries(
        self, segments, small_dataset
    ):
        from repro.cluster import ClusterError

        read = small_dataset.reads[0]
        kmers = list(read.kmers(small_dataset.k))
        with make_cluster(segments) as backend:
            backend.query(kmers)
            with pytest.raises(ClusterError):
                backend.schedule_restart(0, at_query=1)


class TestPartitionStore:
    def test_rejects_foreign_kmers(self, segments, small_dataset):
        store = PartitionStore(segments, partitions=[0], num_partitions=16)
        db = small_dataset.database
        foreign = None
        for kmer, _ in db.items():
            if partition_id(kmer, 16) != 0:
                foreign = kmer
                break
        assert foreign is not None
        with pytest.raises(ValueError, match="does not own"):
            store.query([foreign])

    def test_rejects_out_of_range_partition(self, segments):
        with pytest.raises(ValueError, match="out of range"):
            PartitionStore(segments, partitions=[16], num_partitions=16)

    def test_query_returns_hit_and_payload_arrays(
        self, segments, small_dataset
    ):
        db = small_dataset.database
        store = PartitionStore(segments, partitions=range(16), num_partitions=16)
        kmers = list(small_dataset.reads[0].kmers(small_dataset.k))
        hit, payload = store.query(np.asarray(kmers, dtype=np.uint64))
        assert hit.dtype == np.bool_ and payload.dtype == np.int64
        expected = db.query(kmers, batched=False)
        assert hit.tolist() == [r.hit for r in expected]
        assert [p if h else None for h, p in zip(hit.tolist(), payload.tolist())] == [
            r.payload for r in expected
        ]
        assert int(payload[~hit].sum()) == 0  # misses carry payload 0

    def test_empty_query_returns_empty_arrays(self, segments):
        store = PartitionStore(segments, partitions=[0, 1], num_partitions=16)
        hit, payload = store.query(np.empty(0, dtype=np.uint64))
        assert hit.shape == payload.shape == (0,)
        assert hit.dtype == np.bool_ and payload.dtype == np.int64

    def test_resident_reports_slice_only(self, segments, small_dataset):
        store = PartitionStore(
            segments, partitions=[0, 1, 2], num_partitions=16
        )
        resident = store.resident()
        assert resident["full_build"] is False
        assert resident["owned_partitions"] == [0, 1, 2]
        assert resident["total_records"] == len(small_dataset.database)
        assert 0 < resident["owned_records"] < resident["total_records"]


class TestClusterConfigValidation:
    def test_rejects_too_few_partitions(self):
        with pytest.raises(ValueError):
            ClusterConfig(workers=4, shards_per_worker=2, partitions=4)

    def test_slots(self):
        assert ClusterConfig(workers=3, shards_per_worker=2).slots() == 6


# ---------------------------------------------------------------------------
# Wire protocol: uint64 slices out, (hit, payload) arrays back
# ---------------------------------------------------------------------------


class _FanoutRecorder:
    """Observer that records fan-out slice sizes and forwards every
    event to the observer it wraps (the session sanitizer, if any)."""

    def __init__(self, inner):
        self.inner = inner
        self.fanouts = []

    def on_cluster_fanout(self, scope, qid, worker_id, num_kmers):
        self.fanouts.append((qid, worker_id, num_kmers))
        if self.inner is not None:
            self.inner.on_cluster_fanout(scope, qid, worker_id, num_kmers)

    def __getattr__(self, name):
        if self.inner is not None:
            return getattr(self.inner, name)
        return lambda *args: None


@contextlib.contextmanager
def _observer(observer):
    previous = hooks.get_observer()
    hooks.install(observer)
    try:
        yield observer
    finally:
        hooks.install(previous)


class _TamperedConn:
    """Parent pipe end whose query replies pass through ``tamper``."""

    def __init__(self, conn, tamper):
        self._conn = conn
        self._tamper = tamper

    def send(self, message):
        self._conn.send(message)

    def recv(self):
        reply = self._conn.recv()
        return self._tamper(reply) if "hit" in reply else reply

    def close(self):
        self._conn.close()


class TestClusterWire:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_fanout_slices_match_per_kmer_grouping(
        self, segments, small_dataset, workers
    ):
        kmers = [
            kmer
            for read in small_dataset.reads[:6]
            for kmer in read.kmers(small_dataset.k)
        ]
        with _observer(_FanoutRecorder(hooks.get_observer())) as recorder:
            with make_cluster(segments, workers=workers) as backend:
                owner = {
                    p: row["worker"]
                    for row in backend.cluster_stats()["workers"]
                    for p in row["partitions"]
                }
                backend.query(kmers)
        # The per-element grouping the array path replaced: route each
        # k-mer on its own, count slice sizes per owner.
        expected = {}
        for kmer in kmers:
            key = cache_key_kmer(kmer, small_dataset.k, backend.canonical)
            worker = owner[partition_id(key, 16)]
            expected[worker] = expected.get(worker, 0) + 1
        assert [(w, n) for _, w, n in recorder.fanouts] == sorted(
            expected.items()
        )

    @pytest.mark.parametrize(
        "tamper,message",
        [
            (lambda r: {**r, "qid": r["qid"] + 1}, "answered query"),
            (
                lambda r: {**r, "hit": r["hit"][:-1], "payload": r["payload"][:-1]},
                "for a",
            ),
            (lambda r: {**r, "payload": r["payload"][:-1]}, "for a"),
        ],
        ids=["wrong-qid", "short-reply", "short-payload"],
    )
    def test_malformed_reply_raises(
        self, segments, small_dataset, tamper, message
    ):
        kmers = list(small_dataset.reads[0].kmers(small_dataset.k))
        # The aborted query leaves its fan-out unanswered on purpose, so
        # this backend runs outside the session sanitizer.
        with _observer(None):
            with make_cluster(segments, workers=1) as backend:
                handle = backend._workers[0]
                handle.conn = _TamperedConn(handle.conn, tamper)
                with pytest.raises(ClusterError, match=message):
                    backend.query(kmers)

    def test_killed_worker_raises_cluster_error(self, segments, small_dataset):
        """A worker that died between queries fails the next fan-out
        with the typed error, not a raw ``BrokenPipeError``."""
        kmers = list(small_dataset.reads[0].kmers(small_dataset.k))
        with _observer(None):
            with make_cluster(segments, workers=1) as backend:
                process = backend._workers[0].process
                os.kill(process.pid, signal.SIGKILL)
                process.join(timeout=30)
                with pytest.raises(ClusterError, match="died"):
                    backend.query(kmers)


class TestClusterServiceFailure:
    @pytest.mark.parametrize("pipelined", [False, True], ids=["serial", "pipelined"])
    def test_closed_cluster_fails_requests_instead_of_hanging(
        self, segments, small_dataset, pipelined
    ):
        backend = make_cluster(segments, workers=1)
        config = ServiceConfig(
            num_shards=1,
            max_linger_s=0.0,
            executor_threads=1 if pipelined else 0,
            pipelined=pipelined,
        )
        service = ClassificationService([backend], config)
        reads = small_dataset.reads[:2]

        async def scenario():
            await service.start()
            try:
                backend.close()
                # Each request resolves with the backend's error; the
                # shard keeps serving, so the next one fails too.
                for read in reads:
                    with pytest.raises(ClusterError, match="closed"):
                        await asyncio.wait_for(service.submit(read), 30)
            finally:
                await service.stop()

        asyncio.run(scenario())
