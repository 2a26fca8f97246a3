"""Multi-process shard cluster: partitioning, bit-identity, lifecycle.

The tentpole invariant is that the cluster is *invisible* in the
answers: at any worker count — including mid-stream rolling restarts —
the merged classifications are bit-identical to the sequential scalar
path over the same database image.  The session-scoped schedule
sanitizer stays active, so every spawn/drain/fanout in these tests is
also audited for exactly-once delivery.
"""

from __future__ import annotations

import asyncio
import os
import signal

import numpy as np
import pytest

from repro import hooks
from repro.api import classification_from_results
from repro.cluster import (
    ClusterBackend,
    ClusterError,
    PartitionError,
    partition_ids,
)
from repro.cluster.worker import PartitionStore
from repro.genomics import build_dataset, cache_key_kmer
from repro.genomics.encoding import revcomp_values
from repro.serialization import save_segments
from repro.service import ClassificationService, ClusterConfig, ServiceConfig


@pytest.fixture(scope="module")
def segments(small_dataset, tmp_path_factory):
    directory = tmp_path_factory.mktemp("cluster-segments")
    save_segments(small_dataset.database, directory)
    return str(directory)


def make_cluster(segments, workers=2):
    return ClusterBackend(segments, cluster=ClusterConfig(workers=workers))


def live_residents(backend):
    return [
        row["resident"]
        for row in backend.cluster_stats()["workers"]
        if row["state"] == "live"
    ]


def reference_classifications(dataset):
    out = []
    for read in dataset.reads[:12]:
        kmers = list(read.kmers(dataset.k))
        out.append(
            classification_from_results(
                read.seq_id,
                dataset.database.query(kmers),
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


class TestClusterBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_matches_sequential_scalar_path(
        self, segments, small_dataset, workers
    ):
        expected = reference_classifications(small_dataset)
        with make_cluster(segments, workers=workers) as backend:
            assert cluster_classifications(backend, small_dataset) == expected

    def test_result_order_and_echoed_queries(self, segments, small_dataset):
        read = small_dataset.reads[0]
        kmers = list(read.kmers(small_dataset.k))
        with make_cluster(segments) as backend:
            results = backend.query(kmers)
        assert [r.query for r in results] == kmers
        expected = small_dataset.database.query(kmers)
        assert [(r.hit, r.payload) for r in results] == [
            (r.hit, r.payload) for r in expected
        ]

    def test_no_worker_holds_a_full_build(self, segments, small_dataset):
        with make_cluster(segments, workers=2) as backend:
            residents = live_residents(backend)
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
            before = live_residents(backend)
            backend.schedule_restart(0, at_query=3)
            backend.schedule_restart(1, at_query=7)
            got = cluster_classifications(backend, small_dataset)
            restarts = backend.cluster_stats()["restarts"]
            after = live_residents(backend)
        assert got == expected
        assert restarts == 2
        # Placement is static: each worker respawns on the same slice.
        assert [r["owned_records"] for r in after] == [
            r["owned_records"] for r in before
        ]

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
        store = PartitionStore(segments, worker_id=0, workers=16)
        db = small_dataset.database
        foreign = None
        for kmer, _ in db.items():
            if int(partition_ids([kmer], 16)[0]) != 0:
                foreign = kmer
                break
        assert foreign is not None
        with pytest.raises(ValueError, match="does not own"):
            store.query([foreign])

    def test_rejects_out_of_range_partition(self, segments):
        with pytest.raises(ValueError, match="out of range"):
            PartitionStore(segments, worker_id=16, workers=16)

    def test_query_returns_hit_and_payload_arrays(
        self, segments, small_dataset
    ):
        db = small_dataset.database
        store = PartitionStore(segments, worker_id=0, workers=1)
        kmers = list(small_dataset.reads[0].kmers(small_dataset.k))
        # The reference is not canonical, so the cache keys are the
        # k-mers themselves.
        assert not db.canonical
        hit, payload = store.query(np.asarray(kmers, dtype=np.uint64))
        assert hit.dtype == np.bool_ and payload.dtype == np.int64
        expected = db.query(kmers)
        assert hit.tolist() == [r.hit for r in expected]
        assert [p if h else None for h, p in zip(hit.tolist(), payload.tolist())] == [
            r.payload for r in expected
        ]
        assert int(payload[~hit].sum()) == 0  # misses carry payload 0

    def test_empty_query_returns_empty_arrays(self, segments):
        store = PartitionStore(segments, worker_id=0, workers=16)
        hit, payload = store.query(np.empty(0, dtype=np.uint64))
        assert hit.shape == payload.shape == (0,)
        assert hit.dtype == np.bool_ and payload.dtype == np.int64

    def test_resident_reports_slice_only(self, segments, small_dataset):
        store = PartitionStore(segments, worker_id=2, workers=4)
        resident = store.resident()
        assert resident["full_build"] is False
        assert resident["total_records"] == len(small_dataset.database)
        assert 0 < resident["owned_records"] < resident["total_records"]


class TestStaticPlacement:
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_every_worker_owns_its_share(
        self, segments, small_dataset, workers
    ):
        total = len(small_dataset.database)
        with make_cluster(segments, workers=workers) as backend:
            owned = [r["owned_records"] for r in live_residents(backend)]
        assert len(owned) == workers and sum(owned) == total
        for records in owned:
            assert 0.75 * total / workers <= records <= 1.25 * total / workers

    def test_canonical_reference_answers_both_strands(
        self, small_dataset, tmp_path
    ):
        dataset = build_dataset(
            k=small_dataset.k,
            num_species=4,
            genome_length=150,
            num_reads=12,
            read_length=50,
            error_rate=0.02,
            novel_fraction=0.3,
            canonical=True,
            seed=7,
        )
        database = dataset.database
        assert database.canonical
        save_segments(database, tmp_path)
        forward = np.array(
            [kmer for read in dataset.reads for kmer in read.kmers(dataset.k)],
            dtype=np.uint64,
        )
        reverse = revcomp_values(forward, dataset.k)
        with make_cluster(str(tmp_path), workers=3) as backend:
            for kmers in (forward.tolist(), reverse.tolist()):
                got = backend.query(kmers)
                expected = database.query(kmers)
                # The raw k-mers echo back; the answers are the
                # shared canonical record's.
                assert [r.query for r in got] == kmers
                assert [(r.hit, r.payload) for r in got] == [
                    (r.hit, r.payload) for r in expected
                ]
                assert any(r.hit for r in got)


# ---------------------------------------------------------------------------
# Wire protocol: uint64 slices out, (hit, payload) arrays back
# ---------------------------------------------------------------------------


class _FanoutRecorder(hooks.Observer):
    """Observer that records fan-out slice sizes."""

    def __init__(self):
        self.fanouts = []

    def on_cluster_fanout(self, scope, qid, worker_id, num_kmers):
        self.fanouts.append((qid, worker_id, num_kmers))


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
        recorder = _FanoutRecorder()
        with hooks.observing(*hooks.OBSERVERS, recorder):
            with make_cluster(segments, workers=workers) as backend:
                backend.query(kmers)
        # The per-element grouping the array path replaced: route each
        # k-mer on its own, count slice sizes per owner.
        expected = {}
        for kmer in kmers:
            key = cache_key_kmer(kmer, small_dataset.k, backend.canonical)
            worker = int(partition_ids([key], workers)[0])
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
        with hooks.observing():
            with make_cluster(segments, workers=1) as backend:
                handle = backend._workers[0]
                handle.conn = _TamperedConn(handle.conn, tamper)
                with pytest.raises(ClusterError, match=message):
                    backend.query(kmers)

    def test_killed_worker_raises_cluster_error(self, segments, small_dataset):
        """A worker that died between queries fails the next fan-out
        with the typed error, not a raw ``BrokenPipeError``."""
        kmers = list(small_dataset.reads[0].kmers(small_dataset.k))
        with hooks.observing():
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
