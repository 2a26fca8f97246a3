"""Tests for repro.workloads: traces, the generator, and replay goldens.

Three layers of guarantees:

* **Trace artifact** — save/load roundtrips, content hashing is a pure
  function of the payload, malformed payloads fail loudly, arrival
  monotonicity is validated at construction.
* **Generator** — seeded determinism (same arguments => same content
  hash), zipfian weight properties, burst structure, novel-read
  fraction, argument validation.
* **Replay goldens** — the committed ``tests/data`` artifacts: the
  trace's content hash is pinned, and replaying it cached or uncached
  at every pinned shard count must reproduce one classification
  digest bit-for-bit.  Regenerate only via
  ``tests/data/make_trace_golden.py`` (docs/TESTING.md).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.genomics import build_dataset
from repro.genomics.synthetic import GenerationError
from repro.service import ClassificationService, ServiceConfig
from repro.sieve import SieveDevice
from repro.workloads import (
    TRACE_FORMAT,
    Trace,
    TraceError,
    TraceRequest,
    classification_digest,
    generate_trace,
    replay_trace,
    zipfian_weights,
)

DATA_DIR = Path(__file__).resolve().parent / "data"


def _small_params(**overrides):
    params = dict(
        k=9,
        num_species=4,
        genome_length=150,
        num_reads=30,
        read_length=50,
        error_rate=0.02,
        novel_fraction=0.3,
        seed=42,
    )
    params.update(overrides)
    return params


# ---------------------------------------------------------------------------
# Trace artifact
# ---------------------------------------------------------------------------


class TestTraceArtifact:
    def _trace(self):
        requests = (
            TraceRequest(seq_id="r0", bases="ACGTACGTACGT", taxon_id=3, arrival_s=0.0),
            TraceRequest(seq_id="r1", bases="TTTTACGTACGT", taxon_id=None, arrival_s=0.0),
            TraceRequest(seq_id="r2", bases="ACGTACGTTTTT", taxon_id=5, arrival_s=0.25),
        )
        return Trace(
            k=9,
            seed=11,
            label="unit",
            requests=requests,
            dataset_params={"k": 9, "seed": 42},
        )

    def test_save_load_roundtrip(self, tmp_path):
        trace = self._trace()
        path = trace.save(tmp_path / "t.json")
        loaded = Trace.load(path)
        assert loaded == trace
        assert loaded.content_hash() == trace.content_hash()

    def test_content_hash_is_content_only(self, tmp_path):
        trace = self._trace()
        a = trace.save(tmp_path / "a" / "one.json")
        b = trace.save(tmp_path / "b" / "two.json")
        assert Trace.load(a).content_hash() == Trace.load(b).content_hash()
        # Any payload field participates in the identity.
        bumped = Trace(
            k=trace.k,
            seed=trace.seed + 1,
            label=trace.label,
            requests=trace.requests,
            dataset_params=trace.dataset_params,
        )
        assert bumped.content_hash() != trace.content_hash()

    def test_reads_match_requests(self):
        trace = self._trace()
        reads = trace.reads()
        assert [r.seq_id for r in reads] == ["r0", "r1", "r2"]
        assert [r.taxon_id for r in reads] == [3, None, 5]
        assert [r.bases for r in reads] == [
            req.bases for req in trace.requests
        ]

    def test_arrivals_must_be_monotone(self):
        with pytest.raises(TraceError, match="non-decreasing"):
            Trace(
                k=9,
                seed=0,
                label="bad",
                requests=(
                    TraceRequest("a", "ACGT", 1, arrival_s=1.0),
                    TraceRequest("b", "ACGT", 1, arrival_s=0.5),
                ),
            )

    def test_from_payload_rejects_garbage(self):
        with pytest.raises(TraceError, match="JSON object"):
            Trace.from_payload(["not", "a", "dict"])
        with pytest.raises(TraceError, match="unsupported trace format"):
            Trace.from_payload({"format": "sieve-repro-trace-v0"})
        with pytest.raises(TraceError, match="malformed"):
            Trace.from_payload(
                {"format": TRACE_FORMAT, "k": 9, "seed": 1, "label": "x"}
            )
        with pytest.raises(TraceError, match="malformed trace request"):
            Trace.from_payload(
                {
                    "format": TRACE_FORMAT,
                    "k": 9,
                    "seed": 1,
                    "label": "x",
                    "requests": [{"seq_id": "a"}],
                }
            )

    def test_load_rejects_truncated_file(self, tmp_path):
        path = self._trace().save(tmp_path / "t.json")
        path.write_text(path.read_text()[: 40], encoding="utf-8")
        with pytest.raises(TraceError, match="cannot read trace"):
            Trace.load(path)

    def test_rebuild_dataset_requires_params(self):
        trace = Trace(k=9, seed=0, label="bare", requests=())
        with pytest.raises(TraceError, match="no dataset parameters"):
            trace.rebuild_dataset()


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


class TestZipfianWeights:
    def test_normalized_and_monotone(self):
        w = zipfian_weights(16, 1.2)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(np.diff(w) < 0)

    def test_s_zero_is_uniform(self):
        w = zipfian_weights(8, 0.0)
        assert np.allclose(w, 1.0 / 8)

    def test_steeper_s_concentrates_mass(self):
        assert zipfian_weights(10, 2.0)[0] > zipfian_weights(10, 1.0)[0]

    def test_validation(self):
        with pytest.raises(GenerationError):
            zipfian_weights(0, 1.0)
        with pytest.raises(GenerationError):
            zipfian_weights(4, -0.5)


class TestGenerateTrace:
    @pytest.fixture(scope="class")
    def dataset(self):
        return build_dataset(**_small_params())

    def test_same_seed_same_content_hash(self, dataset):
        kwargs = dict(zipf_s=1.3, seed=5, read_length=40, label="det")
        a = generate_trace(dataset, 30, **kwargs)
        b = generate_trace(dataset, 30, **kwargs)
        assert a.content_hash() == b.content_hash()
        assert generate_trace(dataset, 30, zipf_s=1.3, seed=6, read_length=40).content_hash() != a.content_hash()

    def test_trace_shape_and_bursts(self, dataset):
        trace = generate_trace(
            dataset, 50, seed=3, read_length=40, burst_mean=4.0
        )
        assert len(trace) == 50
        arrivals = [req.arrival_s for req in trace.requests]
        assert arrivals == sorted(arrivals)
        # Geometric bursts with mean 4 over 50 requests make repeated
        # timestamps (bursts) overwhelmingly likely — and the trace
        # must still validate as non-decreasing.
        assert len(set(arrivals)) < len(arrivals)

    def test_zipf_skews_taxon_mix(self, dataset):
        flat = generate_trace(dataset, 200, zipf_s=0.0, seed=8, read_length=40)
        steep = generate_trace(dataset, 200, zipf_s=3.0, seed=8, read_length=40)

        def top_share(trace):
            counts: dict = {}
            for req in trace.requests:
                counts[req.taxon_id] = counts.get(req.taxon_id, 0) + 1
            return max(counts.values()) / len(trace)

        assert top_share(steep) > top_share(flat)

    def test_novel_fraction(self, dataset):
        trace = generate_trace(
            dataset, 80, novel_fraction=0.5, seed=2, read_length=40
        )
        novel = [req for req in trace.requests if req.taxon_id is None]
        assert 0 < len(novel) < len(trace)
        assert all("novel" in req.seq_id for req in novel)
        none_novel = generate_trace(
            dataset, 40, novel_fraction=0.0, seed=2, read_length=40
        )
        assert all(req.taxon_id is not None for req in none_novel.requests)

    def test_dataset_params_embedded(self, dataset):
        params = _small_params()
        trace = generate_trace(
            dataset, 10, seed=4, read_length=40, dataset_params=params
        )
        assert trace.dataset_params == params
        rebuilt = trace.rebuild_dataset()
        assert rebuilt.k == dataset.k
        assert len(rebuilt.genomes) == len(dataset.genomes)

    def test_validation(self, dataset):
        with pytest.raises(GenerationError, match="num_requests"):
            generate_trace(dataset, 0)
        with pytest.raises(GenerationError, match="novel_fraction"):
            generate_trace(dataset, 5, novel_fraction=1.5)
        with pytest.raises(GenerationError, match="burst_mean"):
            generate_trace(dataset, 5, burst_mean=0.5)
        with pytest.raises(GenerationError, match="gap_mean_s"):
            generate_trace(dataset, 5, gap_mean_s=-1.0)
        with pytest.raises(GenerationError, match="read_length"):
            generate_trace(dataset, 5, read_length=10_000)


# ---------------------------------------------------------------------------
# Replay goldens (committed artifacts in tests/data)
# ---------------------------------------------------------------------------


def _load_golden():
    return json.loads(
        (DATA_DIR / "trace_replay_golden.json").read_text(encoding="utf-8")
    )


def _replay(trace, database, *, num_shards, **cache_overrides):
    config = ServiceConfig(
        num_shards=num_shards,
        max_batch_kmers=96,
        max_linger_s=0.0,
        queue_depth=len(trace),
        **cache_overrides,
    )
    service = ClassificationService(
        [SieveDevice.from_database(database) for _ in range(num_shards)],
        config,
    )
    return replay_trace(service, trace), service


class TestTraceReplayGolden:
    @pytest.fixture(scope="class")
    def golden(self):
        return _load_golden()

    @pytest.fixture(scope="class")
    def trace(self, golden):
        return Trace.load(DATA_DIR / golden["trace_file"])

    @pytest.fixture(scope="class")
    def database(self, trace):
        return trace.rebuild_dataset().database

    def test_committed_trace_hash_is_pinned(self, golden, trace):
        assert trace.content_hash() == golden["content_hash"]

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    @pytest.mark.parametrize(
        "mode, overrides",
        [
            ("uncached", {}),
            ("dedup", {"dedup": True}),
            ("cached", {"dedup": True, "cache_capacity": 512}),
            (
                "self-checked",
                {"dedup": True, "cache_capacity": 512, "cache_self_check": True},
            ),
        ],
        ids=["uncached", "dedup", "cached", "self-checked"],
    )
    def test_replay_matches_golden_digest(
        self, golden, trace, database, num_shards, mode, overrides
    ):
        responses, service = _replay(
            trace, database, num_shards=num_shards, **overrides
        )
        assert len(responses) == len(trace)
        assert classification_digest(responses) == golden["classification_digest"]
        stats = service.stats()
        if mode == "cached":
            assert stats["cache"]["saved_kmers"] > 0
        if mode == "self-checked":
            # Every k-mer served, cache hits included, was re-answered
            # by the device and compared.
            assert (
                stats["cache"]["self_checked_kmers"]
                == stats["metrics"]["counters"]["kmers_total"]
            )

    def test_golden_covers_pinned_shard_counts(self, golden):
        assert golden["shard_counts"] == [1, 2, 4]

    def test_digest_is_sensitive_to_answers(self, trace, database):
        responses, _ = _replay(trace, database, num_shards=1)
        digest = classification_digest(responses)

        class _Tampered:
            def __init__(self, classification):
                self.classification = classification

        from dataclasses import replace

        tampered = [_Tampered(r.classification) for r in responses]
        tampered[0].classification = replace(
            tampered[0].classification, kmers_hit=10_000
        )
        assert classification_digest(tampered) != digest


# ---------------------------------------------------------------------------
# Cluster replay goldens: the multi-process topology must reproduce the
# committed sequential digest at every pinned worker count
# ---------------------------------------------------------------------------


class TestClusterReplayGolden:
    @pytest.fixture(scope="class")
    def golden(self):
        return _load_golden()

    @pytest.fixture(scope="class")
    def trace(self, golden):
        return Trace.load(DATA_DIR / golden["trace_file"])

    @pytest.fixture(scope="class")
    def segments(self, trace, tmp_path_factory):
        from repro.serialization import save_segments

        directory = tmp_path_factory.mktemp("workload-cluster-segments")
        save_segments(trace.rebuild_dataset().database, directory)
        return str(directory)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_cluster_digest_matches_sequential_golden(
        self, golden, trace, segments, workers
    ):
        from repro.cluster import ClusterBackend
        from repro.service import ClusterConfig

        backend = ClusterBackend(
            segments,
            cluster=ClusterConfig(workers=workers),
        )
        try:
            config = ServiceConfig(
                num_shards=1,
                max_batch_kmers=96,
                max_linger_s=0.0,
                queue_depth=len(trace),
            )
            service = ClassificationService([backend], config)
            responses = replay_trace(service, trace)
            assert len(responses) == len(trace)
            assert (
                classification_digest(responses)
                == golden["classification_digest"]
            )
        finally:
            backend.close()

    def test_restarted_cluster_still_matches_golden(
        self, golden, trace, segments
    ):
        from repro.cluster import ClusterBackend
        from repro.service import ClusterConfig

        backend = ClusterBackend(
            segments, cluster=ClusterConfig(workers=2)
        )
        try:
            backend.schedule_restart(0, at_query=3)
            backend.schedule_restart(1, at_query=9)
            config = ServiceConfig(
                num_shards=1,
                max_batch_kmers=96,
                max_linger_s=0.0,
                queue_depth=len(trace),
            )
            service = ClassificationService([backend], config)
            responses = replay_trace(service, trace)
            assert (
                classification_digest(responses)
                == golden["classification_digest"]
            )
            assert backend.cluster_stats()["restarts"] == 2
        finally:
            backend.close()


# ---------------------------------------------------------------------------
# End-to-end replay of the committed trace file
# ---------------------------------------------------------------------------

#: Cache settings of a replay (off, or dedup + LFU cache).
_UNCACHED = dict(dedup=False, cache_capacity=0)
_CACHED = dict(dedup=True, cache_capacity=512)


def _replay_trace_file(
    path, *, num_shards=2, dedup, cache_capacity, workers=0
):
    """Replay a saved trace from disk and summarise the run.

    Serves on ``num_shards`` in-process devices, or, with ``workers``,
    on one :class:`~repro.cluster.ClusterBackend` whose workers open the
    reference from mmap segments.  Returns the counters, the ``cache``
    block when dedup or the cache is on, and the cluster's residency.
    """
    import tempfile

    from repro.cluster import ClusterBackend
    from repro.serialization import save_segments
    from repro.service import ClusterConfig

    trace = Trace.load(path)
    database = trace.rebuild_dataset().database
    with tempfile.TemporaryDirectory(prefix="sieve-cluster-") as segdir:
        if workers:
            save_segments(database, segdir)
            cluster = ClusterBackend(
                segdir,
                cluster=ClusterConfig(workers=workers),
            )
            backends = [cluster]
        else:
            cluster = None
            backends = [
                SieveDevice.from_database(database) for _ in range(num_shards)
            ]
        try:
            config = ServiceConfig(
                num_shards=len(backends),
                max_batch_kmers=128,
                max_linger_s=0.0,
                queue_depth=len(trace),
                dedup=dedup,
                cache_capacity=cache_capacity,
            )
            service = ClassificationService(backends, config)
            responses = replay_trace(service, trace)
            stats = service.stats()
            summary = {
                "trace_hash": trace.content_hash(),
                "classification_digest": classification_digest(responses),
                "requests": len(responses),
                "kmers": stats["metrics"]["counters"]["kmers_total"],
            }
            if "cache" in stats:
                summary["cache"] = stats["cache"]
            if cluster is not None:
                rows = cluster.cluster_stats()
                residents = [
                    row["resident"]
                    for row in rows["workers"]
                    if row["state"] == "live"
                ]
                summary.update(
                    live_workers=rows["live_workers"],
                    full_build=any(r["full_build"] for r in residents),
                    owned_records=sum(r["owned_records"] for r in residents),
                    total_records=max(
                        (r["total_records"] for r in residents), default=0
                    ),
                )
        finally:
            if cluster is not None:
                cluster.close()
    return summary


class TestReplayJob:
    @pytest.mark.parametrize(
        "fields",
        [
            dict(num_shards=1, **_UNCACHED),
            dict(num_shards=2, **_UNCACHED),
            dict(num_shards=1, **_CACHED),
            dict(num_shards=2, **_CACHED),
            dict(workers=2, **_UNCACHED),
        ],
        ids=["1-shard", "2-shard", "1-shard-cached", "2-shard-cached", "cluster"],
    )
    def test_digest_matches_golden(self, fields):
        golden = _load_golden()
        payload = _replay_trace_file(DATA_DIR / golden["trace_file"], **fields)
        assert (
            payload["classification_digest"]
            == golden["classification_digest"]
        )
        assert payload["trace_hash"] == golden["content_hash"]
        assert payload["requests"] == 40
        cached = fields["dedup"] or fields["cache_capacity"] > 0
        assert ("cache" in payload) == cached
        if cached:
            assert payload["cache"]["device_kmers"] < payload["kmers"]
        if fields.get("workers"):
            assert payload["live_workers"] == fields["workers"]
            assert payload["full_build"] is False
            assert payload["owned_records"] == payload["total_records"]
        else:
            assert "live_workers" not in payload
