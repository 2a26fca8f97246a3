"""QueryBackend protocol conformance across every engine.

One shared suite drives the functional Sieve device, the plain
database, both software classifiers, the flat sorted list, the
row-major in-situ baseline and the cluster through the unified
``query()`` / ``classify()`` / ``capabilities()`` / ``stats()``
surface, and checks they agree with each other.  ``query()`` answers
with one columnar :class:`~repro.api.ResultBatch`; its rows must equal
the per-k-mer records the list-returning implementation produced
(``tests/data/backend_records_golden.json``).  The conftest keeps
the DRAM protocol sanitizer active throughout, so conformance runs
double as a protocol audit of the device-backed engines.
"""

from __future__ import annotations

import asyncio
import inspect
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    ApiError,
    BackendCapabilities,
    BackendResult,
    BackendStats,
    QueryBackend,
    ResultBatch,
    classification_from_results,
)
from repro.baselines import ClarkClassifier, KrakenClassifier
from repro.baselines.classifier import classify_read
from repro.baselines.sortedlist import SortedListClassifier
from repro.insitu.rowmajor import RowMajorMatcher
from repro.sieve import SieveDevice

BACKEND_NAMES = (
    "sieve",
    "database",
    "kraken",
    "clark",
    "sortedlist",
    "rowmajor",
    "cluster",
)


def make_backend(name: str, dataset, layout, segment_dir=None):
    db = dataset.database
    if name == "sieve":
        return SieveDevice.from_database(db, layout=layout)
    if name == "database":
        return db
    if name == "kraken":
        return KrakenClassifier(db, m=4)
    if name == "clark":
        return ClarkClassifier(db)
    if name == "sortedlist":
        return SortedListClassifier(db)
    if name == "rowmajor":
        return RowMajorMatcher(db.k, list(db.items()), row_bits=512)
    if name == "cluster":
        from repro.cluster import ClusterBackend
        from repro.service import ClusterConfig

        assert segment_dir is not None
        return ClusterBackend(
            segment_dir,
            cluster=ClusterConfig(workers=2),
        )
    raise AssertionError(name)


def close_backend(backend) -> None:
    closer = getattr(backend, "close", None)
    if callable(closer):
        closer()


@pytest.fixture(scope="module")
def cluster_segments(small_dataset, tmp_path_factory):
    """Persisted mmap segments the cluster conformance runs map."""
    from repro.serialization import save_segments

    directory = tmp_path_factory.mktemp("api-cluster-segments")
    save_segments(small_dataset.database, directory)
    return str(directory)


@pytest.fixture(params=BACKEND_NAMES)
def backend(request, small_dataset, small_layout, cluster_segments):
    built = make_backend(
        request.param, small_dataset, small_layout, cluster_segments
    )
    yield built
    close_backend(built)


@pytest.fixture()
def query_set(small_dataset):
    """Mixed present/absent k-mers, order-sensitive."""
    present = [kmer for kmer, _ in small_dataset.database.items()][:12]
    absent = [
        kmer
        for kmer in range(4**small_dataset.k - 40, 4**small_dataset.k)
        if small_dataset.database.get(kmer) is None
    ][:8]
    mixed = []
    for a, b in zip(present, absent):
        mixed.extend((a, b))
    return mixed + present[len(absent) :]


class TestConformance:
    def test_isinstance_protocol(self, backend):
        assert isinstance(backend, QueryBackend)

    def test_query_shape_and_order(self, backend, query_set):
        results = backend.query(query_set)
        assert isinstance(results, ResultBatch)
        assert len(results) == len(query_set)
        assert results.queries.dtype == np.uint64
        assert not results.payload[~results.hit].any()
        for kmer, result in zip(query_set, results):
            assert isinstance(result, BackendResult)
            assert type(result.query) is int
            assert result.hit == (result.payload is not None)

    def test_payloads_match_database(
        self, backend, query_set, small_dataset
    ):
        db = small_dataset.database
        for kmer, result in zip(query_set, backend.query(query_set)):
            assert result.payload == db.get(kmer)

    def test_stats_accounting_is_uniform(self, backend, query_set):
        before = backend.stats()
        assert isinstance(before, BackendStats)
        results = backend.query(query_set)
        after = backend.stats()
        assert after.queries - before.queries == len(query_set)
        assert after.hits - before.hits == sum(1 for r in results if r.hit)
        if after.queries:
            assert after.hit_rate == after.hits / after.queries

    def test_capabilities(self, backend, small_dataset):
        caps = backend.capabilities()
        assert isinstance(caps, BackendCapabilities)
        assert caps.name
        assert caps.kind
        assert caps.k == small_dataset.k

    def test_query_takes_only_kmers(self, backend):
        """One ``query(kmers)`` per engine and in the protocol: no mode
        flag or option rides along."""
        for query in (type(backend).query, QueryBackend.query):
            assert list(inspect.signature(query).parameters) == ["self", "kmers"]

    @pytest.mark.parametrize("name", ["sieve", "database"])
    def test_scalar_flag_is_equivalent(
        self, name, small_dataset, small_layout, query_set
    ):
        """``query`` equals the engine's one-k-mer-at-a-time reference:
        the device's command-by-command ``query_scalar``, the database's
        per-k-mer ``get``."""
        backend = make_backend(name, small_dataset, small_layout)
        if name == "sieve":
            scalar = [(r.query, r.hit, r.payload) for r in backend.query_scalar(query_set)]
        else:
            scalar = [(k, backend.get(k) is not None, backend.get(k)) for k in query_set]
        assert [(r.query, r.hit, r.payload) for r in backend.query(query_set)] == scalar


@pytest.mark.parametrize(
    "name", [n for n in BACKEND_NAMES if n != "rowmajor"]
)
def test_classify_matches_shared_vote_path(
    name, small_dataset, small_layout, cluster_segments
):
    """Every engine's ``query`` votes, through the shared
    ``classification_from_results``, as the classic lookup-fn loop does.

    (The row-major matcher is excluded: it indexes raw records, not the
    canonicalized view ``db.get`` serves.)
    """
    backend = make_backend(name, small_dataset, small_layout, cluster_segments)
    try:
        db = small_dataset.database
        for read in small_dataset.reads[:5]:
            results = backend.query(read.kmer_list(small_dataset.k))
            assert classification_from_results(
                read.seq_id, results, true_taxon=read.taxon_id
            ) == classify_read(read, small_dataset.k, db.get)
    finally:
        close_backend(backend)


# ---------------------------------------------------------------------------
# Columnar results: the ResultBatch every query() returns
# ---------------------------------------------------------------------------


#: Rows ``[query, hit, payload, subarray_id, rows_activated,
#: etm_flush_cycles]`` recorded from the list-returning ``query()`` of
#: every engine, before results became columnar.
RECORDS_GOLDEN = Path(__file__).parent / "data" / "backend_records_golden.json"


def _rows(results):
    return [
        [
            r.query,
            r.hit,
            r.payload,
            r.subarray_id,
            r.rows_activated,
            r.etm_flush_cycles,
        ]
        for r in results
    ]


def _wide_device():
    """A k = 33 device over raw records (66-bit k-mers, object keys)
    and a query list mixing hits, a near miss, and both range ends."""
    from repro.sieve import SubarrayLayout
    from repro.sieve.functional import SieveSubarraySim
    from repro.sieve.index import SubarrayIndex

    rng = np.random.default_rng(77)
    layout = SubarrayLayout(
        k=33,
        row_bits=72,
        rows_per_subarray=256,
        refs_per_group=8,
        queries_per_group=4,
        layers=2,
    )
    kmers = sorted(
        {
            (int(high) << 4) | int(low)
            for high, low in zip(
                rng.integers(1, 1 << 62, size=250), rng.integers(0, 16, size=250)
            )
        }
    )
    records = [(kmer, int(rng.integers(0, 2**16))) for kmer in kmers]
    index, chunks = SubarrayIndex.build(
        [kmer for kmer, _ in records], layout.refs_per_subarray
    )
    payload_of = dict(records)
    subarrays = {
        sid: SieveSubarraySim(layout, [(kmer, payload_of[kmer]) for kmer in chunk])
        for sid, chunk in enumerate(chunks)
    }
    queries = kmers[::7] + [kmers[3] + 1, 0, (1 << 66) - 1] + kmers[:5]
    return SieveDevice(index, subarrays, layout), queries


def _check_batch_rows(batch, want_rows, key_dtype):
    """``batch`` answers ``want_rows`` row by row, however it is read."""
    assert isinstance(batch, ResultBatch)
    assert batch.queries.dtype == key_dtype
    assert _rows(batch) == want_rows
    assert _rows(batch[i] for i in range(len(batch))) == want_rows
    assert batch == [BackendResult(*row) for row in want_rows]
    assert all(type(r.query) is int for r in batch)
    assert batch.hit.tolist() == [row[1] for row in want_rows]
    assert batch.payload.tolist() == [row[2] or 0 for row in want_rows]
    if batch.subarray_id is not None:
        assert batch.subarray_id.tolist() == [
            -1 if row[3] is None else row[3] for row in want_rows
        ]
    # A slice is a batch over the same rows.
    assert _rows(batch[1:4]) == want_rows[1:4]


@pytest.mark.parametrize(
    "name",
    [
        "sieve",
        "sieve-canonical",
        "database",
        "kraken",
        "clark",
        "sortedlist",
        "rowmajor",
        "cluster",
    ],
)
def test_query_batch_equals_recorded_records(
    name, small_dataset, small_layout, cluster_segments, query_set
):
    """Every engine's batch equals the list-returning implementation's
    records row by row — micro-events included — batched, scalar (the
    device's ``query_scalar``; ``query`` on the other engines), and on
    an empty call."""
    golden = json.loads(RECORDS_GOLDEN.read_text())[name]
    reads = [k for r in small_dataset.reads[:3] for k in r.kmers(small_dataset.k)]
    cases = [("mixed/batched", query_set), ("mixed/scalar", query_set), ("empty/batched", [])]
    if name.startswith("sieve"):
        cases += [("reads/batched", reads), ("reads/scalar", reads)]
    for label, kmers in cases:
        if name == "sieve-canonical":
            from repro.genomics.database import KmerDatabase

            database = KmerDatabase.from_genomes(
                ((g, g.taxon_id) for g in small_dataset.genomes),
                small_dataset.k,
                canonical=True,
                taxonomy=small_dataset.taxonomy,
            )
            backend = SieveDevice.from_database(database, layout=small_layout)
        else:
            backend = make_backend(name, small_dataset, small_layout, cluster_segments)
        scalar = label.endswith("/scalar") and name.startswith("sieve")
        try:
            batch = backend.query_scalar(kmers) if scalar else backend.query(kmers)
        finally:
            close_backend(backend)
        _check_batch_rows(batch, golden[label], np.uint64)
        if name.startswith("sieve"):
            assert batch.rows_activated is not None
            assert batch.etm_flush_cycles is not None


@pytest.mark.parametrize("label", ["batched", "scalar"])
def test_k33_device_batch_keeps_object_queries(label):
    """Multi-word k-mers keep Python-int keys in an object column."""
    golden = json.loads(RECORDS_GOLDEN.read_text())["sieve-k33"]
    device, queries = _wide_device()
    batch = device.query_scalar(queries) if label == "scalar" else device.query(queries)
    _check_batch_rows(batch, golden[f"wide/{label}"], object)
    assert any(row[0] >= 1 << 64 for row in _rows(batch))


def test_result_batch_round_trips_records():
    records = [
        BackendResult(query=5, hit=True, payload=0, subarray_id=2, rows_activated=7),
        BackendResult(query=6, hit=False, payload=None),
        BackendResult(query=7, hit=True, payload=9, etm_flush_cycles=3),
    ]
    batch = ResultBatch.from_results(records)
    assert list(batch) == records
    assert ResultBatch.from_results(batch) is batch
    assert batch[-1] == records[-1]
    assert batch[np.array([2, 0])] == [records[2], records[0]]
    with pytest.raises(IndexError):
        batch[3]
    batch[1] = BackendResult(query=6, hit=True, payload=4, subarray_id=1)
    assert batch[1] == BackendResult(query=6, hit=True, payload=4, subarray_id=1)
    assert (batch[0], batch[2]) == (records[0], records[2])
    plain = ResultBatch.from_payloads([1, 2], [None, 3])
    plain[0] = BackendResult(query=1, hit=True, payload=5)
    assert list(plain) == [
        BackendResult(query=1, hit=True, payload=5),
        BackendResult(query=2, hit=True, payload=3),
    ]
    with pytest.raises(ApiError):
        plain[1] = BackendResult(query=2, hit=True, payload=3, rows_activated=1)
    with pytest.raises(ApiError):
        ResultBatch.from_results([BackendResult(query=1, hit=True, payload=None)])
    with pytest.raises(ApiError):
        ResultBatch(np.zeros(2, dtype=np.uint64), np.zeros(1, dtype=bool), np.zeros(2))


def _vote_reference(read_id, records, true_taxon):
    """The per-record vote loop of the list-returning implementation."""
    from repro.baselines.classifier import ClassificationResult, majority_vote

    votes = {}
    hits = 0
    for record in records:
        if record.hit and record.payload is not None:
            hits += 1
            votes[record.payload] = votes.get(record.payload, 0) + 1
    return ClassificationResult(
        read_id=read_id,
        taxon=majority_vote(votes),
        votes=votes,
        kmers_total=len(records),
        kmers_hit=hits,
        true_taxon=true_taxon,
    )


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 2**64 - 1), st.booleans(), st.integers(0, 6)),
        max_size=60,
    ),
    true_taxon=st.one_of(st.none(), st.integers(0, 6)),
)
def test_vote_over_batch_equals_vote_over_records(rows, true_taxon):
    batch = ResultBatch(
        np.array([q for q, _, _ in rows], dtype=np.uint64),
        np.array([h for _, h, _ in rows], dtype=bool),
        np.array([p if h else 0 for _, h, p in rows], dtype=np.int64),
    )
    got = classification_from_results("r", batch, true_taxon=true_taxon)
    assert got == classification_from_results("r", list(batch), true_taxon=true_taxon)
    want = _vote_reference("r", list(batch), true_taxon)
    assert got == want
    assert list(got.votes.items()) == list(want.votes.items())


def test_cluster_cache_vote_path_builds_no_records(
    small_dataset, cluster_segments, monkeypatch
):
    """Served through the cache in front of the cluster, no
    ``BackendResult`` is constructed between the workers' arrays and
    the classification — yet every answer equals the scalar path's."""
    from repro.cluster import ClusterBackend
    from repro.service import ClassificationService, ClusterConfig, ServiceConfig

    reads = small_dataset.reads[:20]
    db = small_dataset.database
    expected = [
        classification_from_results(
            read.seq_id,
            db.query(list(read.kmers(small_dataset.k))),
            true_taxon=read.taxon_id,
        )
        for read in reads
    ]
    constructed = []
    original_init = BackendResult.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(args)
        original_init(self, *args, **kwargs)

    backend = ClusterBackend(
        cluster_segments, cluster=ClusterConfig(workers=2)
    )
    config = ServiceConfig(
        num_shards=1, max_batch_kmers=256, dedup=True, cache_capacity=64
    )
    service = ClassificationService([backend], config)

    async def serve():
        await service.start()
        try:
            # Twice over: the second pass is served partly from cache.
            first = await asyncio.gather(*(service.submit(r) for r in reads))
            second = await asyncio.gather(*(service.submit(r) for r in reads))
        finally:
            await service.stop()
        return first + second

    try:
        monkeypatch.setattr(BackendResult, "__init__", counting_init)
        responses = asyncio.run(serve())
        monkeypatch.undo()
    finally:
        backend.close()
    assert constructed == []
    assert [r.classification for r in responses] == expected + expected
    counters = service.stats()["cache"]
    assert counters["hit_kmers"] > 0 and counters["evictions"] > 0


def test_classification_from_results_votes(small_dataset):
    results = [
        BackendResult(query=1, hit=True, payload=7),
        BackendResult(query=2, hit=True, payload=7),
        BackendResult(query=3, hit=True, payload=3),
        BackendResult(query=4, hit=False, payload=None),
    ]
    cls = classification_from_results("r1", results, true_taxon=7)
    assert cls.taxon == 7
    assert cls.votes == {7: 2, 3: 1}
    assert cls.kmers_total == 4
    assert cls.kmers_hit == 3
    assert cls.correct is True


# ---------------------------------------------------------------------------
# Conformance under an active fault model (repro.faults)
# ---------------------------------------------------------------------------


FAULT_RATE = 2e-4


def make_faulted_backend(name: str, dataset, layout, injector, tmp_dir=None):
    """Build ``name`` with the fault injector active during load.

    Device-backed engines corrupt at DRAM-load time (the injector seam
    in :mod:`repro.dram`); host engines are built over a
    record-corrupted copy of the database.  The cluster persists the
    corrupted records to segments, so its workers serve the same faulted
    image and the manifest carries the ``degraded`` provenance flag.
    """
    from repro.faults import fault_injection, faulted_database

    if name in ("sieve", "rowmajor"):
        with fault_injection(injector):
            return make_backend(name, dataset, layout)
    db = faulted_database(dataset.database, injector)
    if name == "database":
        return db
    if name == "kraken":
        return KrakenClassifier(db, m=4)
    if name == "clark":
        return ClarkClassifier(db)
    if name == "sortedlist":
        return SortedListClassifier(db)
    if name == "cluster":
        from repro.cluster import ClusterBackend
        from repro.serialization import save_segments
        from repro.service import ClusterConfig

        assert tmp_dir is not None
        save_segments(db, tmp_dir)
        return ClusterBackend(
            str(tmp_dir),
            cluster=ClusterConfig(workers=2),
        )
    raise AssertionError(name)


class TestFaultedConformance:
    """Every backend once under a nonzero seeded fault model.

    Protocol invariants must survive corruption: shapes, ordering,
    stats accounting, and the hit/payload coupling all hold even when
    the *answers* are wrong.  The session-scoped DRAM sanitizer stays
    active, so the injector must not break protocol or latency
    accounting either.
    """

    @pytest.fixture(params=BACKEND_NAMES)
    def faulted_backend(self, request, small_dataset, small_layout, tmp_path):
        from repro.faults import FaultInjector, FaultModel

        model = FaultModel.seeded(
            f"api-protocol-{request.param}", bit_flip_rate=FAULT_RATE
        )
        built = make_faulted_backend(
            request.param,
            small_dataset,
            small_layout,
            FaultInjector(model),
            tmp_dir=tmp_path / "segments",
        )
        yield built
        close_backend(built)

    def test_protocol_shape_under_faults(self, faulted_backend, query_set):
        results = faulted_backend.query(query_set)
        assert isinstance(results, ResultBatch)
        assert len(results) == len(query_set)
        for kmer, result in zip(query_set, results):
            assert isinstance(result, BackendResult)
            assert result.query == kmer
            assert result.hit == (result.payload is not None)

    def test_stats_accounting_under_faults(self, faulted_backend, query_set):
        before = faulted_backend.stats()
        results = faulted_backend.query(query_set)
        after = faulted_backend.stats()
        assert after.queries - before.queries == len(query_set)
        assert after.hits - before.hits == sum(1 for r in results if r.hit)

    def test_capabilities_report_degraded(
        self, faulted_backend, small_dataset
    ):
        caps = faulted_backend.capabilities()
        assert isinstance(caps, BackendCapabilities)
        assert caps.k == small_dataset.k
        assert caps.degraded is True

    def test_faulted_build_is_deterministic(
        self, small_dataset, small_layout, query_set
    ):
        from repro.faults import FaultInjector, FaultModel

        def answers():
            model = FaultModel.seeded("api-replay", bit_flip_rate=FAULT_RATE)
            backend = make_faulted_backend(
                "sieve", small_dataset, small_layout, FaultInjector(model)
            )
            return [
                (r.hit, r.payload) for r in backend.query(query_set)
            ]

        assert answers() == answers()

    def test_clean_backends_not_degraded(
        self, small_dataset, small_layout, cluster_segments
    ):
        for name in BACKEND_NAMES:
            backend = make_backend(
                name, small_dataset, small_layout, cluster_segments
            )
            try:
                assert backend.capabilities().degraded is False, name
            finally:
                close_backend(backend)
