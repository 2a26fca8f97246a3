"""QueryBackend protocol conformance across every engine (PR-4).

One shared suite drives the functional Sieve device, the plain
database, both software classifiers, the flat sorted list, and the
row-major in-situ baseline through the unified ``query()`` /
``classify()`` / ``capabilities()`` / ``stats()`` surface, and checks
they agree with each other.  The session fixture keeps the DRAM
protocol sanitizer active throughout, so conformance runs double as a
protocol audit of the device-backed engines.
"""

from __future__ import annotations

import pytest

from repro.api import (
    BackendCapabilities,
    BackendResult,
    BackendStats,
    QueryBackend,
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
            cluster=ClusterConfig(workers=2, partitions=16),
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
        assert len(results) == len(query_set)
        for kmer, result in zip(query_set, results):
            assert isinstance(result, BackendResult)
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

    def test_scalar_flag_is_equivalent(self, backend, query_set):
        batched = backend.query(query_set, batched=True)
        scalar = backend.query(query_set, batched=False)
        assert [(r.query, r.hit, r.payload) for r in batched] == [
            (r.query, r.hit, r.payload) for r in scalar
        ]


@pytest.mark.parametrize(
    "name", [n for n in BACKEND_NAMES if n != "rowmajor"]
)
def test_classify_matches_shared_vote_path(
    name, small_dataset, small_layout, cluster_segments
):
    """Every engine's ``classify`` equals the classic lookup-fn loop.

    (The row-major matcher is excluded: it indexes raw records, not the
    canonicalized view ``db.get`` serves.)
    """
    backend = make_backend(name, small_dataset, small_layout, cluster_segments)
    try:
        db = small_dataset.database
        for read in small_dataset.reads[:5]:
            assert backend.classify(read) == classify_read(
                read, small_dataset.k, db.get
            )
    finally:
        close_backend(backend)


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
            cluster=ClusterConfig(workers=2, partitions=16),
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
