"""End-to-end integration tests: the full pipeline from synthetic data
through classification, on every matching engine, plus the
functional-to-analytic model bridge."""

import pytest

from repro.baselines import (
    ClarkClassifier,
    CpuBaselineModel,
    KrakenClassifier,
    classify_reads,
    summarize,
)
from repro.genomics import build_dataset
from repro.sieve import (
    SieveDevice,
    SubarrayLayout,
    Type3Model,
    WorkloadStats,
)


@pytest.fixture(scope="module")
def pipeline_dataset():
    return build_dataset(
        k=9,
        num_species=4,
        genome_length=250,
        num_reads=25,
        read_length=60,
        error_rate=0.01,
        novel_fraction=0.2,
        seed=99,
    )


@pytest.fixture(scope="module")
def pipeline_device(pipeline_dataset):
    layout = SubarrayLayout(
        k=9, row_bits=64, rows_per_subarray=160,
        refs_per_group=12, queries_per_group=4, layers=2,
    )
    return SieveDevice.from_database(pipeline_dataset.database, layout=layout)


class TestClassifierEquivalence:
    """All four engines — dict database, CLARK hash table, Kraken
    signature index, and the bit-accurate Sieve device — classify every
    read identically (Figure 2's loop is engine-agnostic)."""

    def test_all_engines_agree(self, pipeline_dataset, pipeline_device):
        ds = pipeline_dataset
        engines = {
            "dict": ds.database.get,
            "clark": ClarkClassifier(ds.database).get,
            "kraken": KrakenClassifier(ds.database, m=4).get,
            "sieve": lambda kmer: pipeline_device.query_scalar([kmer])[0].payload,
        }
        baseline = classify_reads(ds.reads, ds.k, engines["dict"])
        for name, lookup in engines.items():
            results = classify_reads(ds.reads, ds.k, lookup)
            assert [(r.taxon, r.kmers_hit) for r in results] == [
                (r.taxon, r.kmers_hit) for r in baseline
            ], f"engine {name} diverged"

    def test_classification_quality(self, pipeline_dataset, pipeline_device):
        ds = pipeline_dataset
        results = classify_reads(
            ds.reads, ds.k,
            lambda kmer: pipeline_device.query_scalar([kmer])[0].payload,
        )
        summary = summarize(results)
        # Reads sourced from reference genomes should mostly classify
        # correctly even with 1 % errors; novel reads mostly don't.
        assert summary.accuracy is not None
        assert summary.accuracy > 0.8
        assert summary.classification_rate > 0.5


class TestFunctionalToAnalyticBridge:
    """Measure a workload on the functional device, summarize it, and
    run the analytic model on the measured statistics — the paper's
    trace-driven methodology end to end."""

    def test_measured_workload_drives_model(self, pipeline_dataset, pipeline_device):
        ds = pipeline_dataset
        queries = [k for r in ds.reads for k in r.kmers(ds.k)]
        pipeline_device.query(queries)
        workload = WorkloadStats.from_functional("measured", ds.k, pipeline_device.stats)
        model = Type3Model(concurrent_subarrays=8)
        result = model.run(workload)
        cpu = CpuBaselineModel().run(workload)
        assert result.time_s > 0
        assert cpu.time_s > result.time_s  # Sieve wins even on measured stats

    def test_measured_hit_rate_consistent(self, pipeline_dataset, pipeline_device):
        ds = pipeline_dataset
        device_rate = pipeline_device.stats.hit_rate
        db_rate = sum(
            1
            for r in ds.reads
            for kmer in r.kmers(ds.k)
            if ds.database.get(kmer) is not None
        ) / sum(r.kmer_count(ds.k) for r in ds.reads)
        assert device_rate == pytest.approx(db_rate, abs=1e-9)


class TestCanonicalPipeline:
    """Canonical (strand-insensitive) databases work through the whole
    stack: a read and its reverse complement classify identically."""

    def test_reverse_complement_reads_agree(self):
        ds = build_dataset(
            k=9, num_species=3, genome_length=200, num_reads=10,
            read_length=50, error_rate=0.0, novel_fraction=0.0,
            canonical=True, seed=31,
        )
        clark = ClarkClassifier(ds.database)
        forward = classify_reads(ds.reads, ds.k, clark.get)
        reverse = classify_reads(
            [r.reverse_complement() for r in ds.reads], ds.k, clark.get
        )
        for f, r in zip(forward, reverse):
            assert f.taxon == r.taxon
            assert f.kmers_hit == r.kmers_hit
