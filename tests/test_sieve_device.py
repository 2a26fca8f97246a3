"""Tests for the functional SieveDevice (index + subarrays + batching)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram import DramGeometry
from repro.genomics import KmerDatabase, build_dataset
from repro.sieve import DeviceError, SieveDevice, SubarrayLayout


class TestFromDatabase:
    def test_loads_all_records(self, small_device, small_dataset):
        total = sum(
            len(sim.records) for sim in small_device.subarrays.values()
        )
        assert total == len(small_dataset.database)

    def test_empty_database_rejected(self):
        with pytest.raises(DeviceError):
            SieveDevice.from_database(KmerDatabase(k=5))

    def test_geometry_capacity_enforced(self, small_dataset, small_layout):
        tiny = DramGeometry(
            ranks=1, banks_per_rank=1, subarrays_per_bank=1,
            rows_per_subarray=160, row_bits=64,
        )
        if len(small_dataset.database) > small_layout.refs_per_subarray:
            with pytest.raises(DeviceError):
                SieveDevice.from_database(
                    small_dataset.database, layout=small_layout, geometry=tiny
                )

    def test_utilization(self, small_dataset, small_layout):
        geometry = DramGeometry(
            ranks=1, banks_per_rank=2, subarrays_per_bank=8,
            rows_per_subarray=160, row_bits=64,
        )
        device = SieveDevice.from_database(
            small_dataset.database, layout=small_layout, geometry=geometry
        )
        util = device.utilization()
        assert util == device.loaded_subarrays() / 16


class TestLookup:
    def test_every_database_kmer_resolves(self, small_device, small_dataset):
        for kmer, taxon in small_dataset.database.sorted_records():
            response = small_device.query_scalar([kmer])[0]
            assert response.hit
            assert response.payload == taxon
            assert response.subarray_id is not None

    def test_misses_return_none(self, small_device, small_dataset, rng):
        stored = set(small_dataset.database.sorted_kmers())
        for _ in range(30):
            q = int(rng.integers(0, 4**small_dataset.k))
            if q in stored:
                continue
            response = small_device.query_scalar([q])[0]
            assert not response.hit
            assert response.payload is None

    def test_index_filtered_queries_cost_nothing(self, small_device, small_dataset):
        """A query above every stored k-mer is answered at the host."""
        top = small_dataset.database.sorted_kmers()[-1]
        if top == 4**small_dataset.k - 1:
            pytest.skip("keyspace saturated")
        before = small_device.stats.row_activations
        response = small_device.query_scalar([4**small_dataset.k - 1])[0]
        assert response.subarray_id is None
        assert response.rows_activated == 0
        assert small_device.stats.row_activations == before

    def test_stats_accumulate(self, small_dataset, small_layout):
        device = SieveDevice.from_database(
            small_dataset.database, layout=small_layout
        )
        kmers = small_dataset.database.sorted_kmers()[:5]
        for kmer in kmers:
            device.query_scalar([kmer])
        assert device.stats.queries == 5
        assert device.stats.hits == 5
        assert device.stats.hit_rate == 1.0
        assert device.stats.rows_histogram.sum() == 5
        assert device.stats.row_activations > 0


class TestLookupMany:
    def test_order_preserved(self, small_dataset, small_layout, rng):
        device = SieveDevice.from_database(
            small_dataset.database, layout=small_layout
        )
        stored = small_dataset.database.sorted_kmers()
        queries = [stored[0], int(rng.integers(0, 4**small_dataset.k)), stored[-1]]
        responses = device.query(queries)
        assert [r.query for r in responses] == queries

    def test_matches_single_lookups(self, small_dataset, small_layout):
        device_a = SieveDevice.from_database(
            small_dataset.database, layout=small_layout
        )
        device_b = SieveDevice.from_database(
            small_dataset.database, layout=small_layout
        )
        queries = [k for r in small_dataset.reads[:5] for k in r.kmers(small_dataset.k)]
        batch = device_a.query(queries)
        single = [device_b.query_scalar([q])[0] for q in queries]
        assert [(r.hit, r.payload) for r in batch] == [
            (r.hit, r.payload) for r in single
        ]

    def test_batching_amortizes_writes(self, small_dataset, small_layout):
        """Batched dispatch issues fewer query-write commands than
        one-at-a-time dispatch (the Section IV-A amortization)."""
        device_a = SieveDevice.from_database(
            small_dataset.database, layout=small_layout
        )
        device_b = SieveDevice.from_database(
            small_dataset.database, layout=small_layout
        )
        # Many queries landing in the same subarray and layer.
        queries = small_dataset.database.sorted_kmers()[: small_layout.queries_per_group]
        device_a.query(queries)
        for q in queries:
            device_b.query_scalar([q])
        assert device_a.stats.write_commands < device_b.stats.write_commands
        assert device_a.stats.batches < device_b.stats.batches

    def test_agreement_with_database(self, small_device, small_dataset):
        queries = [
            kmer for read in small_dataset.reads for kmer in read.kmers(small_dataset.k)
        ][:300]
        for response in small_device.query(queries):
            expected = small_dataset.database.get(response.query)
            assert response.hit == (expected is not None)
            assert response.payload == expected

    def test_canonical_database_strand_insensitive(self):
        """A canonical device answers for both strands — the host
        canonicalizes queries before routing, as the classifiers do."""
        from repro.genomics import revcomp_value

        ds = build_dataset(
            k=9, num_species=2, genome_length=120, num_reads=5,
            read_length=40, error_rate=0.0, canonical=True, seed=4,
        )
        layout = SubarrayLayout(
            k=9, row_bits=64, rows_per_subarray=160,
            refs_per_group=12, queries_per_group=4, layers=2,
        )
        device = SieveDevice.from_database(ds.database, layout=layout)
        assert device.canonical
        for kmer in list(ds.reads[0].kmers(9))[:10]:
            forward = device.query_scalar([kmer])[0]
            reverse = device.query_scalar([revcomp_value(kmer, 9)])[0]
            assert forward.hit and reverse.hit
            assert forward.payload == reverse.payload == ds.database.get(kmer)

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 2**16))
    def test_device_equals_database_property(self, seed):
        ds = build_dataset(
            k=7, num_species=2, genome_length=80, num_reads=6,
            read_length=30, novel_fraction=0.5, seed=seed,
        )
        layout = SubarrayLayout(
            k=7, row_bits=64, rows_per_subarray=160,
            refs_per_group=12, queries_per_group=4, layers=2,
        )
        device = SieveDevice.from_database(ds.database, layout=layout)
        queries = [k for r in ds.reads for k in r.kmers(7)]
        for response in device.query(queries):
            assert response.payload == ds.database.get(response.query)
