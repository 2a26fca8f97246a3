"""Tests for database/workload persistence and the vectorized transpose."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.genomics import KmerDatabase, MmapKmerDatabase, encode_kmer, transpose_kmers
from repro.serialization import (
    MANIFEST_NAME,
    SEGMENT_FORMAT,
    SerializationError,
    database_content_hash,
    load_segments,
    load_workload,
    read_segment_manifest,
    save_segments,
    save_workload,
)
from repro.sieve import EspModel, WorkloadStats


class TestDatabaseRoundtrip:
    """A database survives save -> load -> save -> load unchanged."""

    def test_roundtrip(self, tmp_path, tiny_database):
        first = save_segments(tiny_database, tmp_path / "a")
        assert first["num_records"] == len(tiny_database)
        loaded = load_segments(tmp_path / "a")
        # A mapped database saves again to the same content.
        second = save_segments(loaded, tmp_path / "b")
        assert second["content_hash"] == first["content_hash"]
        reloaded = load_segments(tmp_path / "b", verify=True)
        assert reloaded.k == tiny_database.k
        assert reloaded.canonical == tiny_database.canonical
        assert reloaded.sorted_records() == tiny_database.sorted_records()

    def test_empty_rejected(self, tmp_path):
        target = tmp_path / "empty"
        with pytest.raises(SerializationError):
            save_segments(KmerDatabase(k=5), target)
        # The refusal leaves nothing behind that could be opened.
        assert not target.exists()
        with pytest.raises(SerializationError):
            load_segments(target)


class TestWorkloadRoundtrip:
    def test_roundtrip(self, tmp_path):
        wl = WorkloadStats(
            name="C.ST.BG", k=31, num_kmers=7 * 10**9, hit_rate=0.01,
            esp=EspModel.paper_fig6(31), index_filtered_fraction=0.02,
        )
        path = tmp_path / "wl.json"
        save_workload(wl, path)
        loaded = load_workload(path)
        assert loaded == wl

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "nope"}))
        with pytest.raises(SerializationError):
            load_workload(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError):
            load_workload(path)

    def test_loaded_workload_drives_model(self, tmp_path):
        from repro.sieve import Type3Model

        wl = WorkloadStats(
            name="x", k=31, num_kmers=10**6, hit_rate=0.05,
            esp=EspModel.paper_fig6(31),
        )
        path = tmp_path / "wl.json"
        save_workload(wl, path)
        a = Type3Model(concurrent_subarrays=8).run(wl)
        b = Type3Model(concurrent_subarrays=8).run(load_workload(path))
        assert a.time_s == pytest.approx(b.time_s)


class TestSegmentDirectory:
    def test_round_trip(self, tmp_path, tiny_database):
        manifest = save_segments(tiny_database, tmp_path / "seg")
        assert manifest["format"] == SEGMENT_FORMAT
        db = load_segments(tmp_path / "seg", verify=True)
        assert isinstance(db, MmapKmerDatabase)
        assert db.k == tiny_database.k
        assert db.canonical == tiny_database.canonical
        assert db.sorted_records() == tiny_database.sorted_records()
        assert len(db) == len(tiny_database)

    def test_round_trip_canonical(self, tmp_path):
        db = KmerDatabase(k=5, canonical=True)
        db.add(encode_kmer("AACTG"), 7)
        save_segments(db, tmp_path / "seg")
        loaded = load_segments(tmp_path / "seg")
        assert loaded.canonical
        # CAGTT is the reverse complement of AACTG: same record.
        assert loaded.get(encode_kmer("CAGTT")) == 7

    @given(st.sets(st.integers(0, 4**8 - 1), min_size=1, max_size=80))
    def test_round_trip_property(self, kmers):
        import tempfile

        db = KmerDatabase(k=8)
        for i, kmer in enumerate(sorted(kmers)):
            db.add(kmer, 10 + i)
        with tempfile.TemporaryDirectory() as tmp:
            save_segments(db, tmp)
            assert load_segments(tmp).sorted_records() == db.sorted_records()

    def test_open_mmap_entrypoint(self, tmp_path, tiny_database):
        save_segments(tiny_database, tmp_path / "seg")
        db = KmerDatabase.open_mmap(tmp_path / "seg")
        present = dict(tiny_database.sorted_records())
        for kmer, taxon in present.items():
            assert kmer in db
            assert db.get(kmer) == taxon
        absent = next(
            kmer for kmer in range(4**db.k) if kmer not in present
        )
        assert absent not in db
        assert db.get(absent) is None

    def test_content_hash_matches_in_memory(self, tmp_path, tiny_database):
        manifest = save_segments(tiny_database, tmp_path / "seg")
        db = load_segments(tmp_path / "seg")
        assert db.content_hash == manifest["content_hash"]
        assert database_content_hash(tiny_database) == db.content_hash
        assert database_content_hash(db) == db.content_hash

    @staticmethod
    def _degradable_db():
        # Local (not the session fixture): these tests mark it degraded.
        db = KmerDatabase(k=5)
        db.add(encode_kmer("AACTG"), 7)
        db.add(encode_kmer("GATTA"), 13)
        return db

    def test_degraded_flag_round_trips(self, tmp_path):
        """Operational provenance: a faulted reference persists (and
        reopens) flagged degraded, so cluster workers inherit it."""
        db = self._degradable_db()
        db.mark_degraded()
        manifest = save_segments(db, tmp_path / "seg")
        assert manifest["degraded"] is True
        assert load_segments(tmp_path / "seg").capabilities().degraded is True

    def test_clean_database_saves_undegraded(self, tmp_path, tiny_database):
        manifest = save_segments(tiny_database, tmp_path / "seg")
        assert manifest["degraded"] is False
        assert load_segments(tmp_path / "seg").capabilities().degraded is False

    def test_degraded_flag_does_not_change_content_hash(self, tmp_path):
        """Degradation is provenance, not content: clean and degraded
        images of identical records still dedup by content hash."""
        clean = save_segments(self._degradable_db(), tmp_path / "clean")
        db = self._degradable_db()
        db.mark_degraded()
        degraded = save_segments(db, tmp_path / "degraded")
        assert clean["content_hash"] == degraded["content_hash"]

    def test_content_hash_tracks_content(self, tmp_path, tiny_database):
        first = save_segments(tiny_database, tmp_path / "a")
        other = KmerDatabase(k=tiny_database.k)
        for kmer, taxon in tiny_database.sorted_records():
            other.add(kmer, taxon + 1)
        second = save_segments(other, tmp_path / "b")
        assert first["content_hash"] != second["content_hash"]
        # Same content at a different path hashes identically.
        third = save_segments(tiny_database, tmp_path / "c")
        assert third["content_hash"] == first["content_hash"]

    def test_read_only(self, tmp_path, tiny_database):
        from repro.genomics.database import DatabaseError

        save_segments(tiny_database, tmp_path / "seg")
        db = load_segments(tmp_path / "seg")
        with pytest.raises(DatabaseError):
            db.add(0, 1)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(SerializationError):
            save_segments(KmerDatabase(k=5), tmp_path / "seg")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SerializationError):
            read_segment_manifest(tmp_path)

    def test_wrong_format(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"format": "nope"}))
        with pytest.raises(SerializationError):
            read_segment_manifest(tmp_path)

    def test_wrong_format_rejected(self, tmp_path, tiny_database):
        """A complete segment directory whose manifest names another
        format is refused, not mapped."""
        save_segments(tiny_database, tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["format"] = "sieve-repro-kmerdb-v1"
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SerializationError, match="not a"):
            load_segments(tmp_path)

    def test_missing_segment_entry(self, tmp_path, tiny_database):
        save_segments(tiny_database, tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        del manifest["segments"]["taxa"]
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SerializationError):
            read_segment_manifest(tmp_path)

    def test_missing_segment_file(self, tmp_path, tiny_database):
        save_segments(tiny_database, tmp_path)
        (tmp_path / "taxa.npy").unlink()
        with pytest.raises(SerializationError):
            load_segments(tmp_path)

    def test_corrupt_segment_detected_by_verify(self, tmp_path, tiny_database):
        save_segments(tiny_database, tmp_path)
        kmers = np.load(tmp_path / "kmers.npy")
        kmers[0] ^= 1
        np.save(tmp_path / "kmers.npy", kmers)
        # Lazy open stays permissive (hash untouched)...
        load_segments(tmp_path)
        # ...verify re-hashes the mapped pages and catches the flip.
        with pytest.raises(SerializationError):
            load_segments(tmp_path, verify=True)

    def test_shape_mismatch_detected(self, tmp_path, tiny_database):
        save_segments(tiny_database, tmp_path)
        np.save(
            tmp_path / "taxa.npy",
            np.zeros(len(tiny_database) + 1, dtype=np.uint32),
        )
        with pytest.raises(SerializationError):
            load_segments(tmp_path)

    def test_truncated_segment_raises_typed_error(self, tmp_path, tiny_database):
        """A segment cut short no longer maps: numpy's untyped
        ``ValueError`` becomes a ``SerializationError`` naming the file."""
        save_segments(tiny_database, tmp_path)
        path = tmp_path / "kmers.npy"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(SerializationError, match="kmers.npy"):
            load_segments(tmp_path)

    def test_garbled_npy_header_raises_typed_error(self, tmp_path, tiny_database):
        """Zeroed magic bytes make numpy take the file for a pickle; the
        open fails typed, naming the file, and never unpickles."""
        save_segments(tiny_database, tmp_path)
        path = tmp_path / "taxa.npy"
        data = path.read_bytes()
        path.write_bytes(bytes(16) + data[16:])
        with pytest.raises(SerializationError, match="taxa.npy"):
            load_segments(tmp_path)

    @pytest.mark.parametrize(
        "garble",
        [
            lambda manifest: bytes(range(256)),
            lambda manifest: [manifest],
            lambda manifest: {**manifest, "segments": {"kmers": 5, "taxa": 6}},
            lambda manifest: {k: v for k, v in manifest.items() if k != "num_records"},
            lambda manifest: {**manifest, "num_records": "many"},
        ],
        ids=["undecodable", "not-an-object", "entry-not-a-record", "missing-key", "wrong-type"],
    )
    def test_garbled_manifest_raises_typed_error(self, tmp_path, tiny_database, garble):
        """Undecodable bytes, or JSON that is not a manifest, fail typed."""
        damaged = garble(save_segments(tiny_database, tmp_path))
        if not isinstance(damaged, bytes):
            damaged = json.dumps(damaged).encode()
        (tmp_path / MANIFEST_NAME).write_bytes(damaged)
        with pytest.raises(SerializationError, match=MANIFEST_NAME):
            load_segments(tmp_path)

    def test_mmap_device_matches_in_memory(self, tmp_path, small_dataset):
        """A SieveDevice built from the mmap view answers identically
        to one built from the in-memory database."""
        from repro.sieve import SieveDevice

        save_segments(small_dataset.database, tmp_path / "seg")
        mapped = KmerDatabase.open_mmap(tmp_path / "seg")
        queries = sorted(
            {
                kmer
                for read in small_dataset.reads
                for kmer in read.kmers(small_dataset.k)
            }
        )
        a = SieveDevice.from_database(small_dataset.database)
        b = SieveDevice.from_database(mapped)
        assert a.query(queries) == b.query(queries)
        assert a.stats == b.stats


class TestVectorizedTranspose:
    def test_empty(self):
        assert transpose_kmers([], 6).shape == (12, 0)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(4)
        values = [int(x) for x in rng.integers(0, 4**31, size=50)]
        fast = transpose_kmers(values, 31)
        for col, value in enumerate(values):
            bits = [(value >> (61 - i)) & 1 for i in range(62)]
            np.testing.assert_array_equal(fast[:, col], bits)

    def test_k32_boundary(self):
        """k = 32 packs to exactly 64 bits — the uint64 edge."""
        top = 4**32 - 1
        matrix = transpose_kmers([top, 0], 32)
        assert matrix.shape == (64, 2)
        assert matrix[:, 0].all()
        assert not matrix[:, 1].any()

    def test_out_of_range_still_rejected(self):
        from repro.genomics.encoding import EncodingError

        with pytest.raises(EncodingError):
            transpose_kmers([4**6], 6)
        with pytest.raises(EncodingError):
            transpose_kmers([-1], 6)
