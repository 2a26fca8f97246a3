"""Cross-design functional equivalence: the paper's three accelerator
types implement the *same function* — exact k-mer matching with payload
retrieval — differing only in where the matching logic sits and how
data moves.  These property tests drive random databases and query
streams through all three bit-accurate simulators and a dictionary
reference, and require identical answers everywhere.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.genomics import KmerDatabase, encode_kmer
from repro.sieve import (
    SieveDevice,
    SieveSubarraySim,
    SubarrayLayout,
    Type1BankSim,
    Type1Layout,
    Type2GroupSim,
)

K = 7
LAYOUT23 = SubarrayLayout(
    k=K, row_bits=64, rows_per_subarray=200,
    refs_per_group=12, queries_per_group=4, layers=2,
)
LAYOUT1 = Type1Layout(k=K, row_bits=64, rows=128)


def build_all(records):
    """All three functional engines over the same (sorted) records."""
    per_member = LAYOUT23.refs_per_subarray
    members = [
        records[i : i + per_member] for i in range(0, len(records), per_member)
    ]
    t3 = [SieveSubarraySim(LAYOUT23, chunk) for chunk in members]
    t2 = Type2GroupSim(LAYOUT23, members)
    t1 = Type1BankSim(LAYOUT1, records[: LAYOUT1.refs_per_row])
    return t1, t2, t3, members


RECORDS = st.sets(st.integers(0, 4**K - 1), min_size=1, max_size=60).map(
    lambda kmers: [(k, 2000 + i) for i, k in enumerate(sorted(kmers))]
)


class TestCrossDesignEquivalence:
    @settings(deadline=None, max_examples=12)
    @given(RECORDS, st.lists(st.integers(0, 4**K - 1), min_size=1, max_size=6))
    def test_all_types_agree_with_dict(self, records, queries):
        table = dict(records)
        t1, t2, t3, members = build_all(records)
        for q in queries:
            expected = table.get(q)
            # Type-1 (covers all records: <= 64 fit one row).
            out1 = t1.match(q)
            assert out1.hit == (expected is not None)
            assert out1.payload == expected
            # Type-2 (compute buffer + relay).
            out2 = t2.match_query(q)
            assert out2.base.hit == (expected is not None)
            assert out2.base.payload == expected
            # Type-3 (local row-buffer matchers) on the routed member.
            member = t2.route_member(q)
            out3 = t3[member].match_query(q)
            assert out3.hit == (expected is not None)
            assert out3.payload == expected
            # Types 2 and 3 share the matching engine: identical
            # activation counts; Type-1's row count also matches since
            # its ETM sees the same candidates when one member holds all
            # records.
            assert out2.base.rows_activated == out3.rows_activated

    @settings(deadline=None, max_examples=8)
    @given(RECORDS)
    def test_every_stored_kmer_retrievable_everywhere(self, records):
        t1, t2, t3, members = build_all(records)
        probe = records[:: max(1, len(records) // 5)]
        for kmer, payload in probe:
            assert t1.match(kmer).payload == payload
            assert t2.match_query(kmer).base.payload == payload
            member = t2.route_member(kmer)
            assert t3[member].match_query(kmer).payload == payload


class TestEdgeCases:
    def test_single_record_database(self):
        records = [(encode_kmer("GATTACA"), 5)]
        t1, t2, t3, _ = build_all(records)
        assert t1.match(records[0][0]).payload == 5
        assert t2.match_query(records[0][0]).base.payload == 5
        assert not t1.match(0).hit

    def test_extreme_kmers(self):
        lo = 0  # AAAAAAA
        hi = 4**K - 1  # TTTTTTT
        records = [(lo, 1), (hi, 2)]
        t1, t2, t3, _ = build_all(records)
        for engine_result in (
            t1.match(lo).payload,
            t2.match_query(lo).base.payload,
        ):
            assert engine_result == 1
        assert t1.match(hi).payload == 2
        assert t2.match_query(hi).base.payload == 2

    def test_k32_device_end_to_end(self):
        """k = 32 packs to exactly 64 bits — the packing boundary."""
        k = 32
        rng = np.random.default_rng(6)
        db = KmerDatabase(k=k)
        kmers = sorted(int(x) for x in rng.integers(0, 4**k, size=40,
                                                    dtype=np.uint64))
        kmers = sorted(set(kmers))
        for i, kmer in enumerate(kmers):
            db.add(kmer, 100 + i)
        layout = SubarrayLayout(
            k=k, row_bits=128, rows_per_subarray=256,
            refs_per_group=28, queries_per_group=4,
        )
        device = SieveDevice.from_database(db, layout=layout)
        for kmer in kmers[:10]:
            scalar = device.query_scalar([kmer])[0]
            assert scalar.payload == db.get(kmer)

    def test_adjacent_kmers_distinguished(self):
        """References differing only in the last bit take every row."""
        a = encode_kmer("AAAAAAA")
        b = a + 1  # AAAAAAC
        records = [(a, 1), (b, 2)]
        _, t2, t3, _ = build_all(records)
        out = t3[0].match_query(a)
        assert out.payload == 1
        assert out.rows_activated == 2 * K + 2  # full scan + payload

    def test_near_miss_terminates_late(self):
        """A query differing from its neighbour only in the final base
        forces ETM to scan almost everything — the adversarial tail of
        Figure 6."""
        a = encode_kmer("ACGTACG")
        records = [(a, 1)]
        _, _, t3, _ = build_all(records)
        near = a ^ 0b1  # differs in the very last bit
        out = t3[0].match_query(near)
        assert not out.hit
        assert out.rows_activated >= 2 * K - 1
