#!/usr/bin/env python
"""Deep dive into the Early Termination Mechanism and Column Finder.

Traces single queries through the bit-accurate machinery with full
visibility: per-row-cycle latch survivor counts, the segmented-OR
pipeline state, the Column Finder's two-level shift, and a side-by-side
comparison with the Ambit-style row-major matcher's operation counts —
the Figure 4 vs Figure 5 contrast, executed.

Run:  python examples/etm_deep_dive.py
"""

import numpy as np

from repro.genomics import decode_kmer
from repro.insitu import RowMajorMatcher
from repro.sieve import SieveSubarraySim, SubarrayLayout

K = 10


def trace_query(sim: SieveSubarraySim, query: int, label: str) -> None:
    """Replay one query row by row, printing the matcher/ETM state."""
    layout = sim.layout
    layer = sim.route_layer(query)
    sim.load_query_batch([query], layer)
    sim.matchers.set_enable(sim._layer_enable(layer))
    sim.matchers.reset()
    sim.etm.reset()
    base = layout.layer_base_row(layer)
    print(f"\n{label}: query {decode_kmer(query, K)} -> layer {layer}")
    print(f"  {'row':>4s} {'survivors':>10s} {'live segments':>14s} "
          f"{'terminated':>10s}")
    for bit in range(layout.kmer_rows):
        bits = sim.array.activate(base + bit)
        qvec = sim._query_vector(bits, 0)
        sim.matchers.compare_per_column(bits, qvec)
        sim.array.precharge()
        sim.etm.step(sim.matchers.latches)
        survivors = int(np.asarray(sim.matchers.latches).sum())
        print(f"  {bit:4d} {survivors:10d} {str(sim.etm.live_segments):>14s} "
              f"{str(sim.etm.terminated):>10s}")
        if sim.etm.terminated:
            print(f"  ETM interrupt after {bit + 1} of {layout.kmer_rows} "
                  f"row activations (plus the one in-flight ACT)")
            break
    else:
        cols = sim.matchers.match_columns()
        if len(cols):
            result = sim.finder.find(np.asarray(sim.matchers.latches))
            slot = layout.column_to_ref_slot(result.column)
            print(f"  HIT at column {result.column} (segment {result.segment}, "
                  f"ref slot {slot})")
            print(f"  column finder: {result.bsr_shift_cycles} BSR shifts + "
                  f"{result.copy_cycles} copy + {result.rs_shift_cycles} RS "
                  f"shifts = {result.total_cycles} cycles "
                  f"({result.critical_path_cycles} on the critical path)")


def main() -> None:
    rng = np.random.default_rng(21)
    kmers = sorted(int(x) for x in rng.choice(4**K, size=40, replace=False))
    records = [(kmer, 700 + i) for i, kmer in enumerate(kmers)]
    layout = SubarrayLayout(
        k=K, row_bits=128, rows_per_subarray=128,
        refs_per_group=28, queries_per_group=4,
    )
    sim = SieveSubarraySim(layout, records)
    print(f"subarray: {layout.num_groups} pattern groups, "
          f"{len(records)} references, {layout.kmer_rows} pattern rows")

    # A hit: the stored k-mer keeps exactly one latch alive to the end.
    trace_query(sim, kmers[17], "HIT case")

    # A miss: ETM interrupts after a handful of rows.
    stored = set(kmers)
    miss = next(int(x) for x in rng.integers(0, 4**K, size=100)
                if int(x) not in stored)
    trace_query(sim, miss, "MISS case")

    # Row-major comparison (Figure 4 vs Figure 5).
    print("\nrow-major (Ambit-style) on the same data:")
    matcher = RowMajorMatcher(K, records, row_bits=128)
    for label, query in (("hit", kmers[17]), ("miss", miss)):
        outcome = matcher.match(query)
        print(f"  {label}: {outcome.rows_compared} row-wide compares, "
              f"{outcome.triple_activations} triple-row activations, "
              f"{outcome.row_clones} row copies, "
              f"{outcome.query_writes} query-replication writes")
    print("\nSieve needs no copies and no multi-row activation — one "
          "single-row ACT per bit, terminated early by the ETM.")


if __name__ == "__main__":
    main()
