#!/usr/bin/env python
"""Metagenomic read classification: the paper's motivating workload.

Implements the full Figure 2/3 pipeline on synthetic data:

* build a taxonomy and reference genomes, index their k-mers,
* simulate a metagenomic sample (reads from known organisms + novel
  organisms + sequencing errors),
* classify every read with three interchangeable engines — a CLARK-style
  hash table, a Kraken-style signature index, and the bit-accurate Sieve
  device — and verify they agree,
* report accuracy against ground truth and the cache behaviour that
  makes the software engines memory-bound (paper Section II).

Run:  python examples/metagenomic_classification.py
"""

from repro import build_dataset
from repro.baselines import (
    CacheHierarchy,
    ClarkClassifier,
    KrakenClassifier,
    classify_reads,
    summarize,
)
from repro.sieve import SieveDevice, SubarrayLayout

K = 13


def cache_characterization(clark: ClarkClassifier, queries) -> None:
    """Replay hash-table lookups through the cache hierarchy
    (the Section II 'memory is the bottleneck' measurement)."""
    hierarchy = CacheHierarchy(llc_bytes=2 * 2**20)  # scaled-down LLC
    lookups = 0
    dram = 0
    for kmer in queries:
        trace = clark.table.traced_lookup(kmer)
        lookups += 1
        for address in trace.addresses:
            if hierarchy.access(address) == "DRAM":
                dram += 1
    print(f"  hash-table lookups: {lookups}, DRAM accesses: {dram} "
          f"({dram / lookups:.2f} per lookup)")
    print(f"  mean chain length: {clark.table.mean_chain_length():.2f}, "
          f"table size: {clark.table.memory_bytes() / 1024:.0f} KiB")


def main() -> None:
    dataset = build_dataset(
        k=K,
        num_species=6,
        genome_length=700,
        num_reads=40,
        read_length=70,
        error_rate=0.005,
        novel_fraction=0.25,
        seed=11,
    )
    db = dataset.database
    print(f"sample: {len(dataset.reads)} reads; reference: {len(db)} "
          f"{K}-mers across {db.size_stats().num_taxa} taxa")

    # Three engines, one classification loop.
    clark = ClarkClassifier(db)
    kraken = KrakenClassifier(db, m=6)
    layout = SubarrayLayout(k=K, row_bits=1152, rows_per_subarray=256, layers=3)
    device = SieveDevice.from_database(db, layout=layout)

    # Sieve requests are batched per destination subarray, exactly as the
    # PCIe protocol ships them (Section IV-E); answers are cached per
    # unique k-mer and served to the classification loop from the cache.
    unique_kmers = sorted({
        kmer for read in dataset.reads for kmer in read.kmers(K)
    })
    sieve_answers = {
        resp.query: resp.payload for resp in device.query(unique_kmers)
    }
    engines = {
        "CLARK (hash table)": clark.get,
        "Kraken (signature index)": kraken.get,
        "Sieve (in-DRAM)": sieve_answers.get,
    }

    summaries = {}
    assignments = {}
    for name, lookup in engines.items():
        results = classify_reads(dataset.reads, K, lookup)
        summaries[name] = summarize(results)
        assignments[name] = [r.taxon for r in results]

    reference = assignments["CLARK (hash table)"]
    print("\nclassification results:")
    for name, summary in summaries.items():
        agree = assignments[name] == reference
        print(f"  {name:26s} classified {summary.classification_rate:6.1%}  "
              f"accuracy {summary.accuracy:6.1%}  "
              f"k-mer hit rate {summary.kmer_hit_rate:6.1%}  "
              f"{'(agrees with CLARK)' if agree else '(DIVERGED!)'}")
    if len({tuple(a) for a in assignments.values()}) != 1:
        raise SystemExit("engines diverged — this is a bug")

    print("\ncache behaviour of the software baseline (Section II):")
    queries = [k for r in dataset.reads for k in r.kmers(K)]
    cache_characterization(clark, queries)

    print("\nSieve device functional counters:")
    stats = device.stats
    histogram = stats.rows_histogram
    dispatched = int(histogram[1:].sum())
    dispatched_rows = sum(r * n for r, n in enumerate(histogram.tolist()))
    print(f"  {stats.queries} requests, {stats.hits} hits "
          f"({stats.hit_rate:.1%}), {stats.index_filtered} filtered by the "
          f"host index")
    print(f"  mean row activations per dispatched query: "
          f"{dispatched_rows / dispatched:.1f} of {2 * K} "
          f"(ETM early termination)")
    print(f"  query-batch write commands: {stats.write_commands}")


if __name__ == "__main__":
    main()
