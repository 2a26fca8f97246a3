"""Genomics substrate: encoding, sequences, I/O, taxonomy, databases,
and synthetic workload generation.

This package is a from-scratch implementation of everything the Sieve
evaluation needs from the bioinformatics side: the NCBI 2-bit base
encoding and k-mer packing, FASTA/FASTQ I/O, a taxonomy tree with LCA,
the reference k-mer database the classifiers and the accelerator load,
and generators for synthetic genomes/read sets standing in for the
paper's MiniKraken / HiSeq / MiSeq / simBA-5 data (see DESIGN.md for the
substitution argument).
"""

from .counting import (
    CountMinSketch,
    CountingError,
    ExactKmerCounter,
    count_reads,
)
from .database import (
    KMER_RECORD_BYTES,
    DatabaseStats,
    KmerDatabase,
    MmapKmerDatabase,
)
from .encoding import (
    BASES,
    BITS_PER_BASE,
    MAX_PACKED_K,
    EncodingError,
    cache_key_kmer,
    canonical_kmer,
    canonical_kmers,
    decode_kmer,
    encode_kmer,
    first_diff_base,
    first_diff_bit,
    iter_kmers,
    kmer_bits,
    pack_kmers,
    reverse_complement,
    revcomp_value,
    revcomp_values,
    transpose_kmers,
)
from .fasta import read_fasta, read_fastq, write_fasta, write_fastq
from .sequence import DnaSequence
from .synthetic import (
    TABLE_II_PROFILES,
    ReadProfile,
    SyntheticDataset,
    build_dataset,
    mutate,
    phylogenetic_genomes,
    random_genome,
    simulate_reads,
)
from .taxonomy import ROOT_TAXON, Taxonomy, TaxonomyError, balanced_taxonomy

__all__ = [
    "BASES",
    "BITS_PER_BASE",
    "EncodingError",
    "CountMinSketch",
    "CountingError",
    "ExactKmerCounter",
    "count_reads",
    "KMER_RECORD_BYTES",
    "DatabaseStats",
    "KmerDatabase",
    "MmapKmerDatabase",
    "DnaSequence",
    "ROOT_TAXON",
    "Taxonomy",
    "TaxonomyError",
    "balanced_taxonomy",
    "MAX_PACKED_K",
    "cache_key_kmer",
    "canonical_kmer",
    "canonical_kmers",
    "decode_kmer",
    "encode_kmer",
    "first_diff_base",
    "first_diff_bit",
    "iter_kmers",
    "kmer_bits",
    "pack_kmers",
    "reverse_complement",
    "revcomp_value",
    "revcomp_values",
    "transpose_kmers",
    "read_fasta",
    "read_fastq",
    "write_fasta",
    "write_fastq",
    "TABLE_II_PROFILES",
    "ReadProfile",
    "SyntheticDataset",
    "build_dataset",
    "mutate",
    "phylogenetic_genomes",
    "random_genome",
    "simulate_reads",
]
