"""Sieve: scalable in-situ DRAM-based accelerator designs for massively
parallel k-mer matching — a full Python reproduction of the ISCA 2021
paper (Wu, Sharifi, Lenjani, Skadron, Venkat).

Package map
-----------
``repro.genomics``
    Encoding, sequences, FASTA/FASTQ, taxonomy, k-mer databases, and
    synthetic workload generation.
``repro.dram``
    DRAM timing/geometry/energy substrates, behavioral arrays, and
    command-ledger accounting.
``repro.hardware``
    Component cost models (paper Table III), technology scaling, area
    overheads, circuit feasibility checks.
``repro.sieve``
    The paper's contribution: column-wise layout, matchers, ETM, Column
    Finder, subarray index, the bit-accurate functional device, and the
    trace-driven performance models of Types 1-3.
``repro.baselines``
    Cache/CPU/GPU models plus from-scratch CLARK- and Kraken-style
    classifiers.
``repro.insitu``
    Ambit-style bulk-bitwise functional array and the row-major /
    ComputeDRAM analytic baselines.
``repro.interconnect``
    PCIe packet/queue model and DIMM envelope.
``repro.analysis`` / ``repro.experiments``
    Workload characterization and the per-figure benchmark harness.

Quick start
-----------
>>> from repro import build_dataset, SieveDevice
>>> ds = build_dataset(k=15, num_species=4, genome_length=400,
...                    num_reads=20, read_length=60, seed=1)
>>> device = SieveDevice.from_database(ds.database)
>>> kmer = next(ds.reads[0].kmers(ds.k))
>>> device.query([kmer])[0].payload == ds.database.get(kmer)
True

Every engine (device, software baselines, plain database) answers
through the same :class:`repro.api.QueryBackend` protocol —
``query()``/``classify()``/``capabilities()``/``stats()`` — and
``repro.service`` serves that protocol behind an asyncio micro-batching
dispatcher (``python -m repro.service --demo``).
"""

from .api import (
    BackendCapabilities,
    BackendResult,
    BackendStats,
    QueryBackend,
)
from .baselines import (
    ClarkClassifier,
    CpuBaselineModel,
    GpuBaselineModel,
    KrakenClassifier,
    classify_reads,
    summarize,
)
from .dram import SIEVE_32GB, DramGeometry, DramTiming, SIEVE_TIMING
from .genomics import (
    DnaSequence,
    KmerDatabase,
    Taxonomy,
    build_dataset,
    encode_kmer,
    decode_kmer,
)
from .pipeline import HostStageModel, PipelineReport, analyze_pipeline
from .serialization import load_workload, save_workload
from .sieve import (
    EspModel,
    SieveDevice,
    SieveModelConfig,
    SubarrayLayout,
    Type1Model,
    Type2Model,
    Type3Model,
    WorkloadStats,
)

__version__ = "1.0.0"

__all__ = [
    "BackendCapabilities",
    "BackendResult",
    "BackendStats",
    "QueryBackend",
    "ClarkClassifier",
    "CpuBaselineModel",
    "GpuBaselineModel",
    "KrakenClassifier",
    "classify_reads",
    "summarize",
    "SIEVE_32GB",
    "SIEVE_TIMING",
    "DramGeometry",
    "DramTiming",
    "DnaSequence",
    "KmerDatabase",
    "Taxonomy",
    "build_dataset",
    "encode_kmer",
    "decode_kmer",
    "HostStageModel",
    "PipelineReport",
    "analyze_pipeline",
    "load_workload",
    "save_workload",
    "EspModel",
    "SieveDevice",
    "SieveModelConfig",
    "SubarrayLayout",
    "Type1Model",
    "Type2Model",
    "Type3Model",
    "WorkloadStats",
    "__version__",
]
