"""Mapping-quality sweep: location recall vs seed length and fault rate.

The read-mapping pipeline (docs/MAPPING.md) exposes Sieve's central
trade-off as an end-to-end metric.  The seed length ``k`` controls the
filter's selectivity in both directions: shorter seeds survive more
sequencing errors per read window (more true locations found) but admit
more spurious candidates; longer seeds are more specific but a single
substitution kills ``k`` consecutive seeds.  DRAM bit flips corrupt the
filter itself — a flipped reference column makes a true seed silently
miss (lost candidate) or a wrong one hit (harmless: extension rejects
it) — so recall degrades with fault rate while *precision is defended
by the extend stage*, the seed-filter division of labour the PIM
read-mapping literature leans on.

Every read is a planted reference window, so recall here is exact
location recovery (right genome, right position), not a proxy.  The
zero-rate rows double as a live transparency check: with
``bit_flip_rate=0`` the injector must not flip a single bit.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Dict, List, Tuple

import numpy as np

from ..faults import FaultInjector, FaultModel, fault_injection, hash_seed
from ..fleet.core import FleetError, run_jobs
from ..genomics import build_dataset
from ..genomics.sequence import DnaSequence
from ..genomics.synthetic import mutate
from ..mapping import MappingConfig, ReadMapper, SeedExtender, SeedIndex
from ..sieve.device import SieveDevice
from .results import FigureResult

#: Seed lengths spanning sensitive-but-noisy to specific-but-brittle.
MAPPING_SEED_KS: Tuple[int, ...] = (8, 11, 14)

#: Bit-flip probabilities per loaded cell; the top rate is past the
#: fault sweep's to make filter-induced recall loss visible at this
#: reference size.
MAPPING_FAULT_RATES: Tuple[float, ...] = (0.0, 1e-3, 5e-3)

#: The sweep's references and planted reads; the extension band is also
#: its edit budget.
MAPPING_SPECIES = 4
MAPPING_GENOME_LENGTH = 400
MAPPING_READS = 24
MAPPING_READ_LENGTH = 60
MAPPING_ERROR_RATE = 0.05
MAPPING_BAND = 3
MAPPING_SEED_TAG = "mapping-sweep"


def _planted_reads(genomes: List[DnaSequence]) -> List[tuple]:
    """``(read_id, read, genome_index, start)`` of every planted read:
    a reference window with i.i.d. substitution errors."""
    rng = np.random.default_rng(hash_seed(MAPPING_SEED_TAG, "reads") % 2**31)
    planted = []
    for i in range(MAPPING_READS):
        genome_index = int(rng.integers(0, len(genomes)))
        genome = genomes[genome_index]
        start = int(
            rng.integers(0, len(genome.bases) - MAPPING_READ_LENGTH + 1)
        )
        window = genome.subsequence(start, start + MAPPING_READ_LENGTH)
        read = mutate(window, MAPPING_ERROR_RATE, rng)
        planted.append((f"mapread_{i}", read, genome_index, start))
    return planted


def mapping_point(seed_k: int, bit_flip_rate: float) -> Dict[str, Any]:
    """One (seed length x bit-flip rate) point of the mapping sweep.

    The references and the planted reads depend only on the sweep tag
    (every point maps the *same* reads against the same references; k
    changes the database image the device loads, not the genomes it is
    built from), and the :class:`~repro.faults.FaultModel` seed depends
    on ``(tag, bit_flip_rate)`` — never on the seed length — so every
    ``seed_k`` at a given rate runs under the identically-seeded fault
    schedule.  Since the true ``(genome, position)`` of every read is
    known, the payload reports *location* recall, not just a mapped
    fraction.
    """
    if seed_k > MAPPING_READ_LENGTH:
        raise FleetError(
            f"read_length={MAPPING_READ_LENGTH} shorter than seed_k={seed_k}"
        )
    dataset = build_dataset(
        k=seed_k,
        num_species=MAPPING_SPECIES,
        genome_length=MAPPING_GENOME_LENGTH,
        num_reads=1,
        seed=hash_seed(MAPPING_SEED_TAG, "dataset") % 2**31,
    )
    genomes = dataset.genomes
    planted = _planted_reads(genomes)
    injector = FaultInjector(
        FaultModel(
            bit_flip_rate=bit_flip_rate,
            seed=hash_seed(MAPPING_SEED_TAG, "rate", bit_flip_rate),
        )
    )
    with fault_injection(injector):
        device = SieveDevice.from_database(dataset.database)
    extender = SeedExtender(
        SeedIndex.from_genomes(genomes, seed_k),
        genomes,
        MappingConfig(band=MAPPING_BAND, max_edits=MAPPING_BAND),
    )
    mapper = ReadMapper(device, extender)
    mapped = correct_location = edit_total = 0
    for read_id, read, genome_index, start in planted:
        result = mapper.map_read(replace(read, seq_id=read_id))
        if not result.mapped:
            continue
        mapped += 1
        edit_total += result.edit_distance
        if result.genome_index == genome_index and result.position == start:
            correct_location += 1
    stats = extender.stats
    return {
        "seed_k": seed_k,
        "bit_flip_rate": bit_flip_rate,
        "reads": MAPPING_READS,
        "mapped": mapped,
        "correct_location": correct_location,
        "recall": correct_location / MAPPING_READS,
        "mean_edit_distance": edit_total / mapped if mapped else 0.0,
        "seed_hits": stats.seed_hits,
        "candidates": stats.candidates,
        "bits_flipped": injector.stats.bits_flipped,
        "schedule_digest": injector.schedule_digest()[:16],
    }


def mapping_sweep() -> FigureResult:
    """Location-recall table over (seed length x bit-flip rate)."""
    jobs = [
        partial(mapping_point, seed_k, rate)
        for rate in MAPPING_FAULT_RATES
        for seed_k in MAPPING_SEED_KS
    ]
    payloads = run_jobs(jobs)
    result = FigureResult(
        figure="Mapping sweep",
        title="Read-mapping location recall vs seed length and fault rate",
        headers=[
            "seed_k",
            "bit_flip_rate",
            "reads",
            "mapped",
            "correct_location",
            "recall",
            "mean_edit_distance",
            "seed_hits",
            "candidates",
            "bits_flipped",
        ],
    )
    for payload in payloads:
        result.rows.append(
            [
                payload["seed_k"],
                payload["bit_flip_rate"],
                payload["reads"],
                payload["mapped"],
                payload["correct_location"],
                payload["recall"],
                payload["mean_edit_distance"],
                payload["seed_hits"],
                payload["candidates"],
                payload["bits_flipped"],
            ]
        )
        if payload["bit_flip_rate"] <= 0.0 and payload["bits_flipped"]:
            raise AssertionError(
                f"zero-rate fault injection flipped "
                f"{payload['bits_flipped']} bits at seed_k="
                f"{payload['seed_k']}"
            )
    result.notes = (
        "Planted-read windows with substitution errors; recall is exact "
        "(genome, position) recovery through the Sieve filter + banded "
        "extension. Every seed_k at a given rate runs the identically-"
        "seeded fault schedule; the 0.0 rows prove injector transparency. "
        "seed_hits falls with both seed length and fault rate (each "
        "substitution or flipped reference column kills up to k seeds) "
        "while recall holds — overlapping seeds are redundant, so the "
        "extend stage recovers every location that keeps one live seed; "
        "recall below 1.0 is the band's edit budget, not the filter."
    )
    return result
