"""Fault-injection sweep: answer accuracy vs. DRAM bit-flip rate.

The paper's designs share one failure surface — the reference image
lives in DRAM cells — but degrade differently when those cells flip:

* the **host database** loses whole records (a flipped key bit moves
  the record to the wrong sort position; a flipped payload bit answers
  with the wrong taxon);
* **Sieve** (Type-2/3 subarray) and **Type-1** lose the flipped bit's
  *column*: a reference with a flipped Region-1 bit silently stops
  matching its own k-mer (false miss) and may start matching a
  neighbouring one (false hit), while Region-2/3 flips corrupt the
  offset/payload fetch of an otherwise-correct match;
* the **row-major** baseline keeps payloads host-side, so only its
  match bits are exposed.

Every design at a given rate runs under the identically-seeded
:class:`~repro.faults.FaultModel` (the seed depends on the sweep tag
and the rate, never the design), so the table is an apples-to-apples
sensitivity comparison.  The zero-rate row doubles as a live no-op
check: with ``bit_flip_rate=0`` the injector must not change a single
answer, so accuracy is exactly 1.0.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Tuple

from ..faults import (
    FaultInjector,
    FaultModel,
    fault_injection,
    faulted_database,
    hash_seed,
)
from ..fleet.core import FleetError, run_jobs
from ..genomics import build_dataset
from ..insitu.rowmajor import RowMajorMatcher
from ..sieve.device import SieveDevice
from ..sieve.type1 import Type1BankSim, Type1Layout
from .results import FigureResult

#: Functional designs the sweep compares.
FAULT_DESIGNS = ("database", "sieve", "type1", "rowmajor")

#: Bit-flip probabilities per loaded cell, spanning "weak cells exist"
#: to "device is badly out of spec".
FAULT_RATES: Tuple[float, ...] = (0.0, 1e-5, 1e-4, 1e-3)

#: The sweep's shared synthetic dataset and query stream.
FAULT_K = 10
FAULT_SPECIES = 4
FAULT_GENOME_LENGTH = 400
FAULT_READS = 16
FAULT_KMERS_PER_READ = 30
FAULT_SEED_TAG = "fault-sweep"


def _faulted_backend(design: str, database: Any, injector: FaultInjector) -> Any:
    """``design``'s backend over ``database``, loaded under ``injector``."""
    if design == "database":
        if not injector.model.active:
            return database
        return faulted_database(database, injector)
    with fault_injection(injector):
        if design == "sieve":
            return SieveDevice.from_database(database)
        if design == "type1":
            return Type1BankSim(
                Type1Layout(k=FAULT_K), database.sorted_records()
            )
        return RowMajorMatcher(FAULT_K, database.sorted_records())


def fault_point(design: str, bit_flip_rate: float) -> Dict[str, Any]:
    """One (design x bit-flip rate) point of the fault-injection sweep.

    Every point builds the same synthetic dataset (its seed depends on
    the sweep tag only) and derives a :class:`~repro.faults.FaultModel`
    whose seed depends only on ``(tag, bit_flip_rate)`` — *not* on the
    design — so every design at a given rate runs under the
    identically-seeded fault schedule; per-query answer accuracy is
    measured against the fault-free database truth.
    """
    if design not in FAULT_DESIGNS:
        raise FleetError(f"unknown design {design!r}; known: {FAULT_DESIGNS}")
    dataset = build_dataset(
        k=FAULT_K,
        num_species=FAULT_SPECIES,
        genome_length=FAULT_GENOME_LENGTH,
        num_reads=FAULT_READS,
        seed=hash_seed(FAULT_SEED_TAG, "dataset") % 2**31,
    )
    database = dataset.database
    queries = [
        kmer
        for read in dataset.reads
        for kmer in list(read.kmers(FAULT_K))[:FAULT_KMERS_PER_READ]
    ]
    truth = [database.get(q) for q in queries]
    injector = FaultInjector(
        FaultModel(
            bit_flip_rate=bit_flip_rate,
            seed=hash_seed(FAULT_SEED_TAG, "rate", bit_flip_rate),
        )
    )
    backend = _faulted_backend(design, database, injector)
    if design == "type1":
        outcomes = [backend.match(q) for q in queries]
        answers = [(o.hit, o.payload) for o in outcomes]
    else:
        answers = [(r.hit, r.payload) for r in backend.query(queries)]
    false_miss = false_hit = wrong_payload = 0
    for (hit, payload), expected in zip(answers, truth):
        if expected is None:
            false_hit += hit
        elif not hit:
            false_miss += 1
        elif payload != expected:
            wrong_payload += 1
    correct = len(queries) - false_miss - false_hit - wrong_payload
    return {
        "design": design,
        "bit_flip_rate": bit_flip_rate,
        "queries": len(queries),
        "accuracy": correct / len(queries),
        "false_miss": false_miss,
        "false_hit": false_hit,
        "wrong_payload": wrong_payload,
        "bits_flipped": injector.stats.bits_flipped,
    }


def fault_sweep() -> FigureResult:
    """Accuracy-vs-fault-rate table across the functional designs."""
    jobs = [
        partial(fault_point, design, rate)
        for rate in FAULT_RATES
        for design in FAULT_DESIGNS
    ]
    payloads = run_jobs(jobs)
    result = FigureResult(
        figure="Fault sweep",
        title="Answer accuracy vs. DRAM bit-flip rate (seeded injection)",
        headers=[
            "design",
            "bit_flip_rate",
            "queries",
            "accuracy",
            "false_miss",
            "false_hit",
            "wrong_payload",
            "bits_flipped",
        ],
    )
    for payload in payloads:
        result.rows.append(
            [
                payload["design"],
                payload["bit_flip_rate"],
                payload["queries"],
                payload["accuracy"],
                payload["false_miss"],
                payload["false_hit"],
                payload["wrong_payload"],
                payload["bits_flipped"],
            ]
        )
        if payload["bit_flip_rate"] <= 0.0 and payload["accuracy"] < 1.0:
            raise AssertionError(
                f"zero-rate fault injection changed answers for "
                f"{payload['design']}: accuracy {payload['accuracy']}"
            )
    result.notes = (
        "Every design at a given rate runs under the identically-seeded "
        "fault schedule; the 0.0 row proves the injector is a no-op at "
        "zero rate."
    )
    return result
