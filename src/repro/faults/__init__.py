"""Deterministic fault injection and chaos testing (``repro.faults``).

Two layers, one determinism discipline:

* :mod:`repro.faults.model` — cell/command faults behind the
  :mod:`repro.hooks` seam: weak-cell bit flips, stuck-at maps,
  command drops/delays.  Applied identically to every Subarray-backed
  engine (Sieve Type-1/2/3, row-major Ambit) and, via
  :func:`faulted_database`, to the host-table baselines.
* :mod:`repro.faults.chaos` — shard-level chaos plans (crash / stall /
  slow replica) the service dispatcher executes and must survive.

Every fault decision is a content hash of the model seed and the fault
coordinates — no global RNG, no wall clock — so campaigns replay
byte-identically (property-tested in ``tests/test_faults_properties.py``)
and a zero-rate model is a provable no-op against the golden suite.

See the "Fault injection & chaos testing" section of docs/TESTING.md.
"""

from .chaos import ChaosAction, ChaosInjector, ChaosPlan, ChaosStats
from .model import (
    FaultError,
    FaultInjector,
    FaultModel,
    FaultStats,
    StuckCell,
    degraded_mode,
    fault_injection,
    faulted_database,
    hash_fraction,
    hash_seed,
)

__all__ = [
    "ChaosAction",
    "ChaosInjector",
    "ChaosPlan",
    "ChaosStats",
    "FaultError",
    "FaultInjector",
    "FaultModel",
    "FaultStats",
    "StuckCell",
    "degraded_mode",
    "fault_injection",
    "faulted_database",
    "hash_fraction",
    "hash_seed",
]
