"""Deterministic cell/command-level DRAM fault model (Layer 1).

Real PIM deployments run on imperfect silicon: retention-weak cells,
stuck-at bits from process variation, and occasional command
drops/delays on a marginal channel.  The simulators in this repository
assume pristine DRAM; this module injects those defects *behind* the
:mod:`repro.hooks` seam so every engine built on
:class:`~repro.dram.subarray.Subarray` — the functional Sieve device,
the Type-1 bank, the row-major Ambit baseline — and every trace replay
through :class:`~repro.dram.memsys.MemorySystem` can run under an
identical fault schedule.

Determinism is the design center: every fault decision is drawn from a
content hash of ``(model seed, unit label, row)`` — never from global
RNG state or wall-clock entropy (lint rule SV004) — so a chaos run
replays byte-identically, and a zero-rate model is a provable no-op.

Two fault classes:

* **persistent cell faults** (``bit_flip_rate``, ``stuck_cells``) are
  applied on the untimed data-install path (``load_row``/``load_bits``).
  A weak cell inverts whatever is written to it, every time — the mask
  is a pure function of ``(seed, unit, row, col)``, so reloading a
  region corrupts it the same way and the scalar/batched match paths
  stay bit-identical (both read the same corrupted cells).
* **command faults** (``command_drop_rate`` / ``command_delay_rate``)
  perturb :meth:`MemorySystem.access` latency: a dropped command is
  modelled as a reissue (the access pays its latency and energy twice);
  a delayed one adds ``command_delay_ns``.  The protocol sanitizer's
  exact-latency check still passes because the observer is notified
  with the base latency; injected extras are accounted separately
  (``MemSysStats.fault_delay_ns``).
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .. import hooks


class FaultError(ValueError):
    """Raised on malformed fault models or injector misuse."""


def hash_fraction(*parts: object) -> float:
    """Deterministic U[0, 1) draw from a content hash of ``parts``.

    The SV004-clean randomness primitive: no global RNG state, no
    wall-clock entropy — equal parts always produce the equal draw, in
    any process, on any platform.
    """
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def hash_seed(*parts: object) -> int:
    """Deterministic 63-bit seed from a content hash of ``parts``."""
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class StuckCell:
    """One weak cell pinned to a constant value.

    ``unit`` names the physical array the cell lives in — the injector
    labels arrays ``unit0, unit1, ...`` in first-seen order (call
    :meth:`FaultInjector.reset_units` to restart the namespace per
    device build), so a map keyed by (unit, row, col) addresses the
    same cells across replicas and designs.
    """

    unit: str
    row: int
    col: int
    value: int

    def __post_init__(self) -> None:
        if self.row < 0 or self.col < 0:
            raise FaultError(f"stuck cell ({self.row}, {self.col}) is negative")
        if self.value not in (0, 1):
            raise FaultError(f"stuck value must be 0 or 1, got {self.value}")


@dataclass(frozen=True)
class FaultModel:
    """Seed-driven fault configuration (all rates are probabilities)."""

    #: Per-cell probability that a cell is retention-weak (inverts writes).
    bit_flip_rate: float = 0.0
    #: Explicit stuck-at weak-cell map, keyed by (unit, row, col).
    stuck_cells: Tuple[StuckCell, ...] = ()
    #: Per-access probability a command is dropped and reissued.
    command_drop_rate: float = 0.0
    #: Per-access probability a command is delayed by ``command_delay_ns``.
    command_delay_rate: float = 0.0
    #: Extra latency charged to a delayed command.
    command_delay_ns: float = 7.5
    #: Root of every hash-derived fault decision.
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("bit_flip_rate", "command_drop_rate", "command_delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultError(f"{name} must be in [0, 1], got {rate}")
        if self.command_delay_ns < 0:
            raise FaultError(
                f"command_delay_ns must be >= 0, got {self.command_delay_ns}"
            )
        if self.seed < 0:
            raise FaultError(f"seed must be >= 0, got {self.seed}")

    @property
    def active(self) -> bool:
        """Whether this model can perturb anything at all."""
        return bool(
            self.bit_flip_rate
            or self.stuck_cells
            or self.command_drop_rate
            or self.command_delay_rate
        )

    @classmethod
    def seeded(cls, tag: str, **fields: Any) -> "FaultModel":
        """Build a model whose seed is a content hash of ``tag``.

        The repository-standard way to name a fault campaign: the tag
        (not process entropy) determines every fault the model injects.
        """
        return cls(seed=hash_seed("fault-model", tag), **fields)


@dataclass
class FaultStats:
    """Counters accumulated by one injector (JSON-friendly)."""

    loads: int = 0
    bits_flipped: int = 0
    stuck_applied: int = 0
    accesses: int = 0
    commands_dropped: int = 0
    commands_delayed: int = 0
    extra_latency_ns: float = 0.0
    records_corrupted: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "loads": self.loads,
            "bits_flipped": self.bits_flipped,
            "stuck_applied": self.stuck_applied,
            "accesses": self.accesses,
            "commands_dropped": self.commands_dropped,
            "commands_delayed": self.commands_delayed,
            "extra_latency_ns": self.extra_latency_ns,
            "records_corrupted": self.records_corrupted,
        }


class FaultInjector:
    """Applies a :class:`FaultModel` through the DRAM hook seam.

    Install with :func:`fault_injection` (or
    :func:`repro.hooks.install_injector` directly).  The injector
    keeps an append-only ``schedule`` of every fault it applied —
    :meth:`schedule_digest` hashes it, so two runs under the same model
    can be compared byte-for-byte.
    """

    def __init__(self, model: FaultModel) -> None:
        self.model = model
        self.stats = FaultStats()
        #: Ordered log of applied faults: (kind, unit, ...detail) tuples.
        self.schedule: List[Tuple] = []
        self._unit_counter = 0
        #: Cached per-(unit, row) weak-cell masks (pure hash functions).
        self._mask_cache: Dict[Tuple[str, int], np.ndarray] = {}
        self._stuck: Dict[str, List[StuckCell]] = {}
        for cell in model.stuck_cells:
            self._stuck.setdefault(cell.unit, []).append(cell)
        #: Per-unit access counters for command-fault draws.
        self._access_index: Dict[str, int] = {}

    # -- unit naming ----------------------------------------------------------

    def unit_of(self, obj: Any) -> str:
        """Stable label for a physical array (first-seen order).

        The label sticks to the object, so later loads into the same
        array reuse it regardless of interleaving; :meth:`reset_units`
        restarts the counter so each device replica built afterwards
        sees the same label sequence (identical weak cells per replica).
        """
        label = getattr(obj, "_fault_unit", None)
        if label is None:
            label = f"unit{self._unit_counter}"
            self._unit_counter += 1
            try:
                obj._fault_unit = label
            except AttributeError:
                pass
        return label

    def reset_units(self) -> None:
        """Restart the unit namespace (call before each replica build)."""
        self._unit_counter = 0

    # -- cell faults (Subarray load path) -------------------------------------

    def _weak_mask(self, obj: Any, unit: str, row: int) -> np.ndarray:
        """Full-row weak-cell mask for (unit, row) — cached, hash-seeded."""
        key = (unit, row)
        mask = self._mask_cache.get(key)
        if mask is None:
            rng = np.random.default_rng(
                hash_seed(self.model.seed, "cells", unit, row)
            )
            mask = rng.random(obj.cols) < self.model.bit_flip_rate
            mask.setflags(write=False)
            self._mask_cache[key] = mask
        return mask

    def on_subarray_load(
        self, subarray: Any, row: int, col_start: int, bits: np.ndarray
    ) -> np.ndarray:
        """Corrupt an installed bit vector; returns what is stored."""
        self.stats.loads += 1
        model = self.model
        if not model.bit_flip_rate and not self._stuck:
            return bits
        unit = self.unit_of(subarray)
        out = np.array(bits, dtype=np.uint8) % 2
        if model.bit_flip_rate:
            mask = self._weak_mask(subarray, unit, row)[
                col_start : col_start + len(out)
            ]
            flips = int(mask.sum())
            if flips:
                out[mask] ^= 1
                self.stats.bits_flipped += flips
                self.schedule.append(("flip", unit, row, col_start, flips))
        for cell in self._stuck.get(unit, ()):
            if cell.row == row and col_start <= cell.col < col_start + len(out):
                out[cell.col - col_start] = cell.value
                self.stats.stuck_applied += 1
                self.schedule.append(
                    ("stuck", unit, cell.row, cell.col, cell.value)
                )
        return out

    # -- command faults (MemorySystem access path) ----------------------------

    def on_memsys_access(
        self, system: Any, bank: int, row: int, kind: str, latency_ns: float
    ) -> float:
        """Draw command faults for one access; returns extra latency."""
        self.stats.accesses += 1
        model = self.model
        if not model.command_drop_rate and not model.command_delay_rate:
            return 0.0
        unit = self.unit_of(system)
        index = self._access_index.get(unit, 0)
        self._access_index[unit] = index + 1
        extra = 0.0
        if (
            model.command_drop_rate
            and hash_fraction(model.seed, "drop", unit, index)
            < model.command_drop_rate
        ):
            # Dropped command: the controller reissues it — the access
            # pays its full latency again.
            extra += latency_ns
            self.stats.commands_dropped += 1
            self.schedule.append(("drop", unit, index, bank, row))
        if (
            model.command_delay_rate
            and hash_fraction(model.seed, "delay", unit, index)
            < model.command_delay_rate
        ):
            extra += model.command_delay_ns
            self.stats.commands_delayed += 1
            self.schedule.append(("delay", unit, index, bank, row))
        self.stats.extra_latency_ns += extra
        return extra

    # -- host-memory faults (record corruption) -------------------------------

    def corrupt_records(
        self,
        unit: str,
        records: Sequence[Tuple[int, int]],
        key_bits: int,
        payload_bits: int = 32,
    ) -> List[Tuple[int, int]]:
        """Flip bits in host-resident (k-mer, payload) records.

        Models the same weak-cell rate hitting a host-DRAM table (the
        CPU baselines' storage), so host and in-situ engines can be
        compared under one model.  Keys stay within ``key_bits``.
        """
        if key_bits <= 0 or payload_bits <= 0:
            raise FaultError("key_bits and payload_bits must be positive")
        rate = self.model.bit_flip_rate
        if rate <= 0 or not records:
            return list(records)
        rng = np.random.default_rng(
            hash_seed(self.model.seed, "records", unit)
        )
        mask = rng.random((len(records), key_bits + payload_bits)) < rate
        out: List[Tuple[int, int]] = []
        for i, (kmer, payload) in enumerate(records):
            flipped = np.flatnonzero(mask[i])
            if flipped.size:
                for bit in flipped.tolist():
                    if bit < key_bits:
                        kmer ^= 1 << bit
                    else:
                        payload ^= 1 << (bit - key_bits)
                self.stats.records_corrupted += 1
                self.stats.bits_flipped += int(flipped.size)
                self.schedule.append(("record", unit, i, int(flipped.size)))
            out.append((kmer, payload))
        return out

    # -- replay surface -------------------------------------------------------

    def schedule_digest(self) -> str:
        """Content hash of the applied-fault log (byte-identity checks)."""
        payload = repr(self.schedule).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


@contextmanager
def fault_injection(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Install ``injector`` on the DRAM hook seam for the with-block."""
    hooks.install_injector(injector)
    try:
        yield injector
    finally:
        hooks.uninstall_injector()


def degraded_mode() -> bool:
    """Whether an *active* fault model is currently installed.

    Backends snapshot this at construction time to set the
    ``degraded`` flag in their :class:`repro.api.BackendCapabilities`.
    """
    injector = hooks.get_injector()
    model = getattr(injector, "model", None)
    return bool(getattr(model, "active", False))


def faulted_database(database: Any, injector: FaultInjector, unit: str = "host"):
    """Rebuild a :class:`~repro.genomics.database.KmerDatabase` with its
    records corrupted by ``injector`` (host-DRAM bit flips).

    Corrupted keys that collide are LCA-merged when the database has a
    taxonomy; otherwise the first record wins (a real table would hold
    one of them).  The returned database reports ``degraded=True``.
    """
    from ..genomics.database import DatabaseError, KmerDatabase

    records = injector.corrupt_records(
        unit, database.sorted_records(), key_bits=2 * database.k
    )
    out = KmerDatabase(
        database.k, canonical=database.canonical, taxonomy=database.taxonomy
    )
    key_mask = (1 << (2 * database.k)) - 1
    for kmer, payload in records:
        try:
            out.add(kmer & key_mask, payload)
        except (DatabaseError, KeyError):
            # Collision without a taxonomy, or a corrupted payload the
            # taxonomy cannot LCA-merge: keep the earlier record.
            continue
    out.mark_degraded()
    return out
