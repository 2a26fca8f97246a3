"""Trace-replay main-memory model (the paper's DRAMSim2 stand-in).

Section V: "The baseline DRAM energy consumption is estimated by feeding
memory traces associated with k-mer matching functions ... to DRAMSim2
configured to match our workstation."  This module is that flow: replay
a byte-address trace (from the traced classifiers in
:mod:`repro.baselines`) against an open-page DDR4 memory system with the
workstation's channel/rank/bank organization, and report per-access
latency, row-buffer locality, and energy.

It is deliberately simpler than DRAMSim2 — single outstanding access,
open-page policy, no refresh interleaving — because the quantity the
evaluation needs is the *per-lookup DRAM energy and the row-hit rate*,
both of which are dominated by the access pattern, not by controller
scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from .. import hooks
from .energy import DDR4_ENERGY, DramEnergy
from .timing import DDR4_2400, DramTiming


class MemSysError(ValueError):
    """Raised on invalid memory-system parameters."""


@dataclass(frozen=True)
class MemSysConfig:
    """Workstation memory organization (paper Table I defaults)."""

    channels: int = 2
    ranks_per_channel: int = 2
    banks_per_rank: int = 16  # DDR4
    row_bytes: int = 8192
    line_bytes: int = 64

    def __post_init__(self) -> None:
        for name in ("channels", "ranks_per_channel", "banks_per_rank",
                     "row_bytes", "line_bytes"):
            if getattr(self, name) <= 0:
                raise MemSysError(f"{name} must be positive")
        if self.row_bytes % self.line_bytes:
            raise MemSysError("row_bytes must be a multiple of line_bytes")

    @property
    def total_banks(self) -> int:
        return self.channels * self.ranks_per_channel * self.banks_per_rank


@dataclass
class MemSysStats:
    """Replay counters."""

    accesses: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    total_latency_ns: float = 0.0
    energy_nj: float = 0.0
    #: Latency injected by an installed fault model (command drops
    #: retried, delays); included in ``total_latency_ns``.
    fault_delay_ns: float = 0.0
    #: Commands reissued because a fault injector dropped them.
    faulted_commands: int = 0

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.accesses if self.accesses else 0.0

    @property
    def mean_latency_ns(self) -> float:
        return self.total_latency_ns / self.accesses if self.accesses else 0.0

    @property
    def energy_per_access_nj(self) -> float:
        return self.energy_nj / self.accesses if self.accesses else 0.0


class MemorySystem:
    """Open-page DDR4 model replaying one access at a time."""

    def __init__(
        self,
        config: Optional[MemSysConfig] = None,
        timing: DramTiming = DDR4_2400,
        energy: DramEnergy = DDR4_ENERGY,
    ) -> None:
        self.config = config or MemSysConfig()
        self.timing = timing
        self.energy = energy
        self._open_rows: Dict[int, int] = {}
        self.stats = MemSysStats()

    def _map(self, address: int) -> Tuple[int, int]:
        """Address -> (global bank id, row).

        Line-interleaved across channels, then banks, then rows — the
        standard XOR-free open-page mapping.
        """
        if address < 0:
            raise MemSysError("address must be non-negative")
        cfg = self.config
        line = address // cfg.line_bytes
        channel = line % cfg.channels
        line //= cfg.channels
        bank = line % (cfg.ranks_per_channel * cfg.banks_per_rank)
        line //= cfg.ranks_per_channel * cfg.banks_per_rank
        lines_per_row = cfg.row_bytes // cfg.line_bytes
        row = line // lines_per_row
        global_bank = channel * cfg.ranks_per_channel * cfg.banks_per_rank + bank
        return global_bank, row

    def access(self, address: int, is_write: bool = False) -> float:
        """Replay one cache-line access; returns its latency (ns)."""
        bank, row = self._map(address)
        timing = self.timing
        open_row = self._open_rows.get(bank)
        burst_nj = (
            self.energy.write_burst_energy_nj(timing)
            if is_write
            else self.energy.read_burst_energy_nj(timing)
        )
        if open_row == row:
            self.stats.row_hits += 1
            kind = "hit"
            latency = timing.tCAS + timing.burst_time
            self.stats.energy_nj += burst_nj
        elif open_row is None:
            self.stats.row_misses += 1
            kind = "miss"
            latency = timing.tRCD + timing.tCAS + timing.burst_time
            self.stats.energy_nj += (
                self.energy.activation_energy_nj(timing) + burst_nj
            )
        else:
            self.stats.row_conflicts += 1
            kind = "conflict"
            latency = (
                timing.tRP + timing.tRCD + timing.tCAS + timing.burst_time
            )
            self.stats.energy_nj += (
                self.energy.activation_energy_nj(timing) + burst_nj
            )
        self._open_rows[bank] = row
        self.stats.accesses += 1
        self.stats.total_latency_ns += latency
        for observer in hooks.OBSERVERS:
            # Observers (the protocol sanitizer) always see the base
            # latency; injected fault extras are accounted separately.
            observer.on_memsys_access(self, bank, row, kind, latency)
        injector = hooks.INJECTOR
        if injector is not None:
            extra = injector.on_memsys_access(self, bank, row, kind, latency)
            if extra:
                self.stats.total_latency_ns += extra
                self.stats.fault_delay_ns += extra
                self.stats.faulted_commands += 1
                latency += extra
        return latency

    def replay(self, addresses: Iterable[int]) -> MemSysStats:
        """Replay a whole trace; returns the accumulated stats."""
        for address in addresses:
            self.access(address)
        return self.stats


def replay_lookup_traces(traces: Iterable, config: Optional[MemSysConfig] = None):
    """Replay traced classifier lookups (objects with ``addresses``).

    Returns (stats, lookups, dram_energy_per_lookup_nj) — the numbers
    the paper's CPU-energy methodology produces.
    """
    system = MemorySystem(config)
    lookups = 0
    for trace in traces:
        lookups += 1
        for address in trace.addresses:
            system.access(address)
    if lookups == 0:
        raise MemSysError("no lookups in the trace")
    return system.stats, lookups, system.stats.energy_nj / lookups
