"""DRAM command accounting: the currency of the trace-driven simulator.

Every accelerator model in this repository (Sieve Types 1-3, Ambit-style
row-major, ComputeDRAM-style) expresses its work as counts of DRAM-level
events — activations, precharges, bursts, hops, custom-logic cycles —
accumulated in a :class:`CommandLedger`.  The ledger converts those
counts into nanoseconds and nanojoules using a :class:`DramTiming` and a
:class:`DramEnergy`, which is exactly how the paper's in-house
DRAMSim2-front-end simulator produces its numbers.

Latency accounting is *per independent unit*: callers accumulate
serialized time on the unit that did the work, and the device-level
models combine units (banks/subarrays) with their own parallelism rules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict

from .. import hooks
from .energy import DramEnergy
from .timing import DramTiming


class Command(enum.Enum):
    """DRAM-level events the simulators account for."""

    ACTIVATE = "activate"  # single-row activation (+ implied precharge)
    MULTI_ACTIVATE = "multi_activate"  # Ambit/ComputeDRAM triple-row act
    READ_BURST = "read_burst"  # column read burst (Type-1 batches)
    WRITE_BURST = "write_burst"  # column write burst (query replication)
    HOP = "hop"  # Type-2 inter-subarray row relay
    LOGIC_CYCLE = "logic_cycle"  # matcher/ETM/CF cycles on critical path
    ROW_CLONE = "row_clone"  # in-bank row copy (Ambit setup)


@dataclass
class CommandLedger:
    """Accumulated command counts plus derived latency/energy.

    ``serial_time_ns`` is time on the critical path of the unit that
    owns this ledger; energy is additive across the device.
    """

    timing: DramTiming
    energy: DramEnergy
    counts: Dict[Command, int] = field(default_factory=dict)
    serial_time_ns: float = 0.0
    energy_nj: float = 0.0
    #: Extra per-activation energy factor (Sieve matcher rows: +6 %).
    activation_energy_factor: float = 1.0
    #: ns of custom logic per LOGIC_CYCLE (one DRAM I/O clock by default).
    logic_cycle_ns: float = 0.0
    #: nJ per LOGIC_CYCLE event.
    logic_cycle_nj: float = 0.0
    #: ns per HOP event (Type-2 relay; ~tRAS/8 per the SPICE result).
    hop_ns: float = 0.0
    #: nJ per HOP event (relay sense-amplifier activation energy).
    hop_nj: float = 0.0

    def __post_init__(self) -> None:
        # Unset-or-nonsense sentinel, not exact-zero: these are "use the
        # timing-derived default" knobs, so any non-positive value means
        # "not configured".
        if self.logic_cycle_ns <= 0.0:
            self.logic_cycle_ns = self.timing.tCK
        if self.hop_ns <= 0.0:
            self.hop_ns = self.timing.tRAS / 8.0

    def record(self, command: Command, count: int = 1, rows: int = 1) -> None:
        """Record ``count`` events; ``rows`` applies to MULTI_ACTIVATE."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return
        self.counts[command] = self.counts.get(command, 0) + count
        if command is Command.ACTIVATE:
            self.serial_time_ns += count * self.timing.row_cycle
            self.energy_nj += (
                count
                * self.energy.activation_energy_nj(self.timing)
                * self.activation_energy_factor
            )
        elif command is Command.MULTI_ACTIVATE:
            self.serial_time_ns += count * self.timing.triple_row_activation
            self.energy_nj += count * self.energy.multi_row_activation_energy_nj(
                self.timing, rows
            )
        elif command is Command.READ_BURST:
            self.serial_time_ns += count * self.timing.tCCD
            self.energy_nj += count * self.energy.read_burst_energy_nj(self.timing)
        elif command is Command.WRITE_BURST:
            self.serial_time_ns += count * self.timing.tCCD
            self.energy_nj += count * self.energy.write_burst_energy_nj(self.timing)
        elif command is Command.HOP:
            self.serial_time_ns += count * self.hop_ns
            self.energy_nj += count * self.hop_nj
        elif command is Command.LOGIC_CYCLE:
            self.serial_time_ns += count * self.logic_cycle_ns
            self.energy_nj += count * self.logic_cycle_nj
        elif command is Command.ROW_CLONE:
            # RowClone-style in-bank copy: two back-to-back activations.
            self.serial_time_ns += count * (self.timing.tRAS + self.timing.row_cycle)
            self.energy_nj += (
                count * 2 * self.energy.activation_energy_nj(self.timing)
            )
        else:  # pragma: no cover - exhaustive over enum
            raise ValueError(f"unknown command {command}")
        for observer in hooks.OBSERVERS:
            observer.on_ledger_record(self, command, count)

    def add_time(self, ns: float) -> None:
        """Charge raw critical-path time (e.g. ETM flush stalls)."""
        if ns < 0:
            raise ValueError(f"time must be non-negative, got {ns}")
        self.serial_time_ns += ns
        for observer in hooks.OBSERVERS:
            observer.on_ledger_time(self, ns)

    def add_energy(self, nj: float) -> None:
        """Charge raw energy (e.g. per-component dynamic energy)."""
        if nj < 0:
            raise ValueError(f"energy must be non-negative, got {nj}")
        self.energy_nj += nj
        for observer in hooks.OBSERVERS:
            observer.on_ledger_energy(self, nj)

    def count(self, command: Command) -> int:
        """Total events of one command type."""
        return self.counts.get(command, 0)

    def merge(self, other: "CommandLedger", parallel: bool) -> None:
        """Fold another ledger in.

        Energy always adds.  Time adds when ``parallel`` is False
        (serialized units) or takes the max when True (units operating
        concurrently).
        """
        for command, count in other.counts.items():
            self.counts[command] = self.counts.get(command, 0) + count
        self.energy_nj += other.energy_nj
        if parallel:
            self.serial_time_ns = max(self.serial_time_ns, other.serial_time_ns)
        else:
            self.serial_time_ns += other.serial_time_ns
        for observer in hooks.OBSERVERS:
            observer.on_ledger_merge(self, other, parallel)
