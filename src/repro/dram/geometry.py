"""DRAM organization: device -> rank -> bank -> subarray -> row -> column.

The paper's operating points (Section IV-V): 8192-bit rows, 512-row
subarrays, 8 banks per rank, and devices from 4 GB to 500 GB built by
adding ranks/subarrays.  Sieve's throughput scales with the number of
independently activatable units, so the geometry is the primary lever of
its "memory-capacity-proportional performance".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class GeometryError(ValueError):
    """Raised on invalid or inconsistent geometry."""


@dataclass(frozen=True)
class DramGeometry:
    """Physical organization of a Sieve DRAM device.

    Defaults follow the paper: 8192-bit rows, 512 rows per subarray,
    8 banks per rank, 64-bit bank I/O, 8-byte prefetch.
    """

    ranks: int = 2
    banks_per_rank: int = 8
    subarrays_per_bank: int = 64
    rows_per_subarray: int = 512
    row_bits: int = 8192
    bank_io_bits: int = 64
    prefetch_bytes: int = 8

    def __post_init__(self) -> None:
        for name in (
            "ranks",
            "banks_per_rank",
            "subarrays_per_bank",
            "rows_per_subarray",
            "row_bits",
            "bank_io_bits",
            "prefetch_bytes",
        ):
            if getattr(self, name) <= 0:
                raise GeometryError(f"{name} must be positive")
        if self.row_bits % self.bank_io_bits:
            raise GeometryError("row_bits must be a multiple of bank_io_bits")

    @property
    def total_banks(self) -> int:
        return self.ranks * self.banks_per_rank

    @property
    def total_subarrays(self) -> int:
        return self.total_banks * self.subarrays_per_bank

    @property
    def subarray_bits(self) -> int:
        return self.rows_per_subarray * self.row_bits

    @property
    def capacity_bits(self) -> int:
        return self.total_subarrays * self.subarray_bits

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_bits // 8

    @property
    def capacity_gib(self) -> float:
        return self.capacity_bytes / 2**30

    @property
    def batches_per_row(self) -> int:
        """Type-1 batches: bursts needed to stream one row over bank I/O."""
        return self.row_bits // self.bank_io_bits

    def __str__(self) -> str:
        return (
            f"{self.capacity_gib:.1f} GiB: {self.ranks} ranks x "
            f"{self.banks_per_rank} banks x {self.subarrays_per_bank} "
            f"subarrays x {self.rows_per_subarray} rows x {self.row_bits} bits"
        )

    @classmethod
    def for_capacity(
        cls,
        capacity_gib: float,
        ranks: Optional[int] = None,
        banks_per_rank: int = 8,
        rows_per_subarray: int = 2048,
        row_bits: int = 8192,
    ) -> "DramGeometry":
        """Build a geometry of the requested capacity by sizing subarrays.

        Mirrors how the paper scales Sieve devices (more subarrays per
        bank at fixed rank/bank counts).  ``ranks=None`` takes the
        paper's organization, 2 GiB per rank (16 ranks at 32 GiB, at
        least one).  Raises when the capacity is not expressible as a
        whole number of subarrays per bank.
        """
        if ranks is None:
            ranks = max(1, int(capacity_gib // 2))
        capacity_bits = int(capacity_gib * 2**33)
        per_bank_bits = capacity_bits // (ranks * banks_per_rank)
        subarray_bits = rows_per_subarray * row_bits
        if per_bank_bits % subarray_bits:
            raise GeometryError(
                f"capacity {capacity_gib} GiB is not a whole number of "
                f"{subarray_bits}-bit subarrays across {ranks * banks_per_rank} banks"
            )
        return cls(
            ranks=ranks,
            banks_per_rank=banks_per_rank,
            subarrays_per_bank=per_bank_bits // subarray_bits,
            rows_per_subarray=rows_per_subarray,
            row_bits=row_bits,
        )


#: The paper's 32 GB evaluation device: 16 ranks x 8 banks (Section IV-C),
#: 128 subarrays per bank (the paper's Type-2 discussion relays rows
#: across up to 128 subarrays), 2048-row subarrays.
SIEVE_32GB = DramGeometry.for_capacity(32.0)

#: Smaller devices for the Figure 16 capacity sweep (2 GiB per rank, same
#: per-bank organization, as DIMM-count scaling would give).
SIEVE_4GB = DramGeometry.for_capacity(4.0)
SIEVE_8GB = DramGeometry.for_capacity(8.0)
SIEVE_16GB = DramGeometry.for_capacity(16.0)
