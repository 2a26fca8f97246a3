"""Bit-accurate functional simulator of a Sieve Type-1 bank (Figure 12).

Type-1 keeps the DRAM bank untouched and matches at the chip I/O:

* references are stored column-wise exactly as in Type-2/3, but the row
  is *burst-read* 64 bits (one batch) at a time into a 64-bit Matcher
  Array next to the I/O interface — there are no matchers in the row
  buffer and no query replication in the array (the query lives in the
  Query Register);
* an 8-Kbit SRAM Buffer holds one running match bit per reference
  (128 entries x 64 bits, one entry per batch);
* the Skip-Bits Register (SkBR) holds one live bit per batch, so dead
  batches are never burst-read, and the Start-Batch Register (StBR)
  skips the scan over leading dead batches;
* matching a query is terminated (Type-1's ETM) when every skip bit is
  zero; payload retrieval reuses the Region-2/3 layout.

The simulator counts exactly the events the analytic
:class:`~repro.sieve.perfmodel.Type1Model` charges — row activations,
batch burst reads, skip-bit scan cycles — so the two can be
cross-validated on the same data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..dram.subarray import Subarray
from .functional import _bits_to_int, _int_to_bits, _ints_to_bit_rows
from .layout import OFFSET_BITS, PAYLOAD_BITS, LayoutError

#: Bank I/O width: one burst delivers one batch of reference bits.
BATCH_BITS = 64


class Type1Error(RuntimeError):
    """Raised on protocol errors in the Type-1 simulator."""


@dataclass(frozen=True)
class Type1Outcome:
    """Result of matching one query on a Type-1 bank."""

    query: int
    hit: bool
    payload: Optional[int]
    column: Optional[int]
    rows_activated: int
    batch_reads: int
    skip_scan_cycles: int
    terminated_early: bool


@dataclass(frozen=True)
class Type1Layout:
    """Region map of a Type-1 bank's reference area.

    Type-1 has no pattern groups: every column of the row is a
    reference (queries never enter the array).
    """

    k: int
    row_bits: int = 8192
    rows: int = 512

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise LayoutError(f"k must be positive, got {self.k}")
        if self.row_bits % BATCH_BITS:
            raise LayoutError("row_bits must be a multiple of the 64-bit batch")
        if self.total_rows_used > self.rows:
            raise LayoutError(
                f"layout needs {self.total_rows_used} rows, bank region has "
                f"{self.rows}"
            )

    @property
    def kmer_rows(self) -> int:
        return 2 * self.k

    @property
    def refs_per_row(self) -> int:
        return self.row_bits

    @property
    def num_batches(self) -> int:
        return self.row_bits // BATCH_BITS

    @property
    def offsets_per_row(self) -> int:
        return self.row_bits // OFFSET_BITS

    @property
    def offset_rows(self) -> int:
        return -(-self.refs_per_row // self.offsets_per_row)

    @property
    def payloads_per_row(self) -> int:
        return self.row_bits // PAYLOAD_BITS

    @property
    def payload_rows(self) -> int:
        return -(-self.refs_per_row // self.payloads_per_row)

    @property
    def total_rows_used(self) -> int:
        return self.kmer_rows + self.offset_rows + self.payload_rows

    def offset_location(self, slot: int) -> Tuple[int, int]:
        row, entry = divmod(slot, self.offsets_per_row)
        return self.kmer_rows + row, entry * OFFSET_BITS

    def payload_location(self, index: int) -> Tuple[int, int]:
        row, entry = divmod(index, self.payloads_per_row)
        return self.kmer_rows + self.offset_rows + row, entry * PAYLOAD_BITS


class Type1BankSim:
    """One Type-1 bank: DRAM region + I/O-side matching machinery."""

    def __init__(
        self,
        layout: Type1Layout,
        records: Sequence[Tuple[int, int]],
        etm_enabled: bool = True,
    ) -> None:
        if len(records) > layout.refs_per_row:
            raise LayoutError(
                f"{len(records)} records exceed row capacity {layout.refs_per_row}"
            )
        for (a, _), (b, _) in zip(records, records[1:]):
            if b <= a:
                raise Type1Error("records must be sorted by k-mer, unique")
        self.layout = layout
        self.etm_enabled = etm_enabled
        self.records = list(records)
        self.array = Subarray(layout.rows, layout.row_bits)
        # SRAM buffer: one running match bit per reference column,
        # organized as (num_batches x 64) like the real 2D macro.
        self._sram = np.zeros(layout.row_bits, dtype=np.uint8)
        self._skip_bits = np.zeros(layout.num_batches, dtype=np.uint8)
        self._valid = np.zeros(layout.row_bits, dtype=np.uint8)
        self._valid[: len(records)] = 1
        self._load()

    def _load(self) -> None:
        layout = self.layout
        from ..genomics.encoding import transpose_kmers

        bits = transpose_kmers([k for k, _ in self.records], layout.k)
        for row in range(layout.kmer_rows):
            image = np.zeros(layout.row_bits, dtype=np.uint8)
            image[: len(self.records)] = bits[row]
            self.array.load_row(row, image)
        # Regions 2 (offsets) and 3 (payloads): one block store each.
        self.array.load_entries(
            layout.kmer_rows,
            _ints_to_bit_rows(range(len(self.records)), OFFSET_BITS),
        )
        self.array.load_entries(
            layout.kmer_rows + layout.offset_rows,
            _ints_to_bit_rows([p for _, p in self.records], PAYLOAD_BITS),
        )

    # -- matching -------------------------------------------------------------

    def match(self, query: int) -> Type1Outcome:
        """Match one query k-mer against every reference in the bank."""
        layout = self.layout
        if query < 0 or query >= 1 << layout.kmer_rows:
            raise Type1Error(f"query {query} out of range for k={layout.k}")
        # Preset: SRAM result bits to 1 for valid columns, skip bits to
        # 1 for batches holding at least one valid reference.
        self._sram[:] = self._valid
        for batch in range(layout.num_batches):
            lo = batch * BATCH_BITS
            self._skip_bits[batch] = 1 if self._valid[lo : lo + BATCH_BITS].any() else 0
        query_bits = _int_to_bits(query, layout.kmer_rows)

        rows_activated = 0
        batch_reads = 0
        skip_scans = 0
        terminated_early = False
        for bit in range(layout.kmer_rows):
            if self.etm_enabled and not self._skip_bits.any():
                terminated_early = True
                break
            row = self.array.activate(bit)
            rows_activated += 1
            qbit = int(query_bits[bit])
            # StBR: jump to the first live batch; then scan skip bits,
            # one DRAM cycle each, bursting only live batches.
            live = np.flatnonzero(self._skip_bits)
            if live.size:
                start = int(live[0])
                skip_scans += layout.num_batches - start
            for batch in live:
                lo = int(batch) * BATCH_BITS
                ref_bits = row[lo : lo + BATCH_BITS]
                batch_reads += 1
                # 64-bit Matcher Array: XNOR + AND with the SRAM entry.
                xnor = np.uint8(1) - ((ref_bits ^ np.uint8(qbit)) & np.uint8(1))
                entry = self._sram[lo : lo + BATCH_BITS] & xnor
                self._sram[lo : lo + BATCH_BITS] = entry
                if not entry.any():
                    self._skip_bits[batch] = 0
            self.array.precharge()
        if self._sram.any():
            return self._retrieve(query, rows_activated, batch_reads, skip_scans)
        return Type1Outcome(
            query=query,
            hit=False,
            payload=None,
            column=None,
            rows_activated=rows_activated,
            batch_reads=batch_reads,
            skip_scan_cycles=skip_scans,
            terminated_early=terminated_early,
        )

    def _retrieve(
        self, query: int, rows: int, batches: int, scans: int
    ) -> Type1Outcome:
        """Column finder + payload fetch (Figure 12's control logic)."""
        live = np.flatnonzero(self._sram)
        if live.size == 0:
            raise Type1Error("expected at least one live result bit, found 0")
        # batch index via skip bits, then a small shifter inside it:
        # column = batch_index * batch_size + in-batch index.  Like the
        # Type-2/3 Column Finder, the shifter stops at the first live
        # bit; duplicates only arise under fault injection.
        column = int(live[0])
        batch_index, in_batch = divmod(column, BATCH_BITS)
        assert batch_index * BATCH_BITS + in_batch == column
        layout = self.layout
        orow, ocol = layout.offset_location(column)
        bits = self.array.activate(orow)
        offset = _bits_to_int(bits[ocol : ocol + OFFSET_BITS])
        self.array.precharge()
        # Decoder wrap for fault-corrupted offsets (see functional.py).
        offset %= layout.refs_per_row
        prow, pcol = layout.payload_location(offset)
        bits = self.array.activate(prow)
        payload = _bits_to_int(bits[pcol : pcol + PAYLOAD_BITS])
        self.array.precharge()
        return Type1Outcome(
            query=query,
            hit=True,
            payload=payload,
            column=column,
            rows_activated=rows + 2,
            batch_reads=batches + 2,  # offset + payload transfers
            skip_scan_cycles=scans,
            terminated_early=False,
        )
