"""Behavioral model of a DRAM subarray (bit cells + local row buffer).

This is the functional substrate the bit-accurate Sieve models are built
on: a subarray stores a ``rows x cols`` bit matrix, a row can be
*activated* (latched into the local row buffer / sense amplifiers), read
out, written, and precharged.  Activation counts are tracked so
functional runs can be converted into latency/energy with the timing and
energy models.

Database images are installed through an untimed load path: whole rows
(:meth:`Subarray.load_row`), single runs (:meth:`Subarray.load_bits`),
and two block stores — a replicated block (:meth:`Subarray.
load_bit_block`, the query batch) and row-major fixed-width entries
(:meth:`Subarray.load_entries`, Regions 2 and 3).  A fault injector sees
every row or run the block stores would write one at a time.

Only one row may be open at a time (single-row activation is the core of
Sieve's design argument, Section III); multi-row activation is modelled
separately in :mod:`repro.insitu` for the Ambit/ComputeDRAM baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .. import hooks


class DramStateError(RuntimeError):
    """Raised on protocol violations (e.g. reading a closed row)."""


@dataclass
class SubarrayStats:
    """Counters accumulated by one subarray."""

    activations: int = 0
    precharges: int = 0
    row_reads: int = 0
    row_writes: int = 0


class Subarray:
    """A DRAM subarray: bit cells plus a local row buffer."""

    def __init__(self, rows: int, cols: int) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError(f"subarray must have positive dims, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self._cells = np.zeros((rows, cols), dtype=np.uint8)
        self._open_row: Optional[int] = None
        self._row_buffer = np.zeros(cols, dtype=np.uint8)
        self.stats = SubarrayStats()

    @property
    def open_row(self) -> Optional[int]:
        """Index of the currently open row, or ``None`` when precharged."""
        return self._open_row

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range [0, {self.rows})")

    def activate(self, row: int) -> np.ndarray:
        """Open ``row``: latch its bits into the local row buffer.

        Returns a read-only view of the row buffer (what the matchers
        see).  Activating while another row is open is a protocol
        violation — a real DRAM requires a precharge first.
        """
        self._check_row(row)
        if self._open_row is not None and self._open_row != row:
            raise DramStateError(
                f"row {self._open_row} is open; precharge before activating {row}"
            )
        if self._open_row is None:
            self.stats.activations += 1
        self._open_row = row
        self._row_buffer[:] = self._cells[row]
        view = self._row_buffer.view()
        view.flags.writeable = False
        return view

    def precharge(self) -> None:
        """Close the open row (idempotent, as PRE to an idle bank is)."""
        if self._open_row is not None:
            # Restore: DRAM reads are destructive; writeback happens here.
            self._cells[self._open_row] = self._row_buffer
            self.stats.precharges += 1
        self._open_row = None

    def read_row_buffer(self) -> np.ndarray:
        """Return a copy of the open row's bits."""
        if self._open_row is None:
            raise DramStateError("no row is open")
        self.stats.row_reads += 1
        return self._row_buffer.copy()

    def write_row_buffer(self, bits: np.ndarray) -> None:
        """Overwrite the open row through the row buffer."""
        if self._open_row is None:
            raise DramStateError("no row is open")
        if bits.shape != (self.cols,):
            raise ValueError(f"expected {self.cols} bits, got shape {bits.shape}")
        self._row_buffer[:] = bits % 2
        self.stats.row_writes += 1

    def load_row(self, row: int, bits: np.ndarray) -> None:
        """Directly install row contents (database load path, not timed).

        When a fault injector is installed it may corrupt the stored
        bits (weak cells invert writes, stuck-at cells pin them) — the
        persistent-cell-fault seam of :mod:`repro.faults`.
        """
        self._check_row(row)
        if bits.shape != (self.cols,):
            raise ValueError(f"expected {self.cols} bits, got shape {bits.shape}")
        injector = hooks.INJECTOR
        if injector is not None:
            bits = injector.on_subarray_load(self, row, 0, bits)
        self._cells[row] = bits % 2

    def load_bits(self, row: int, col_start: int, bits: np.ndarray) -> None:
        """Install a partial row starting at ``col_start`` (load path).

        The single-run store the fault injector sees: the block stores
        :meth:`load_bit_block` and :meth:`load_entries` fall back to one
        call per run when an injector is installed.
        """
        self._check_row(row)
        if col_start < 0 or col_start + len(bits) > self.cols:
            raise IndexError(
                f"bits [{col_start}, {col_start + len(bits)}) out of range "
                f"[0, {self.cols})"
            )
        injector = hooks.INJECTOR
        if injector is not None:
            bits = injector.on_subarray_load(self, row, col_start, bits)
        self._cells[row, col_start : col_start + len(bits)] = bits % 2

    def load_bit_block(self, row, col_starts: np.ndarray, bits: np.ndarray) -> np.ndarray:
        """Install bit blocks at several column offsets in one store.

        ``bits`` is one ``(rows, width)`` block, landing on rows ``[row,
        row + rows)``, or a stack ``(blocks, rows, width)`` of them,
        block ``i`` landing from row ``row[i]``.  Each block row lands at
        columns ``[start, start + width)`` for every ``start`` in the
        evenly spaced ``col_starts`` (load path: the replicated query
        batches of every pattern group, of one or several layers).

        The blocks are stored in order, so a later block with the same
        first row overwrites an earlier one.  Without a fault injector
        only the last block of each first row is written, in one indexed
        write.  With one installed every (row, start) goes through
        :meth:`load_bits`, block by block in row-major order, so the
        injector sees exactly the calls one store per block would make.

        Returns the ``(blocks, rows, runs, width)`` cells each block
        stored, run ``j`` being the one at ``col_starts[j]``, as they
        were right after its store: a read-only broadcast of ``bits``
        when no injector could corrupt them, otherwise copies.
        """
        bits = np.asarray(bits)
        if bits.ndim == 2:
            bits, firsts = bits[None], [row]
        elif bits.ndim == 3:
            firsts = row if isinstance(row, list) else np.ravel(row).tolist()
        else:
            raise ValueError(f"expected (rows, width) bits, got {bits.shape}")
        count, num_rows, width = bits.shape
        if len(firsts) != count:
            raise ValueError(f"{len(firsts)} first rows for {count} blocks")
        starts = [int(start) for start in col_starts]
        if count and (min(firsts) < 0 or max(firsts) + num_rows > self.rows):
            raise IndexError(
                f"blocks of {num_rows} rows from {firsts} out of range [0, {self.rows})"
            )
        # A bool block already holds bits: stored without a masking copy.
        if bits.dtype == np.bool_:
            bits = bits.view(np.uint8)
        else:
            bits = np.asarray(bits, dtype=np.uint8) & 1
        stored = np.broadcast_to(bits[:, :, None, :], (count, num_rows, len(starts), width))
        if not count or not starts:
            return stored
        pitch = starts[1] - starts[0] if len(starts) > 1 else width
        if min(starts) < 0 or max(starts) + width > self.cols:
            raise IndexError(
                f"runs of {width} bits at {starts} out of range [0, {self.cols})"
            )
        if len(starts) > 2 and any(b - a != pitch for a, b in zip(starts, starts[1:])):
            raise ValueError(f"column starts {starts} are not evenly spaced")
        # The cells as (first row, block row, run, width): indexed by the
        # blocks' first rows, every block lands in one indexed write.
        view = np.ndarray(
            (self.rows - num_rows + 1, num_rows, len(starts), width),
            np.uint8,
            self._cells,
            starts[0],
            (self.cols, self.cols, pitch, 1),
        )
        if hooks.INJECTOR is None:
            if len(set(firsts)) < count:  # a first row repeats: keep its last block
                keep = sorted({first: i for i, first in enumerate(firsts)}.values())
                firsts, bits = [firsts[i] for i in keep], bits[keep]
            view[firsts] = bits[:, :, None, :]
            return stored
        stored = np.empty(stored.shape, dtype=np.uint8)
        for i, (first, block) in enumerate(zip(firsts, bits)):
            for r, run in enumerate(block, first):
                for start in starts:
                    self.load_bits(r, start, run)
            stored[i] = view[first]
        return stored

    def load_entries(self, row: int, bits: np.ndarray) -> None:
        """Install fixed-width entries row-major from column 0 of ``row``.

        ``bits`` is ``(entries, width)``: entry ``i`` lands on row ``row
        + i // per_row`` at column ``(i % per_row) * width``, with
        ``per_row = cols // width`` whole entries per row (entries never
        straddle rows).  This is the Region-2/3 offset and payload
        layout, stored as one block write per region (load path).  With
        a fault injector installed every entry goes through
        :meth:`load_bits`, in entry order, so the injector sees exactly
        the calls a per-entry load would make.
        """
        bits = np.asarray(bits, dtype=np.uint8) % 2
        if bits.ndim != 2 or not 0 < bits.shape[1] <= self.cols:
            raise ValueError(
                f"expected (entries, width <= {self.cols}) bits, got {bits.shape}"
            )
        count, width = bits.shape
        per_row = self.cols // width
        self._check_row(row)
        if not count:
            return
        self._check_row(row + (count - 1) // per_row)
        if hooks.INJECTOR is not None:
            rows, slots = np.divmod(np.arange(count), per_row)
            for r, start, entry in zip(
                (row + rows).tolist(), (slots * width).tolist(), bits
            ):
                self.load_bits(r, start, entry)
            return
        full, tail = divmod(count, per_row)
        span = per_row * width
        self._cells[row : row + full, :span] = bits[: full * per_row].reshape(
            full, span
        )
        if tail:
            self._cells[row + full, : tail * width] = bits[full * per_row :].ravel()

    def peek(self, row: int, col: int) -> int:
        """Read one stored bit without any timing effect (debug/tests)."""
        self._check_row(row)
        if not 0 <= col < self.cols:
            raise IndexError(f"col {col} out of range [0, {self.cols})")
        return int(self._cells[row, col])

    def peek_rows(self, start: int, stop: int) -> np.ndarray:
        """Read-only view of rows ``[start, stop)`` without timing effect.

        This is the bulk analogue of :meth:`peek` for vectorized model
        paths that account activations analytically; it never touches the
        row buffer or the open-row state.
        """
        self._check_row(start)
        if not start < stop <= self.rows:
            raise IndexError(
                f"rows [{start}, {stop}) out of range [0, {self.rows})"
            )
        view = self._cells[start:stop].view()
        view.flags.writeable = False
        return view

    def charge_untimed_accesses(self, activations: int) -> None:
        """Account ``activations`` ACT/PRE pairs executed analytically.

        The batched match path computes its row activations in one
        vectorized pass instead of replaying them; this keeps the
        subarray's counters identical to a command-by-command replay.
        """
        if activations < 0:
            raise ValueError(f"activations must be >= 0, got {activations}")
        self.stats.activations += activations
        self.stats.precharges += activations


@dataclass
class Bank:
    """A DRAM bank: an ordered collection of subarrays.

    Global row addresses map to (subarray, local row) top-down, matching
    the paper's Figure 7 where subarray 0 is closest to the bank I/O in
    Type-1 and the compute buffer sits at the bottom of each subarray
    group in Type-2.
    """

    subarrays_per_bank: int
    rows_per_subarray: int
    row_bits: int
    subarrays: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.subarrays:
            self.subarrays = [
                Subarray(self.rows_per_subarray, self.row_bits)
                for _ in range(self.subarrays_per_bank)
            ]

    @property
    def total_rows(self) -> int:
        return self.subarrays_per_bank * self.rows_per_subarray

    def locate(self, global_row: int) -> tuple:
        """Split a bank-global row address into (subarray idx, local row)."""
        if not 0 <= global_row < self.total_rows:
            raise IndexError(
                f"row {global_row} out of range [0, {self.total_rows})"
            )
        return divmod(global_row, self.rows_per_subarray)

    def activate(self, global_row: int) -> np.ndarray:
        """Activate a bank-global row (opens it in its subarray)."""
        idx, local = self.locate(global_row)
        return self.subarrays[idx].activate(local)

    def precharge_all(self) -> None:
        """Precharge every subarray in the bank."""
        for sub in self.subarrays:
            sub.precharge()
