"""Column-wise data layout of a Sieve subarray (paper Section IV-A, Fig 7e).

Each subarray stores one or more *layers*; a layer is the paper's
Figure 7(e) structure:

* **Region 1** — reference and query k-mers *transposed* onto bitlines:
  row ``r`` stores bit ``r`` (MSB-first) of every k-mer, so one
  single-row activation delivers bit ``r`` of thousands of candidates to
  the matchers at once.  Region 1 is subdivided into *pattern groups* of
  576 columns: 512 reference k-mers with a batch of 64 (distinct) query
  k-mers replicated in the middle of each group (columns 256-319), since
  a query bit can only reach 576 matchers over the shared bus within one
  DRAM row cycle.
* **Region 2** — per-reference payload *offsets*, row-major.
* **Region 3** — the payloads themselves (taxon labels), row-major.

A 2048-row physical subarray holds many such ~120-row layers; the
subarray controller selects the layer whose sorted k-mer range brackets
the query, and matching activates only that layer's pattern rows.
Multi-layer packing is what lets a multi-GB reference database actually
fit the device at high storage efficiency.

Patterns and payloads are co-located in the same subarray to avoid bank
contention (Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

import numpy as np

from ..genomics.encoding import BITS_PER_BASE, transpose_kmers

#: Pattern-group composition from the paper's example part: a query bit
#: reaches 576 matchers in one row cycle -> 512 references + 64 queries.
REFS_PER_GROUP = 512
QUERIES_PER_GROUP = 64
GROUP_WIDTH = REFS_PER_GROUP + QUERIES_PER_GROUP

#: Query columns sit in the middle of the group (Figure 7e: BL256-319).
QUERY_COL_START = 256

#: Region-2 offset entry width and Region-3 payload width, in bits.
OFFSET_BITS = 32
PAYLOAD_BITS = 32


class LayoutError(ValueError):
    """Raised when a layout does not fit its subarray."""


@dataclass(frozen=True)
class SubarrayLayout:
    """Geometry of one Sieve subarray for a given k.

    Parameters mirror the paper's defaults: 8192-bit rows, 2048-row
    physical subarrays, 576-column pattern groups.  ``layers`` defaults
    to 1; use :meth:`with_max_layers` for a fully packed subarray.
    """

    k: int
    row_bits: int = 8192
    rows_per_subarray: int = 2048
    refs_per_group: int = REFS_PER_GROUP
    queries_per_group: int = QUERIES_PER_GROUP
    layers: int = 1

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise LayoutError(f"k must be positive, got {self.k}")
        if self.refs_per_group <= 0 or self.queries_per_group <= 0:
            raise LayoutError("group composition must be positive")
        if self.layers <= 0:
            raise LayoutError(f"layers must be positive, got {self.layers}")
        if self.group_width > self.row_bits:
            raise LayoutError(
                f"pattern group ({self.group_width} cols) wider than row "
                f"({self.row_bits} bits)"
            )
        if self.layers * self.layer_rows > self.rows_per_subarray:
            raise LayoutError(
                f"{self.layers} layers x {self.layer_rows} rows exceed the "
                f"{self.rows_per_subarray}-row subarray"
            )

    # -- per-layer geometry ---------------------------------------------------
    #
    # The constants every query load and match reads are cached on first
    # use (see "cached column maps" below for why a frozen layout may).

    @cached_property
    def group_width(self) -> int:
        return self.refs_per_group + self.queries_per_group

    @cached_property
    def num_groups(self) -> int:
        """Pattern groups per subarray row."""
        return self.row_bits // self.group_width

    @cached_property
    def refs_per_layer(self) -> int:
        return self.num_groups * self.refs_per_group

    @cached_property
    def kmer_rows(self) -> int:
        """Region-1 rows per layer: one per k-mer bit."""
        return BITS_PER_BASE * self.k

    @property
    def offsets_per_row(self) -> int:
        """Whole offset entries per row (entries never straddle rows)."""
        return self.row_bits // OFFSET_BITS

    @property
    def payloads_per_row(self) -> int:
        """Whole payload entries per row."""
        return self.row_bits // PAYLOAD_BITS

    @property
    def offset_rows(self) -> int:
        """Region-2 rows per layer: one 32-bit offset per reference."""
        return -(-self.refs_per_layer // self.offsets_per_row)

    @property
    def payload_rows(self) -> int:
        """Region-3 rows per layer: one 32-bit payload per reference."""
        return -(-self.refs_per_layer // self.payloads_per_row)

    @cached_property
    def layer_rows(self) -> int:
        """Rows one complete layer occupies."""
        return self.kmer_rows + self.offset_rows + self.payload_rows

    @property
    def max_layers(self) -> int:
        """How many layers this subarray could hold."""
        return self.rows_per_subarray // self.layer_rows

    def with_max_layers(self) -> "SubarrayLayout":
        """This layout, packed to the subarray's full layer capacity."""
        return SubarrayLayout(
            k=self.k,
            row_bits=self.row_bits,
            rows_per_subarray=self.rows_per_subarray,
            refs_per_group=self.refs_per_group,
            queries_per_group=self.queries_per_group,
            layers=self.max_layers,
        )

    @property
    def refs_per_subarray(self) -> int:
        """Reference k-mers stored per subarray (all layers)."""
        return self.layers * self.refs_per_layer

    @property
    def storage_efficiency(self) -> float:
        """Fraction of subarray bits holding reference pattern data."""
        pattern_bits = self.refs_per_subarray * self.kmer_rows
        return pattern_bits / (self.rows_per_subarray * self.row_bits)

    # -- row addressing --------------------------------------------------------

    def _check_layer(self, layer: int) -> None:
        if not 0 <= layer < self.layers:
            raise LayoutError(f"layer {layer} out of range [0, {self.layers})")

    def layer_base_row(self, layer: int) -> int:
        """First subarray row of ``layer``."""
        self._check_layer(layer)
        return layer * self.layer_rows

    def pattern_row(self, layer: int, bit: int) -> int:
        """Subarray row holding k-mer bit ``bit`` of ``layer``."""
        if not 0 <= bit < self.kmer_rows:
            raise LayoutError(f"bit {bit} out of range [0, {self.kmer_rows})")
        return self.layer_base_row(layer) + bit

    def region_of_row(self, row: int) -> str:
        """Region of a subarray row: pattern/offset/payload/unused."""
        if not 0 <= row < self.rows_per_subarray:
            raise LayoutError(f"row {row} out of range [0, {self.rows_per_subarray})")
        if row >= self.layers * self.layer_rows:
            return "unused"
        local = row % self.layer_rows
        if local < self.kmer_rows:
            return "pattern"
        if local < self.kmer_rows + self.offset_rows:
            return "offset"
        return "payload"

    # -- column addressing -------------------------------------------------------

    @property
    def query_col_offset(self) -> int:
        """Column offset of the query block inside a group."""
        return min(QUERY_COL_START, self.refs_per_group)

    def group_base(self, group: int) -> int:
        """First column of pattern group ``group``."""
        self._check_group(group)
        return group * self.group_width

    def _check_group(self, group: int) -> None:
        if not 0 <= group < self.num_groups:
            raise LayoutError(f"group {group} out of range [0, {self.num_groups})")

    def query_columns(self, group: int) -> range:
        """Columns holding the replicated query batch in ``group``."""
        base = self.group_base(group) + self.query_col_offset
        return range(base, base + self.queries_per_group)

    # -- cached column maps ---------------------------------------------------
    #
    # The maps below are pure functions of the (frozen) layout, but the
    # matching loops consult them per query slot: computed on the fly they
    # dominate the functional simulator's profile.  They are built once on
    # first use; ``cached_property`` stores into ``__dict__`` directly, which
    # the frozen dataclass permits and which ``__eq__``/``__hash__`` (field
    # based) never see.

    @cached_property
    def ref_slot_columns(self) -> np.ndarray:
        """Column of every layer-wide reference slot, as an int array.

        ``ref_slot_columns[slot]`` is the bitline holding reference slot
        ``slot``; slot order is ascending column order skipping the query
        block, so slot order equals sorted order.
        """
        within = np.arange(self.group_width)
        qstart = self.query_col_offset
        ref_within = within[
            (within < qstart) | (within >= qstart + self.queries_per_group)
        ]
        group_bases = np.arange(self.num_groups) * self.group_width
        cols = (group_bases[:, None] + ref_within[None, :]).ravel()
        cols.flags.writeable = False
        return cols

    @cached_property
    def query_column_matrix(self) -> np.ndarray:
        """``(num_groups, queries_per_group)`` matrix of query columns.

        Row ``g`` lists the columns of group ``g``'s replicated query
        batch, in batch-slot order.
        """
        group_bases = np.arange(self.num_groups) * self.group_width
        slots = self.query_col_offset + np.arange(self.queries_per_group)
        cols = group_bases[:, None] + slots[None, :]
        cols.flags.writeable = False
        return cols

    @cached_property
    def column_group_index(self) -> np.ndarray:
        """Pattern group of every reference slot's column (by slot index)."""
        groups = self.ref_slot_columns // self.group_width
        groups.flags.writeable = False
        return groups

    def match_enable_mask(self, count: int) -> np.ndarray:
        """Match-Enable mask for the first ``count`` occupied ref slots."""
        if not 0 <= count <= self.refs_per_layer:
            raise LayoutError(
                f"slot count {count} out of range [0, {self.refs_per_layer}]"
            )
        enable = np.zeros(self.row_bits, dtype=np.uint8)
        enable[self.ref_slot_columns[:count]] = 1
        return enable

    def ref_columns(self, group: int) -> List[int]:
        """Columns holding reference k-mers in ``group``, in slot order.

        Slot order is ascending column order skipping the query block —
        references are loaded sorted, so slot order equals sorted order.
        """
        self._check_group(group)
        start = group * self.refs_per_group
        return self.ref_slot_columns[start : start + self.refs_per_group].tolist()

    def ref_slot_to_column(self, slot: int) -> int:
        """Map a layer-wide reference slot index to its column."""
        if not 0 <= slot < self.refs_per_layer:
            raise LayoutError(
                f"ref slot {slot} out of range [0, {self.refs_per_layer})"
            )
        return int(self.ref_slot_columns[slot])

    def column_to_ref_slot(self, column: int) -> int:
        """Map a hit column back to its layer-wide reference slot.

        Raises for query-block and unused trailing columns.
        """
        if not 0 <= column < self.row_bits:
            raise LayoutError(f"column {column} out of range [0, {self.row_bits})")
        group = column // self.group_width
        if group >= self.num_groups:
            raise LayoutError(f"column {column} is in the unused row tail")
        local = column - self.group_base(group)
        qstart = self.query_col_offset
        if qstart <= local < qstart + self.queries_per_group:
            raise LayoutError(f"column {column} holds a query, not a reference")
        if local > qstart:
            local -= self.queries_per_group
        return group * self.refs_per_group + local

    # -- bit images ----------------------------------------------------------------

    def ref_bit_matrix(self, kmers: Sequence[int]) -> np.ndarray:
        """Region-1 image for one layer's references: (2k, row_bits) bits.

        ``kmers`` fill reference slots in order; query columns and unused
        slots stay zero.  This is the "transpose a conventional database"
        API of Section IV-C.
        """
        if len(kmers) > self.refs_per_layer:
            raise LayoutError(
                f"{len(kmers)} k-mers exceed layer capacity {self.refs_per_layer}"
            )
        matrix = np.zeros((self.kmer_rows, self.row_bits), dtype=np.uint8)
        if len(kmers):
            bits = transpose_kmers(kmers, self.k)
            matrix[:, self.ref_slot_columns[: len(kmers)]] = bits
        return matrix

    def query_block(self, bits: np.ndarray) -> np.ndarray:
        """Region-1 write image for a query batch: its ``(2k, n)``
        :func:`~repro.genomics.encoding.transpose_kmers` image zero-padded
        to ``(2k, queries_per_group)`` bits, which the load path
        replicates into every group's query block.

        Column ``s`` holds batch slot ``s``; shorter batches leave the
        remaining query columns zero (those slots are disabled at match
        time).
        """
        count = bits.shape[1]
        if count > self.queries_per_group:
            raise LayoutError(
                f"batch of {count} exceeds {self.queries_per_group} "
                f"queries per group"
            )
        block = np.zeros((self.kmer_rows, self.queries_per_group), dtype=np.uint8)
        block[:, :count] = bits
        return block

    # -- regions 2 and 3 -----------------------------------------------------------

    def offset_location(self, layer: int, slot: int) -> Tuple[int, int]:
        """(row, col_start) of the Region-2 offset entry for a ref slot."""
        if not 0 <= slot < self.refs_per_layer:
            raise LayoutError(f"ref slot {slot} out of range")
        row_in_region, entry = divmod(slot, self.offsets_per_row)
        row = self.layer_base_row(layer) + self.kmer_rows + row_in_region
        return row, entry * OFFSET_BITS

    def payload_location(self, layer: int, payload_index: int) -> Tuple[int, int]:
        """(row, col_start) of a Region-3 payload entry."""
        if not 0 <= payload_index < self.refs_per_layer:
            raise LayoutError(
                f"payload index {payload_index} out of range "
                f"[0, {self.refs_per_layer})"
            )
        row_in_region, entry = divmod(payload_index, self.payloads_per_row)
        row = (
            self.layer_base_row(layer)
            + self.kmer_rows
            + self.offset_rows
            + row_in_region
        )
        return row, entry * PAYLOAD_BITS

    # -- host-side cost hooks ----------------------------------------------------------

    @property
    def batch_write_commands(self) -> int:
        """Write commands to replace one query batch (paper Section IV-A):

        ``(# pattern groups / subarray) x (k x 2)`` — each command writes
        one prefetch-width chunk (64 bits) of one row of one group.
        """
        return self.num_groups * self.kmer_rows
