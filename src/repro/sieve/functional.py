"""Bit-accurate functional simulator of one Sieve subarray (Type-2/3).

This model executes the paper's k-mer matching walkthrough
(Section IV-A) literally, on top of the behavioral DRAM array:

1. reference k-mers are transposed onto bitlines (Region 1 of each
   layer), offsets and payloads installed row-major in Regions 2/3;
2. a query batch is written into the query columns of every pattern
   group of the destination layer;
3. per query, that layer's Region-1 rows are activated one at a time;
   matchers fold XNOR results into their latches; the ETM steps once per
   row cycle and interrupts activation (one row late — the interrupt
   races the next ACT) once every candidate has died;
4. on a hit, the ETM pipeline flushes, the Column Finder locates the hit
   column, and the offset + payload are fetched with two more row
   activations.

Everything the trace-driven performance model needs (rows activated,
flush cycles, CF cycles, write commands) falls out of this simulation,
and the test suite checks the outcomes against a plain
:class:`~repro.genomics.database.KmerDatabase`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api import key_array
from ..dram.subarray import Subarray
from . import kernels
from .column_finder import ColumnFinder, ColumnFindResult
from .etm import EtmPipeline
from .layout import OFFSET_BITS, PAYLOAD_BITS, LayoutError, SubarrayLayout
from .matcher import MatcherArray


class FunctionalError(RuntimeError):
    """Raised on protocol errors in the functional simulator."""


@dataclass(frozen=True)
class MatchOutcome:
    """Result of matching one query k-mer in one subarray."""

    query: int
    hit: bool
    payload: Optional[int]
    column: Optional[int]
    layer: int
    rows_activated: int
    etm_flush_cycles: int
    cf: Optional[ColumnFindResult]
    etm_terminated_early: bool


@dataclass(frozen=True, eq=False)
class MatchBatch:
    """Columnar result of one :meth:`SieveSubarraySim.match_all` pass.

    One entry per query of every batch loaded since the previous
    ``match_all()``, in load order, all matched against ``layer``.  The
    columns carry :class:`MatchOutcome`'s fields: ``payload`` and
    ``column`` are 0 where ``hit`` is False, and a hit's
    ``rows_activated`` includes its two Region-2/3 fetch activations.
    """

    layer: int
    hit: np.ndarray
    payload: np.ndarray
    column: np.ndarray
    rows_activated: np.ndarray
    etm_flush_cycles: np.ndarray
    terminated_early: np.ndarray

    def __len__(self) -> int:
        return int(self.hit.size)

    @classmethod
    def from_outcomes(
        cls, layer: int, outcomes: Sequence[MatchOutcome]
    ) -> "MatchBatch":
        """Columns of scalar :meth:`SieveSubarraySim.match_slot` outcomes."""
        return cls(
            layer=layer,
            hit=np.array([o.hit for o in outcomes], dtype=bool),
            payload=np.array([o.payload or 0 for o in outcomes], dtype=np.int64),
            column=np.array([o.column or 0 for o in outcomes], dtype=np.int64),
            rows_activated=np.array(
                [o.rows_activated for o in outcomes], dtype=np.int64
            ),
            etm_flush_cycles=np.array(
                [o.etm_flush_cycles for o in outcomes], dtype=np.int64
            ),
            terminated_early=np.array(
                [o.etm_terminated_early for o in outcomes], dtype=bool
            ),
        )


def _int_to_bits(value: int, width: int) -> np.ndarray:
    """MSB-first bit vector of ``value`` (vectorized via unpackbits)."""
    if value < 0 or value >= (1 << width):
        raise FunctionalError(f"value {value} does not fit in {width} bits")
    num_bytes = -(-width // 8)
    raw = np.frombuffer(value.to_bytes(num_bytes, "big"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="big")[8 * num_bytes - width :]


def _ints_to_bit_rows(values: Sequence[int], width: int) -> np.ndarray:
    """Row-wise :func:`_int_to_bits`: ``(N, width)`` MSB-first bit rows.

    One ``unpackbits`` over every entry of a Region-2/3 image; ``width``
    must be 8, 16, 32 or 64 bits.
    """
    if width not in (8, 16, 32, 64):
        raise FunctionalError(f"entry width must be 8/16/32/64 bits, got {width}")
    if len(values):
        low, high = min(values), max(values)
        if low < 0 or high >= 1 << width:
            bad = low if low < 0 else high
            raise FunctionalError(f"value {bad} does not fit in {width} bits")
    raw = np.array(values, dtype=f">u{width // 8}")
    return np.unpackbits(raw.view(np.uint8)).reshape(len(values), width)


def _bits_to_int(bits: np.ndarray) -> int:
    """Integer from an MSB-first bit vector (vectorized via packbits)."""
    bits = np.asarray(bits, dtype=np.uint8)
    pad = (-bits.size) % 8
    if pad:
        bits = np.concatenate([np.zeros(pad, dtype=np.uint8), bits])
    return int.from_bytes(np.packbits(bits, bitorder="big").tobytes(), "big")


def _bit_rows_to_ints(bits: np.ndarray) -> np.ndarray:
    """Row-wise :func:`_bits_to_int` over an ``(N, width)`` bit matrix.

    ``width`` must be a multiple of 8 (Region-2/3 entries are 32 bits).
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape[1] % 8:
        raise FunctionalError(
            f"row width must be a multiple of 8, got {bits.shape[1]}"
        )
    packed = np.packbits(bits, axis=1, bitorder="big").astype(np.int64)
    values = np.zeros(bits.shape[0], dtype=np.int64)
    for byte in range(packed.shape[1]):
        values = (values << 8) | packed[:, byte]
    return values


def _sr_live(seg_max: np.ndarray, steps: int) -> np.ndarray:
    """SR chain contents after ``steps`` pipeline steps (closed form).

    Unrolling ``SR[i](t) = seg_or[i](t) | SR[i-1](t-1)`` with
    ``SR[*](0) = 1`` and ``seg_or[g](t) = (seg_max[g] >= t)`` gives
    ``SR[i](t) = 1`` iff ``i >= t`` (the preset 1 has not drained) or
    some ``g <= i`` had segment ``g`` still live at step ``t - (i - g)``,
    i.e. ``max_{g<=i}(seg_max[g] - g) >= t - i``.  Works along the last
    axis, so one call covers a whole batch of ``seg_max`` rows.
    """
    seg_idx = np.arange(seg_max.shape[-1], dtype=np.int64)
    prefix = np.maximum.accumulate(seg_max - seg_idx, axis=-1)
    return (prefix >= steps - seg_idx) | (seg_idx >= steps)


class SieveSubarraySim:
    """One Sieve-enhanced subarray, loaded with sorted reference records.

    Records fill layers in sorted order; the subarray controller keeps
    each layer's first k-mer so it can select the destination layer for
    a routed query (the host index is subarray-granular).
    """

    def __init__(
        self,
        layout: SubarrayLayout,
        records: Sequence[Tuple[int, int]],
        etm_enabled: bool = True,
    ) -> None:
        if len(records) > layout.refs_per_subarray:
            raise LayoutError(
                f"{len(records)} records exceed capacity {layout.refs_per_subarray}"
            )
        for (a, _), (b, _) in zip(records, records[1:]):
            if b <= a:
                raise FunctionalError("records must be sorted by k-mer, unique")
        self.layout = layout
        self.etm_enabled = etm_enabled
        self.records = list(records)
        self.array = Subarray(layout.rows_per_subarray, layout.row_bits)
        self.matchers = MatcherArray(layout.row_bits)
        self.etm = EtmPipeline(layout.row_bits)
        self.finder = ColumnFinder(self.etm)
        self._batch: List[int] = []
        self._batch_layer = 0
        #: Query-block cells of every batch loaded since the last
        #: :meth:`match_all`, each ``(2k, groups, batch size)`` and read
        #: right after its load, so load-time fault corruption is kept.
        self._pending: List[np.ndarray] = []
        self.batch_loads = 0
        self.write_commands = 0
        #: Match-Enable masks keyed by (layer, record count); rebuilt when
        #: references are (re)loaded.
        self._enable_cache: Dict[Tuple[int, int], np.ndarray] = {}
        #: Packed Region-1 reference words per layer (uint64, MSB-first)
        #: plus group/segment boundary arrays and whether the stored
        #: words ascend, built lazily from the stored cells — so
        #: load-time fault corruption is packed in — and invalidated
        #: with the enable cache when references are (re)loaded.  Query
        #: columns are re-packed per batch (they change on every load).
        self._ref_words_cache: Dict[int, Tuple] = {}
        # Layer occupancy and first-kmer table (subarray controller state).
        per_layer = layout.refs_per_layer
        self._layer_records: List[List[Tuple[int, int]]] = [
            self.records[i : i + per_layer]
            for i in range(0, len(self.records), per_layer)
        ]
        self._layer_firsts = key_array(
            [chunk[0][0] for chunk in self._layer_records]
        )
        self._load_references()

    @property
    def num_layers_used(self) -> int:
        return len(self._layer_records)

    # -- load paths ---------------------------------------------------------

    def _load_references(self) -> None:
        layout = self.layout
        self._enable_cache.clear()
        self._ref_words_cache.clear()
        for layer, chunk in enumerate(self._layer_records):
            kmers = [k for k, _ in chunk]
            ref_matrix = layout.ref_bit_matrix(kmers)
            base = layout.layer_base_row(layer)
            for bit in range(layout.kmer_rows):
                self.array.load_row(base + bit, ref_matrix[bit])
            # Region 2: offset of each slot's payload (identity mapping
            # here, but fetched through the array like the real device).
            # Regions 2 and 3 are row-major, so each is one block store.
            offset_row = base + layout.kmer_rows
            self.array.load_entries(
                offset_row, _ints_to_bit_rows(range(len(chunk)), OFFSET_BITS)
            )
            # Region 3: payloads.
            self.array.load_entries(
                offset_row + layout.offset_rows,
                _ints_to_bit_rows([p for _, p in chunk], PAYLOAD_BITS),
            )

    def route_layer(self, kmer: int) -> int:
        """Layer whose sorted range should contain ``kmer``."""
        return int(self.route_layers(key_array([kmer]))[0])

    def route_layers(self, kmers: np.ndarray) -> np.ndarray:
        """:meth:`route_layer` of every k-mer in a :func:`key_array`."""
        pos = np.searchsorted(self._layer_firsts, kmers, side="right") - 1
        return np.maximum(pos, 0)

    def load_query_batch(self, queries: Sequence[int], layer: int = 0) -> int:
        """Write a batch into every group's query block of ``layer``;
        returns the number of prefetch-width write commands charged
        (Section IV-A: groups x 2k).

        The batch joins the ones :meth:`match_all` will match next; they
        must all target one layer.
        """
        if not queries:
            raise FunctionalError("query batch must be non-empty")
        if not 0 <= layer < self.num_layers_used:
            raise FunctionalError(
                f"layer {layer} out of range [0, {self.num_layers_used})"
            )
        if self._pending and layer != self._batch_layer:
            raise FunctionalError(
                f"batches for layer {self._batch_layer} are pending; "
                f"match_all() before loading layer {layer}"
            )
        layout = self.layout
        base = layout.layer_base_row(layer)
        # Every group holds its own replica of the same block.
        self.array.load_bit_block(
            base,
            layout.query_column_matrix[:, 0],
            layout.query_block_bits(list(queries)),
        )
        # Copy the cells as stored (faults included) before a later load
        # overwrites them: group g's slot s sits at column
        # g * group_width + query_col_offset + s.
        start = layout.query_col_offset
        groups = self.array.peek_rows(base, base + layout.kmer_rows)[
            :, : layout.num_groups * layout.group_width
        ].reshape(layout.kmer_rows, layout.num_groups, layout.group_width)
        self._pending.append(groups[:, :, start : start + len(queries)].copy())
        self._batch = list(queries)
        self._batch_layer = layer
        self.batch_loads += 1
        commands = layout.batch_write_commands
        self.write_commands += commands
        return commands

    def _layer_enable(self, layer: int) -> np.ndarray:
        """Match-Enable mask: only occupied reference columns of a layer.

        The mask is a pure function of (layer, record count), so it is
        cached and only rebuilt when the layer's references change
        (:meth:`_load_references` invalidates the cache).
        """
        key = (layer, len(self._layer_records[layer]))
        mask = self._enable_cache.get(key)
        if mask is None:
            mask = self.layout.match_enable_mask(key[1])
            # Frozen on entry: the cached mask is shared by every later
            # match (and by forked fleet workers), so no caller may
            # mutate it in place.
            mask.setflags(write=False)
            self._enable_cache[key] = mask
        return mask

    # -- matching ------------------------------------------------------------

    def discard_pending(self) -> None:
        """Drop the batches queued for :meth:`match_all`.

        For callers that replay the loaded block command by command
        instead (:meth:`match_slot`, the Type-2 compute-buffer relay), so
        nothing accumulates on the scalar paths.
        """
        self._pending = []

    def match_slot(self, batch_slot: int) -> MatchOutcome:
        """Match one query of the last loaded batch against its layer,
        command by command (the scalar reference of :meth:`match_all`)."""
        if not 0 <= batch_slot < len(self._batch):
            raise FunctionalError(
                f"batch slot {batch_slot} out of range [0, {len(self._batch)})"
            )
        self.discard_pending()
        layout = self.layout
        layer = self._batch_layer
        query = self._batch[batch_slot]
        self.matchers.set_enable(self._layer_enable(layer))
        self.matchers.reset()
        self.etm.reset()
        rows_activated = 0
        terminated_early = False
        total_rows = layout.kmer_rows
        base = layout.layer_base_row(layer)
        bit = 0
        while bit < total_rows:
            bits = self.array.activate(base + bit)
            qvec = self._query_vector(bits, batch_slot)
            self.matchers.compare_per_column(bits, qvec)
            self.array.precharge()
            rows_activated += 1
            self.etm.step(self.matchers.latches)
            if self.etm_enabled and self.etm.terminated and bit < total_rows - 1:
                # The interrupt races the already-issued next activation:
                # one more row opens before activation stops.
                self.array.activate(base + bit + 1)
                self.array.precharge()
                rows_activated += 1
                terminated_early = True
                break
            bit += 1
        if self.matchers.any_match():
            return self._retrieve(query, layer, rows_activated)
        return MatchOutcome(
            query=query,
            hit=False,
            payload=None,
            column=None,
            layer=layer,
            rows_activated=rows_activated,
            etm_flush_cycles=0,
            cf=None,
            etm_terminated_early=terminated_early,
        )

    def match_query(self, query: int) -> MatchOutcome:
        """Convenience: route, load a single-query batch, match it."""
        layer = self.route_layer(query)
        self.load_query_batch([query], layer)
        return self.match_slot(0)

    def _query_vector(self, row_bits: np.ndarray, batch_slot: int) -> np.ndarray:
        """Per-column query bit: each group broadcasts its own replica of
        the selected query's current bit on its shared bus."""
        layout = self.layout
        qvec = np.zeros(layout.row_bits, dtype=np.uint8)
        for g in range(layout.num_groups):
            qcol = layout.query_columns(g)[batch_slot]
            base = layout.group_base(g)
            qvec[base : base + layout.group_width] = row_bits[qcol]
        return qvec

    def _retrieve(self, query: int, layer: int, rows_activated: int) -> MatchOutcome:
        """Hit path: ETM flush, Column Finder, offset + payload fetch."""
        flush = self.etm.flush_cycles_after_last_row()
        # strict=False: the shifter takes the first live latch; duplicate
        # latches only arise under fault injection.
        cf = self.finder.find(np.asarray(self.matchers.latches), strict=False)
        payload = self._fetch_record(layer, cf)
        return MatchOutcome(
            query=query,
            hit=True,
            payload=payload,
            column=cf.column,
            layer=layer,
            rows_activated=rows_activated + 2,
            etm_flush_cycles=flush,
            cf=cf,
            etm_terminated_early=False,
        )

    def _fetch_record(self, layer: int, cf: ColumnFindResult) -> int:
        """Region-2/3 fetch for a located hit column; returns the payload."""
        layout = self.layout
        slot = layout.column_to_ref_slot(cf.column)
        # Region 2: fetch the payload offset.
        orow, ocol = layout.offset_location(layer, slot)
        bits = self.array.activate(orow)
        offset = _bits_to_int(bits[ocol : ocol + OFFSET_BITS])
        self.array.precharge()
        return self._fetch_payload(layer, offset)

    def _fetch_payload(self, layer: int, offset: int) -> int:
        layout = self.layout
        # The payload decoder wraps: with pristine cells the offset is
        # always in range, but a fault-corrupted Region-2 word must still
        # address *some* Region-3 slot rather than fall off the layer.
        offset %= layout.refs_per_layer
        # Region 3: fetch the payload at that offset.
        prow, pcol = layout.payload_location(layer, offset)
        bits = self.array.activate(prow)
        payload = _bits_to_int(bits[pcol : pcol + PAYLOAD_BITS])
        self.array.precharge()
        return payload

    # -- batched matching -----------------------------------------------------

    def _packed_layer(
        self, layer: int, region1: np.ndarray, enable_cols: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
        """Layer's packed reference words + group/segment boundaries.

        Returns ``(ref_words, group_bounds, seg_ids, seg_starts,
        ascending)``: the occupied Region-1 columns as uint64 words
        (packed from the stored cells, so load-time fault corruption is
        included), the per-group slot boundaries, the reduceat
        boundaries of the occupied ETM segments, and whether the stored
        words are one word per column and strictly ascending (the
        precondition of :func:`repro.sieve.kernels.segment_divergence`).
        All pure functions of the loaded references, cached until
        :meth:`_load_references` invalidates.
        """
        cached = self._ref_words_cache.get(layer)
        if cached is None:
            words = kernels.pack_bit_columns(region1[:, enable_cols])
            group_bounds = np.searchsorted(
                self.layout.column_group_index[: enable_cols.size],
                np.arange(self.layout.num_groups + 1),
            )
            seg_ids, seg_starts = np.unique(
                enable_cols // self.etm.segment_size, return_index=True
            )
            # Frozen on entry: shared by every later match and by forked
            # fleet workers, so no caller may mutate them in place.
            for array in (words, group_bounds, seg_ids, seg_starts):
                array.setflags(write=False)
            ascending = words.shape[0] == 1 and bool(
                np.all(words[0, 1:] > words[0, :-1])
            )
            cached = (words, group_bounds, seg_ids, seg_starts, ascending)
            self._ref_words_cache[layer] = cached
        return cached

    def match_all(self) -> MatchBatch:
        """Match every batch loaded since the last call in one pass.

        Columnar equivalent of loading each batch and running
        ``[self.match_slot(s) for s in range(len(batch))]`` on it:
        instead of replaying row activations one Python-level DRAM
        command at a time, it computes every query's per-column
        *first-divergence* row analytically from Region-1 columns and
        the query replicas each load stored, bit-packed into uint64
        words (:mod:`repro.sieve.kernels`).  The per-segment
        first-divergence maxima of all pending queries come from one
        sorted-neighbour :func:`~repro.sieve.kernels.segment_divergence`
        call when the stored cells allow it — a single-word layout
        (``k <= 32``) whose stored words ascend and whose groups hold
        identical query replicas — and otherwise from one
        :func:`~repro.sieve.kernels.first_divergence` sweep per pattern
        group and loaded batch (multi-word rows, or words or replicas
        corrupted by faults).  Everything observable is then
        synthesized for all pending queries at once, bit for bit as the
        scalar path produces it:

        * the :class:`MatchBatch` columns, including ``rows_activated``
          under the ETM's one-row-late interrupt semantics and the SR
          drain (``etm_flush_cycles``) from the closed-form SR recurrence;
        * :class:`~repro.dram.subarray.SubarrayStats` counters (ACT/PRE
          pairs charged analytically);
        * matcher / ETM pipeline state after the final query of the
          final batch.

        Bit-identity with the scalar replay is property-test enforced
        (tests/test_kernels_properties.py, tests/test_batched_equivalence.py).
        """
        layout = self.layout
        layer = self._batch_layer
        self.matchers.set_enable(self._layer_enable(layer))
        pending, self._pending = self._pending, []
        if not pending:
            return MatchBatch.from_outcomes(layer, [])
        num_refs = len(self._layer_records[layer])
        total_rows = layout.kmer_rows
        base = layout.layer_base_row(layer)
        region1 = self.array.peek_rows(base, base + total_rows)
        enable_cols = layout.ref_slot_columns[:num_refs]

        # Reference words are packed once per layer; each group's query
        # replica was saved separately at load (each group broadcasts its
        # own — possibly fault-corrupted — replica).
        ref_words, group_bounds, seg_ids, seg_starts, ascending = (
            self._packed_layer(layer, region1, enable_cols)
        )
        qbits = pending[0] if len(pending) == 1 else np.concatenate(pending, axis=2)
        num_queries = qbits.shape[2]
        seg_max = np.full(
            (num_queries, self.etm.num_segments), -1, dtype=np.int64
        )
        # Sorted-neighbour fast path: both guards read stored cells, so
        # it is exact for whatever the cells hold — (a) the layer's
        # words ascend (cached per layer) and (b) every group broadcasts
        # the same replica of each query, so group 0's replica is the
        # only one to pack.  Anything else (multi-word rows,
        # fault-corrupted order or replicas) runs the general per-group
        # sweep, one loaded batch at a time so no (queries x refs)
        # matrix spans the whole destination.
        if ascending and bool(np.all(qbits == qbits[:, :1])):
            query_words = kernels.pack_bit_columns(qbits[:, 0])
            seg_div, first_hit, any_hit = kernels.segment_divergence(
                ref_words[0], query_words[0], total_rows, seg_starts
            )
            seg_max[:, seg_ids] = seg_div
            last_div = seg_div.max(axis=1)
            last_hits = np.arange(num_refs) == first_hit[num_queries - 1]
        else:
            any_hit = np.empty(num_queries, dtype=bool)
            first_hit = np.empty(num_queries, dtype=np.int64)
            last_div = np.empty(num_queries, dtype=np.int64)
            stop = 0
            for block in pending:
                start, stop = stop, stop + block.shape[2]
                qwords = kernels.pack_bit_columns(
                    block.reshape(total_rows, -1)
                ).reshape(-1, layout.num_groups, block.shape[2])
                div = np.empty((block.shape[2], num_refs), dtype=np.int64)
                for g in range(layout.num_groups):
                    lo, hi = int(group_bounds[g]), int(group_bounds[g + 1])
                    if lo == hi:
                        continue
                    div[:, lo:hi] = kernels.first_divergence(
                        ref_words[:, lo:hi], qwords[:, g], total_rows
                    )
                hit_matrix = div == total_rows
                any_hit[start:stop] = hit_matrix.any(axis=1)
                first_hit[start:stop] = hit_matrix.argmax(axis=1)
                last_div[start:stop] = div.max(axis=1)
                seg_max[start:stop, seg_ids] = np.maximum.reduceat(
                    div, seg_starts, axis=1
                )
            last_hits = hit_matrix[-1]

        # Outcome synthesis for every pending query: the scalar path's
        # ETM and SR closed forms.
        if self.etm_enabled:
            early = ~any_hit & (last_div <= total_rows - 2)
        else:
            early = np.zeros(num_queries, dtype=bool)
        compares = np.where(
            any_hit | ~early, total_rows, last_div + 1
        )
        rows_act = np.where(early, last_div + 2, total_rows)
        self.array.charge_untimed_accesses(int(rows_act.sum()))

        # SR drain after the final row (hits consult it): the drain
        # length counts from the lowest live SR stage.
        live = _sr_live(seg_max, total_rows)
        flush = np.where(
            any_hit & live.any(axis=1),
            self.etm.num_segments - live.argmax(axis=1),
            0,
        )

        # Region-2/3 fetches for every hit: peek the stored cells
        # (activation copies them to the row buffer unchanged) and
        # charge the two ACT/PRE pairs analytically.  The Column Finder
        # takes the first live latch (strict=False), which is the lowest
        # hit column since enable_cols ascend.
        hit_pos = np.flatnonzero(any_hit)
        payloads = np.zeros(num_queries, dtype=np.int64)
        columns = np.zeros(num_queries, dtype=np.int64)
        if hit_pos.size:
            cols = enable_cols[first_hit[hit_pos]].astype(np.int64)
            columns[hit_pos] = cols
            group = cols // layout.group_width
            local = cols - group * layout.group_width
            qstart = layout.query_col_offset
            local = np.where(
                local > qstart, local - layout.queries_per_group, local
            )
            ref_slot = group * layout.refs_per_group + local
            full = self.array.peek_rows(0, self.array.rows)
            orow_in, oentry = np.divmod(ref_slot, layout.offsets_per_row)
            obits = full[
                (base + total_rows + orow_in)[:, None],
                (oentry * OFFSET_BITS)[:, None] + np.arange(OFFSET_BITS),
            ]
            # The payload decoder wraps (fault-corrupted Region-2 words
            # must still address some Region-3 slot).
            offsets = _bit_rows_to_ints(obits) % layout.refs_per_layer
            prow_in, pentry = np.divmod(offsets, layout.payloads_per_row)
            pbits = full[
                (base + total_rows + layout.offset_rows + prow_in)[:, None],
                (pentry * PAYLOAD_BITS)[:, None] + np.arange(PAYLOAD_BITS),
            ]
            payloads[hit_pos] = _bit_rows_to_ints(pbits)
            self.array.charge_untimed_accesses(2 * hit_pos.size)

        # Matcher/ETM state after the last query, exactly as a scalar
        # replay leaves it.
        last = num_queries - 1
        steps = int(compares[last])
        latches = np.zeros(layout.row_bits, dtype=np.uint8)
        if any_hit[last]:
            latches[enable_cols[last_hits]] = 1
        self.matchers.load_state(latches, steps)
        self.etm.load_state(
            (seg_max[last] >= steps).astype(np.uint8),
            _sr_live(seg_max[last], steps).astype(np.uint8),
            steps,
        )
        return MatchBatch(
            layer=layer,
            hit=any_hit,
            payload=payloads,
            column=columns,
            rows_activated=rows_act + 2 * any_hit,
            etm_flush_cycles=flush,
            terminated_early=early,
        )
