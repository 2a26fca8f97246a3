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

Two match paths exist.  :meth:`SieveSubarraySim.match_slot` replays
step 3 command by command on the last loaded batch (the reference).
:meth:`SieveSubarraySim.match_all` computes the same outcomes, counters
and final state analytically for the destinations it is given: each a
:class:`PendingMatch` of the query-block cells its loads stored, so one
pass covers every (subarray, layer) destination of a
:meth:`SieveDevice.query <repro.sieve.device.SieveDevice.query>` call.  A traced run therefore
books the whole device match, kernels aside, as the self time of
``sieve.functional.match_all``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..api import key_array
from ..dram.subarray import Subarray
from ..genomics.encoding import transpose_kmers
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

    One entry per query of every destination matched, in argument and
    load order, all matched against ``layer`` (-1 when the destinations
    span several layers).  The columns carry :class:`MatchOutcome`'s
    fields: ``payload`` and ``column`` are 0 where ``hit`` is False, and
    a hit's ``rows_activated`` includes its two Region-2/3 fetch
    activations.
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


@dataclass(frozen=True, eq=False)
class PendingMatch:
    """One destination's loaded query batches, as values.

    ``block`` holds the stored query-block cells, ``(2k, groups,
    queries)``, of the batches of up to ``queries_per_group`` loaded
    into ``layer`` of ``sim``, side by side in load order, as
    :meth:`SieveSubarraySim.load_query_batch` and
    :meth:`SieveSubarraySim.store_query_blocks` return them.  It is what
    each batch stored before any later batch overwrote it: copies under
    a fault injector, otherwise read-only broadcasts of the written
    bits, so the subarray can load other batches before a
    :meth:`SieveSubarraySim.match_all` pass matches them together with
    other destinations.  A zero-width block is an empty destination.
    """

    sim: "SieveSubarraySim"
    layer: int
    block: np.ndarray

    def __len__(self) -> int:
        return self.block.shape[2]


class _PackedLayer(NamedTuple):
    """One layer's cached match tables (:meth:`SieveSubarraySim._packed_layer`)."""

    words: np.ndarray
    group_bounds: np.ndarray
    payloads: np.ndarray
    ascending: bool


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


def _replicated(block: np.ndarray) -> bool:
    """Do all the groups of a ``(2k, groups, n)`` stored block hold the
    same replica of every query?  A block broadcast over its groups
    (what a load without a fault injector returns) does by construction,
    so only stored copies are compared."""
    return block.strides[1] == 0 or bool((block == block[:, :1]).all())


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
        #: Match-Enable masks keyed by (layer, record count); rebuilt when
        #: references are (re)loaded.
        self._enable_cache: Dict[Tuple[int, int], np.ndarray] = {}
        #: Per-layer match tables (:meth:`_packed_layer`): packed
        #: Region-1 reference words (uint64, MSB-first), group bounds,
        #: decoded hit payloads and whether the stored words ascend,
        #: built lazily from the stored cells — so load-time fault
        #: corruption is included — and invalidated with the enable
        #: cache when references are (re)loaded.  Query columns are
        #: re-packed per match (they change on every load).
        self._ref_words_cache: Dict[int, _PackedLayer] = {}
        #: ``(ids, first reference slot)`` of every ETM segment holding a
        #: reference column; a layer with fewer references uses the
        #: prefix whose first slot is below its count.
        self._segments = np.unique(
            layout.ref_slot_columns // self.etm.segment_size, return_index=True
        )
        for array in self._segments:
            array.setflags(write=False)
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

    def load_query_batch(self, queries: Sequence[int], layer: int = 0) -> np.ndarray:
        """Write ``queries`` into every group's query block of ``layer``
        as consecutive batches of up to ``queries_per_group`` (Section
        IV-A: ``layout.batch_write_commands`` prefetch-width writes per
        batch) and return the cells each batch stored.

        This is the one-destination case of :meth:`store_query_blocks`:
        every batch, the last one zero-padded, goes out in one store.
        The returned ``(2k, groups, len(queries))`` array holds each
        query's replicas as its batch stored them, so load-time fault
        corruption is included and later loads leave it unchanged; a
        :class:`PendingMatch` of such a block is what :meth:`match_all`
        matches.  :meth:`match_slot` replays the last batch.
        """
        count = len(queries)
        if not count:
            raise FunctionalError("query batch must be non-empty")
        if not 0 <= layer < self.num_layers_used:
            raise FunctionalError(
                f"layer {layer} out of range [0, {self.num_layers_used})"
            )
        layout = self.layout
        size = layout.queries_per_group
        batches = -(-count // size)
        padded = np.zeros((layout.kmer_rows, batches * size), dtype=bool)
        padded[:, :count] = transpose_kmers(queries, layout.k)
        last = queries[(batches - 1) * size :]
        last = last.tolist() if isinstance(last, np.ndarray) else list(last)
        blocks = padded.reshape(layout.kmer_rows, batches, size).transpose(1, 0, 2)
        return self.store_query_blocks([layer] * batches, blocks, last)[:, :, :count]

    def store_query_blocks(
        self, layers: Sequence[int], blocks: np.ndarray, batch: List[int]
    ) -> np.ndarray:
        """Write ``blocks[i]``, a zero-padded ``(2k, queries_per_group)``
        query block, into every group's query columns of ``layers[i]``,
        in order and all in one :meth:`Subarray.load_bit_block
        <repro.dram.subarray.Subarray.load_bit_block>` store, and make
        ``batch`` (written last, into ``layers[-1]``) the batch
        :meth:`match_slot` replays.

        This is the store of every query load: :meth:`load_query_batch`
        writes the batches of one destination, and :meth:`SieveDevice.query
        <repro.sieve.device.SieveDevice.query>` every batch of every
        destination of a call in this subarray, layer by layer.  A later
        batch into a layer overwrites the earlier one; without a fault
        injector only each layer's last batch is written.

        Returns the ``(2k, groups, len(blocks) * queries_per_group)``
        cells each block stored, side by side: column ``i *
        queries_per_group + s`` holds slot ``s`` of block ``i``.
        """
        layout = self.layout
        stored = self.array.load_bit_block(
            [layer * layout.layer_rows for layer in layers],
            layout.query_column_matrix[:, 0],
            blocks,
        )
        self._batch = batch
        self._batch_layer = int(layers[-1])
        return stored.transpose(1, 2, 0, 3).reshape(layout.kmer_rows, layout.num_groups, -1)

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

    def match_slot(self, batch_slot: int) -> MatchOutcome:
        """Match one query of the last loaded batch against its layer,
        command by command (the scalar reference of :meth:`match_all`)."""
        if not 0 <= batch_slot < len(self._batch):
            raise FunctionalError(
                f"batch slot {batch_slot} out of range [0, {len(self._batch)})"
            )
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

    def _packed_layer(self, layer: int) -> _PackedLayer:
        """Layer's packed reference words, group bounds and payloads.

        Region-1 words are packed and Region-2/3 entries decoded from
        the stored cells, so load-time fault corruption is included:
        ``payloads[slot]`` is what the Region-2 offset fetch and the
        Region-3 payload fetch return for a hit on reference ``slot``
        (the payload decoder wraps a fault-corrupted offset into the
        layer, so it still addresses *some* Region-3 slot).
        ``ascending`` says whether the stored words are one word per
        column and strictly ascending (the precondition of
        :func:`repro.sieve.kernels.segment_divergence`).  All pure
        functions of the loaded references, cached until
        :meth:`_load_references` invalidates.
        """
        cached = self._ref_words_cache.get(layer)
        if cached is not None:
            return cached
        layout = self.layout
        num_refs = len(self._layer_records[layer])
        base = layout.layer_base_row(layer)
        cells = self.array.peek_rows(0, self.array.rows)
        words = kernels.pack_bit_columns(
            cells[base : base + layout.kmer_rows, layout.ref_slot_columns[:num_refs]]
        )
        group_bounds = np.searchsorted(
            layout.column_group_index[:num_refs],
            np.arange(layout.num_groups + 1),
        )
        offset_base = base + layout.kmer_rows
        orow, oentry = np.divmod(np.arange(num_refs), layout.offsets_per_row)
        offsets = _bit_rows_to_ints(
            cells[
                (offset_base + orow)[:, None],
                (oentry * OFFSET_BITS)[:, None] + np.arange(OFFSET_BITS),
            ]
        ) % layout.refs_per_layer
        prow, pentry = np.divmod(offsets, layout.payloads_per_row)
        payloads = _bit_rows_to_ints(
            cells[
                (offset_base + layout.offset_rows + prow)[:, None],
                (pentry * PAYLOAD_BITS)[:, None] + np.arange(PAYLOAD_BITS),
            ]
        )
        # Frozen on entry: shared by every later match and by forked
        # fleet workers, so no caller may mutate them in place.
        for array in (words, group_bounds, payloads):
            array.setflags(write=False)
        ascending = words.shape[0] == 1 and bool(
            np.all(words[0, 1:] > words[0, :-1])
        )
        cached = _PackedLayer(words, group_bounds, payloads, ascending)
        self._ref_words_cache[layer] = cached
        return cached

    def match_all(self, *destinations: PendingMatch) -> MatchBatch:
        """Match every batch of the given destinations in one pass.

        Columnar equivalent of loading each batch and running
        ``[sim.match_slot(s) for s in range(len(batch))]`` on it:
        instead of replaying row activations one Python-level DRAM
        command at a time, it computes every query's per-column
        *first-divergence* row analytically from Region-1 columns and
        the query replicas each load stored, bit-packed into uint64
        words (:mod:`repro.sieve.kernels`).

        The destinations may come from any subarrays of one layout,
        several layers of one subarray included; their columns are
        returned concatenated in argument order (``layer`` is -1 when
        they span several layers).  :meth:`SieveDevice.query
        <repro.sieve.device.SieveDevice.query>` runs one such pass per
        call, so a traced run shows the whole device match under this
        method's name.  It passes its destinations in (subarray, layer)
        order, so on a device without faults their words ascend as one
        row, the kernel's cheapest search; any other order still takes
        its keyed search.

        The per-segment first-divergence maxima come from one
        sorted-neighbour :func:`~repro.sieve.kernels.segment_divergence`
        call over every destination that passes its guards — a
        single-word layout (``k <= 32``) whose stored words ascend and
        whose groups hold identical query replicas — and otherwise from
        one :func:`~repro.sieve.kernels.first_divergence` sweep per
        pattern group and batch of that destination (multi-word
        rows, or words or replicas corrupted by faults).  Everything
        observable is then synthesized for all queries at once, bit for
        bit as the scalar path produces it:

        * the :class:`MatchBatch` columns, including ``rows_activated``
          under the ETM's one-row-late interrupt semantics and the SR
          drain (``etm_flush_cycles``) from the closed-form SR recurrence;
        * each subarray's :class:`~repro.dram.subarray.SubarrayStats`
          counters (ACT/PRE pairs charged analytically, once per
          subarray);
        * each subarray's Match-Enable mask (its last destination's
          layer) and matcher / ETM state after the final query of its
          last non-empty destination — exactly as one ``match_all``
          call per destination, in argument order, leaves it.

        The work is a fixed number of array passes over the call's
        queries plus, per subarray, its enable mask, charge and final
        state; a destination adds only list entries (its table, size and
        block), and a fallback destination its own sweep.  Bit-identity
        with the scalar replay is property-test enforced
        (tests/test_kernels_properties.py,
        tests/test_batched_equivalence.py, tests/test_query_load.py).
        """
        if not destinations:
            raise FunctionalError("match_all needs at least one destination")
        layout = destinations[0].sim.layout
        total_rows = layout.kmer_rows
        layers = {d.layer for d in destinations}
        batch_layer = layers.pop() if len(layers) == 1 else -1
        # Each subarray's last destination sets its Match-Enable.
        last_of = {d.sim: d.layer for d in destinations}
        if any(sim.layout is not layout and sim.layout != layout for sim in last_of):
            raise FunctionalError("a match pass needs destinations of one layout")
        for sim, layer in last_of.items():
            sim.matchers.set_enable(sim._layer_enable(layer))
        live = [d for d in destinations if len(d)]
        if not live:
            return MatchBatch.from_outcomes(batch_layer, [])
        blocks = [d.block for d in live]
        sizes = [block.shape[2] for block in blocks]
        bounds = list(accumulate(sizes, initial=0))
        num_queries = bounds[-1]
        # Group 0's replica of every query, and whether each destination's
        # groups all hold those replicas.
        first = np.concatenate([block[:, 0] for block in blocks], axis=1)
        tables = [d.sim._packed_layer(d.layer) for d in live]
        fast = [
            table.ascending and _replicated(block)
            for table, block in zip(tables, blocks)
        ]
        num_refs = [table.words.shape[1] for table in tables]
        seg_ids, seg_starts = live[0].sim._segments
        seg_max = np.full(
            (num_queries, live[0].sim.etm.num_segments), -1, dtype=np.int64
        )
        any_hit = np.empty(num_queries, dtype=bool)
        first_hit = np.empty(num_queries, dtype=np.int64)
        last_div = np.empty(num_queries, dtype=np.int64)

        # Sorted-neighbour fast path: both guards read stored cells, so it
        # is exact for whatever the cells hold — (a) the layer's words
        # ascend (cached per layer) and (b) every group holds the same
        # replica of each query, so group 0's replica is the only one to
        # pack.  A destination of a layer with fewer references covers a
        # prefix of the layer's segments (the reference columns ascend).
        runs = [i for i, ok in enumerate(fast) if ok]
        if runs:
            # Run r's queries, in run order: those of destination runs[r].
            counts = [sizes[i] for i in runs]
            query_edges = list(accumulate(counts, initial=0))
            sel = np.arange(query_edges[-1]) + np.repeat(
                [bounds[i] - lo for i, lo in zip(runs, query_edges)], counts
            )
            seg_div, hit_slot, hit = kernels.segment_divergence(
                np.concatenate([tables[i].words[0] for i in runs]),
                kernels.pack_bit_columns(first[:, sel])[0],
                total_rows,
                seg_starts,
                runs=(list(accumulate([num_refs[i] for i in runs], initial=0)), query_edges),
            )
            seg_max[sel[:, None], seg_ids] = seg_div
            last_div[sel] = seg_div.max(axis=1)
            first_hit[sel] = hit_slot
            any_hit[sel] = hit
        # Anything else runs the general per-group sweep, one batch of up
        # to ``queries_per_group`` queries at a time so no (queries x refs)
        # matrix spans a whole destination.
        fallback_latches: Dict[int, np.ndarray] = {}
        size = layout.queries_per_group
        for i in (i for i, ok in enumerate(fast) if not ok):
            table = tables[i]
            used = int(np.searchsorted(seg_starts, num_refs[i]))
            for lo in range(0, sizes[i], size):
                block = blocks[i][:, :, lo : lo + size]
                start = bounds[i] + lo
                stop = start + block.shape[2]
                qwords = kernels.pack_bit_columns(
                    block.reshape(total_rows, -1)
                ).reshape(-1, layout.num_groups, block.shape[2])
                div = np.empty((block.shape[2], num_refs[i]), dtype=np.int64)
                for g in range(layout.num_groups):
                    lo, hi = int(table.group_bounds[g]), int(table.group_bounds[g + 1])
                    if lo == hi:
                        continue
                    div[:, lo:hi] = kernels.first_divergence(
                        table.words[:, lo:hi], qwords[:, g], total_rows
                    )
                hit_matrix = div == total_rows
                any_hit[start:stop] = hit_matrix.any(axis=1)
                first_hit[start:stop] = hit_matrix.argmax(axis=1)
                last_div[start:stop] = div.max(axis=1)
                seg_max[start:stop, seg_ids[:used]] = np.maximum.reduceat(
                    div, seg_starts[:used], axis=1
                )
            fallback_latches[i] = layout.ref_slot_columns[: num_refs[i]][hit_matrix[-1]]

        # Outcome synthesis for every query: the scalar path's ETM and SR
        # closed forms.  A query compares rows up to the one after its last
        # divergence (every row, for a hit); stopping short of the last row
        # means the ETM interrupted it, one row late.  A hit adds its two
        # Region-2/3 fetches.
        compares = np.minimum(last_div + 1, total_rows)
        if not all(d.sim.etm_enabled for d in live):
            etm_on = np.repeat([d.sim.etm_enabled for d in live], sizes)
            compares = np.where(etm_on, compares, total_rows)
        early = compares < total_rows
        rows_activated = compares + early + 2 * any_hit
        # The SR chain after each query's last compared row: a hit's drain
        # (it compared every row) counts from the lowest live SR stage.
        num_segments = seg_max.shape[1]
        live_sr = _sr_live(seg_max, compares[:, None])
        flush = np.where(
            any_hit & live_sr.any(axis=1), num_segments - live_sr.argmax(axis=1), 0
        )

        # Region-2/3 fetches for every hit read the per-layer payload table
        # decoded from the stored cells; the two ACT/PRE pairs are in
        # rows_activated.  The Column Finder takes the first live latch
        # (strict=False): the lowest hit column, since columns ascend.
        columns = np.where(any_hit, layout.ref_slot_columns[first_hit], 0)
        payloads = np.zeros(num_queries, dtype=np.int64)
        hit_pos = np.flatnonzero(any_hit)
        if hit_pos.size:
            table_base = np.repeat(list(accumulate(num_refs[:-1], initial=0)), sizes)
            payloads[hit_pos] = np.concatenate([table.payloads for table in tables])[
                table_base[hit_pos] + first_hit[hit_pos]
            ]

        # Per subarray: the ACT/PRE pairs of all its destinations, and the
        # matcher / ETM state after its last query, exactly as a scalar
        # replay leaves them.
        charges = dict.fromkeys(last_of, 0)
        for d, charge in zip(live, np.add.reduceat(rows_activated, bounds[:-1]).tolist()):
            charges[d.sim] += charge
        final = {d.sim: i for i, d in enumerate(live)}
        ends = np.array([bounds[i + 1] - 1 for i in final.values()])
        steps = compares[ends]
        segment_or = (seg_max[ends] >= steps[:, None]).astype(np.uint8)
        sr = live_sr[ends].astype(np.uint8)
        latches = np.zeros((ends.size, layout.row_bits), dtype=np.uint8)
        won = np.flatnonzero(any_hit[ends])
        latches[won, layout.ref_slot_columns[first_hit[ends[won]]]] = 1
        for j, i in enumerate(final.values()):
            if i in fallback_latches:
                latches[j] = 0
                latches[j, fallback_latches[i]] = 1
        for sim, latch, seg, chain, step in zip(
            final, latches, segment_or, sr, steps.tolist()
        ):
            sim.array.charge_untimed_accesses(charges[sim])
            sim.matchers.load_state(latch, step)
            sim.etm.load_state(seg, chain, step)
        return MatchBatch(
            layer=batch_layer,
            hit=any_hit,
            payload=payloads,
            column=columns,
            rows_activated=rows_activated,
            etm_flush_cycles=flush,
            terminated_early=early,
        )
