"""Bit-accurate functional simulator of a Sieve Type-2 subarray group
(paper Section IV-A, Figure 11).

Type-2 shares Type-3's data layout, matchers, ETM, and Column Finder,
but the logic lives in one *compute buffer* per subarray group instead
of in every local row buffer.  Matching a query whose references live in
subarray ``s`` therefore relays every activated row down the group —
LISA-style charge-sharing hops across the isolation transistors between
adjacent subarrays — until it reaches the compute buffer at the bottom.

The simulator executes the relay literally (the row image moves through
each intermediate subarray's sense amplifiers, two active at a time) and
counts hops, which is the quantity the analytic
:class:`~repro.sieve.perfmodel.Type2Model` charges per activation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .column_finder import ColumnFinder
from .etm import EtmPipeline
from .functional import MatchOutcome, SieveSubarraySim, _bits_to_int
from .layout import OFFSET_BITS, PAYLOAD_BITS, SubarrayLayout
from .matcher import MatcherArray


class Type2Error(RuntimeError):
    """Raised on protocol errors in the Type-2 simulator."""


@dataclass(frozen=True)
class Type2Outcome:
    """A Type-2 match outcome: Type-3 semantics plus relay accounting."""

    base: MatchOutcome
    source_subarray: int
    hops_per_row: int
    total_hops: int


class Type2GroupSim:
    """A subarray group: member subarrays + one compute buffer.

    Member subarrays are plain (un-enhanced) Sieve-layout subarrays;
    the compute buffer at index ``size`` (below the last member) holds
    the matcher array, ETM, and Column Finder.
    """

    def __init__(
        self,
        layout: SubarrayLayout,
        member_records: Sequence[Sequence[Tuple[int, int]]],
        etm_enabled: bool = True,
    ) -> None:
        if not member_records:
            raise Type2Error("group needs at least one member subarray")
        self.layout = layout
        self.etm_enabled = etm_enabled
        # Reuse the Type-3 functional subarray for storage + layout; its
        # local matchers stay unused (Type-2 members have plain buffers).
        self.members: List[SieveSubarraySim] = [
            SieveSubarraySim(layout, records, etm_enabled=etm_enabled)
            for records in member_records
        ]
        # Compute buffer: matcher + ETM + CF, no storage of its own.
        self.cb_matchers = MatcherArray(layout.row_bits)
        self.cb_etm = EtmPipeline(layout.row_bits)
        self.cb_finder = ColumnFinder(self.cb_etm)
        # Relay chain state: intermediate sense-amp stages, one per
        # member between the source and the buffer.
        self.total_hops = 0

    @property
    def size(self) -> int:
        return len(self.members)

    def hops_from(self, member_index: int) -> int:
        """Subarray crossings from member ``member_index`` to the CB.

        The compute buffer sits below the last member; the bottom member
        is one hop away (its bitlines charge-share into the CB), the top
        member ``size`` hops.
        """
        if not 0 <= member_index < self.size:
            raise Type2Error(f"member {member_index} out of range [0, {self.size})")
        return self.size - member_index

    def _relay_row(self, member_index: int, row_bits: np.ndarray) -> np.ndarray:
        """Relay an activated row down to the compute buffer.

        Each hop re-amplifies the image in the next subarray's sense
        amplifiers (Figure 11: only two sets active at a time); the
        functional content is unchanged — the SPICE validation's claim —
        so the relay is a sequence of faithful copies.
        """
        image = row_bits.copy()
        hops = self.hops_from(member_index)
        for _ in range(hops):
            image = image.copy()  # next stage's sense amps latch it
        self.total_hops += hops
        return image

    def route_member(self, kmer: int) -> int:
        """Which member subarray's sorted range should hold ``kmer``."""
        for idx, member in enumerate(self.members):
            first = member.records[0][0]
            last = member.records[-1][0]
            if first <= kmer <= last:
                return idx
        # Guaranteed miss: route to the nearest range (the device-level
        # index would normally have filtered this).
        return min(
            range(self.size),
            key=lambda i: min(
                abs(kmer - self.members[i].records[0][0]),
                abs(kmer - self.members[i].records[-1][0]),
            ),
        )

    def match_query(self, query: int) -> Type2Outcome:
        """Match one query: activate rows in the source subarray, relay
        each to the compute buffer, compare there."""
        member_index = self.route_member(query)
        member = self.members[member_index]
        layout = self.layout
        layer = member.route_layer(query)
        member.load_query_batch([query], layer)
        self.cb_matchers.set_enable(member._layer_enable(layer))
        self.cb_matchers.reset()
        self.cb_etm.reset()
        hops_per_row = self.hops_from(member_index)
        base_row = layout.layer_base_row(layer)
        rows_activated = 0
        terminated_early = False
        total_rows = layout.kmer_rows
        bit = 0
        while bit < total_rows:
            row = member.array.activate(base_row + bit)
            image = self._relay_row(member_index, np.asarray(row))
            member.array.precharge()
            qvec = self._query_vector(image, 0)
            self.cb_matchers.compare_per_column(image, qvec)
            rows_activated += 1
            self.cb_etm.step(self.cb_matchers.latches)
            if self.etm_enabled and self.cb_etm.terminated and bit < total_rows - 1:
                member.array.activate(base_row + bit + 1)
                member.array.precharge()
                self.total_hops += hops_per_row
                rows_activated += 1
                terminated_early = True
                break
            bit += 1
        if self.cb_matchers.any_match():
            outcome = self._retrieve(member, layer, query, rows_activated, hops_per_row)
        else:
            outcome = MatchOutcome(
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
        return Type2Outcome(
            base=outcome,
            source_subarray=member_index,
            hops_per_row=hops_per_row,
            total_hops=outcome.rows_activated * hops_per_row,
        )

    def _query_vector(self, row_bits: np.ndarray, batch_slot: int) -> np.ndarray:
        layout = self.layout
        qvec = np.zeros(layout.row_bits, dtype=np.uint8)
        for g in range(layout.num_groups):
            qcol = layout.query_columns(g)[batch_slot]
            base = layout.group_base(g)
            qvec[base : base + layout.group_width] = row_bits[qcol]
        return qvec

    def _retrieve(
        self,
        member: SieveSubarraySim,
        layer: int,
        query: int,
        rows_activated: int,
        hops_per_row: int,
    ) -> MatchOutcome:
        layout = self.layout
        flush = self.cb_etm.flush_cycles_after_last_row()
        cf = self.cb_finder.find(np.asarray(self.cb_matchers.latches))
        slot = layout.column_to_ref_slot(cf.column)
        orow, ocol = layout.offset_location(layer, slot)
        bits = self._relay_row(
            member_index=self.members.index(member),
            row_bits=np.asarray(member.array.activate(orow)),
        )
        member.array.precharge()
        offset = _bits_to_int(bits[ocol : ocol + OFFSET_BITS])
        prow, pcol = layout.payload_location(layer, offset)
        bits = self._relay_row(
            member_index=self.members.index(member),
            row_bits=np.asarray(member.array.activate(prow)),
        )
        member.array.precharge()
        payload = _bits_to_int(bits[pcol : pcol + PAYLOAD_BITS])
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
