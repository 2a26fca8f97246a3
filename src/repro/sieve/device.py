"""Functional Sieve device: index + loaded subarrays + batch dispatch.

Ties the pieces of Section IV together end-to-end at functional level:
the host consults the k-mer-to-subarray index, groups queries headed to
the same subarray into batches of (up to) 64, loads each batch into the
pattern groups, and matches slot by slot.  Responses carry the payload
plus the micro-events (rows activated, flush/CF cycles, write commands)
that the trace-driven performance model aggregates.

The hardware writes every group's query block in one batch write and
matches the batches of many subarrays at once; :meth:`SieveDevice.query`
does the same in array passes whose work follows a call's k-mers, not
its (subarray, layer) destinations, and matches them all in a single
:meth:`~repro.sieve.functional.SieveSubarraySim.match_all` pass, so a
traced run (``sievebench --trace``) reports the whole device match as
one ``sieve.functional.match_all`` span per call.

This is the model the tests validate against a plain
:class:`~repro.genomics.database.KmerDatabase`, and the model small
examples run; the paper-scale benchmarks use the analytic
:mod:`repro.sieve.perfmodel` parameterized by statistics measured here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, groupby
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..api import (
    BackendCapabilities,
    BackendStats,
    QueryBackendBase,
    ResultBatch,
    key_array,
)
from ..dram.geometry import DramGeometry
from ..genomics.database import KmerDatabase
from ..genomics.encoding import canonical_kmers, transpose_kmers
from .functional import MatchBatch, PendingMatch, SieveSubarraySim
from .index import SubarrayIndex
from .layout import SubarrayLayout


class DeviceError(ValueError):
    """Raised on capacity or protocol errors."""


@dataclass(eq=False)
class DeviceStats:
    """Aggregate functional counters across a device's lifetime.

    Calling a stats object (``device.stats()``) projects it down to the
    protocol-wide :class:`repro.api.BackendStats`, so the device
    satisfies :class:`repro.api.QueryBackend` while existing callers
    keep reading the rich attribute counters directly.

    ``rows_histogram[r]`` counts the queries that activated ``r`` rows
    (``r == 0``: filtered by the host index); its length is fixed by
    the device's ``k``, so it does not grow with the query count.
    """

    queries: int = 0
    hits: int = 0
    index_filtered: int = 0
    row_activations: int = 0
    write_commands: int = 0
    batches: int = 0
    rows_histogram: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )

    def _counters(self) -> Tuple[int, ...]:
        return (
            self.queries,
            self.hits,
            self.index_filtered,
            self.row_activations,
            self.write_commands,
            self.batches,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeviceStats):
            return NotImplemented
        return self._counters() == other._counters() and np.array_equal(
            self.rows_histogram, other.rows_histogram
        )

    @property
    def hit_rate(self) -> float:
        return self.hits / self.queries if self.queries else 0.0

    @property
    def dispatched(self) -> int:
        """Queries that actually reached a subarray."""
        return self.queries - self.index_filtered

    def __call__(self) -> BackendStats:
        """Protocol projection: uniform query/hit accounting."""
        return BackendStats(queries=self.queries, hits=self.hits)

    def absorb(self, other: "DeviceStats") -> None:
        """Fold another device's counters into this one (shard merge)."""
        self.queries += other.queries
        self.hits += other.hits
        self.index_filtered += other.index_filtered
        self.row_activations += other.row_activations
        self.write_commands += other.write_commands
        self.batches += other.batches
        size = max(self.rows_histogram.size, other.rows_histogram.size)
        merged = np.zeros(size, dtype=np.int64)
        merged[: self.rows_histogram.size] += self.rows_histogram
        merged[: other.rows_histogram.size] += other.rows_histogram
        self.rows_histogram = merged


class SieveDevice(QueryBackendBase):
    """A functional Sieve accelerator loaded with a reference database.

    Implements the :class:`repro.api.QueryBackend` protocol: ``stats``
    is the rich :class:`DeviceStats` attribute (it shadows the base
    class's ``stats()`` method), and *calling* it (``device.stats()``)
    yields the protocol-wide :class:`repro.api.BackendStats` projection.
    """

    def __init__(
        self,
        index: SubarrayIndex,
        subarrays: Dict[int, SieveSubarraySim],
        layout: SubarrayLayout,
        geometry: Optional[DramGeometry] = None,
        canonical: bool = False,
    ) -> None:
        self.index = index
        self.subarrays = subarrays
        self.layout = layout
        self.geometry = geometry
        #: Canonical databases store min(kmer, revcomp); the host must
        #: canonicalize queries before consulting the range index, just
        #: as the software classifiers do.
        self.canonical = canonical
        # Every subarray's layer firsts in id order, with each subarray's
        # offset into them and layer count (indexed by subarray id): the
        # range index routes ascending k-mer ranges to ascending ids, so
        # the row ascends and one search routes a whole call.
        ids = sorted(subarrays)
        firsts = [subarrays[sid]._layer_firsts for sid in ids]
        self._layer_firsts = np.concatenate(firsts) if firsts else key_array([])
        if np.any(self._layer_firsts[1:] < self._layer_firsts[:-1]):
            raise DeviceError("subarrays must hold ascending k-mer ranges in id order")
        self._layer_count = np.zeros(ids[-1] + 1 if ids else 0, dtype=np.int64)
        self._layer_count[ids] = [chunk.size for chunk in firsts]
        self._layer_base = np.cumsum(self._layer_count) - self._layer_count
        # Rows activated per query run 0 (filtered) .. 2k + 2 (a hit).
        self.stats = DeviceStats(
            rows_histogram=np.zeros(layout.kmer_rows + 3, dtype=np.int64)
        )
        # Snapshot fault state at construction: a device loaded while an
        # active fault model was installed holds corrupted cells for its
        # whole lifetime, even after the injector is uninstalled.
        from ..faults import degraded_mode

        self.degraded = degraded_mode()

    @classmethod
    def from_database(
        cls,
        database: KmerDatabase,
        layout: Optional[SubarrayLayout] = None,
        geometry: Optional[DramGeometry] = None,
        etm_enabled: bool = True,
    ) -> "SieveDevice":
        """Transpose and load a database (the Section IV-C one-time cost)."""
        layout = layout or SubarrayLayout(k=database.k).with_max_layers()
        records = database.sorted_records()
        if not records:
            raise DeviceError("cannot load an empty database")
        per_subarray = layout.refs_per_subarray
        index, _ = SubarrayIndex.build([kmer for kmer, _ in records], per_subarray)
        if geometry is not None and len(index) > geometry.total_subarrays:
            raise DeviceError(
                f"database needs {len(index)} subarrays but geometry "
                f"provides {geometry.total_subarrays}"
            )
        # The index chunks are contiguous slices of the sorted records.
        subarrays = {
            sid: SieveSubarraySim(
                layout,
                records[start : start + per_subarray],
                etm_enabled=etm_enabled,
            )
            for sid, start in enumerate(range(0, len(records), per_subarray))
        }
        return cls(index, subarrays, layout, geometry, canonical=database.canonical)

    # -- query paths ----------------------------------------------------------

    def query(self, kmers: Sequence[int]) -> ResultBatch:
        """The unified batch path (:class:`repro.api.QueryBackend`
        surface): route every k-mer, group them per destination
        (subarray, layer), load each destination's k-mers as batches of
        <= 64 and match them together.

        Routing is array-wide: one :meth:`SubarrayIndex.route_many`
        search for the subarray, then one search over every subarray's
        layer firsts (which ascend across subarrays) for the layer.
        Destinations are served in (subarray, layer) order, each
        destination's k-mers in request order: subarrays finish out of
        order anyway (Section IV-E), so a subarray's destinations go
        together and its highest touched layer is its last.

        The call's routed k-mers are transposed once, grouped by
        destination (the host-side transpose of Section IV-C), every
        destination's batches are laid side by side, its last one
        zero-padded, and all the batches of a subarray are stored with
        one
        :meth:`~repro.sieve.functional.SieveSubarraySim.store_query_blocks`
        call, with or without a fault injector (the DRAM layer writes
        only each destination's last batch when no injector can see the
        others).  Every destination of the call is then matched in one
        :meth:`~repro.sieve.functional.SieveSubarraySim.match_all` pass.
        :meth:`query_scalar` is the command-by-command reference: both
        produce identical responses, functional counters (``batches``
        and ``write_commands`` count every batch of <= 64) and
        per-subarray state, and under a fault injector the same stores
        in the same order (the equivalence is test-enforced).

        Responses are returned in request order even though requests to
        different subarrays complete out of order (Section IV-E: the host
        accumulates payloads per sequence, no reordering needed — we
        reorder only for API convenience), as one
        :class:`~repro.api.ResultBatch` carrying the micro-event columns
        (``subarray_id`` -1 where the index filtered the query).  A
        canonical device answers for the canonical k-mer, which is what
        the ``queries`` column reports.
        """
        kmers, sids, positions, edges, dest_sids, dest_layers = self._route(kmers)
        result = None
        if dest_sids:
            taken = self._store_batches(kmers[positions], edges, dest_sids, dest_layers)
            # One match pass over every destination of the call.
            result = taken[0].sim.match_all(*taken)
        return self._record(kmers, sids, positions, result)

    def query_scalar(self, kmers: Sequence[int]) -> ResultBatch:
        """:meth:`query`, command by command: the reference it is tested
        against.  Routes the call the same way, then loads each batch of
        <= 64 on its own and replays
        :meth:`~repro.sieve.functional.SieveSubarraySim.match_slot` after
        it."""
        kmers, sids, positions, edges, dest_sids, dest_layers = self._route(kmers)
        grouped = kmers[positions]
        size = self.layout.queries_per_group
        outcomes = []
        for sid, layer, lo, hi in zip(dest_sids, dest_layers, edges, edges[1:]):
            sim = self.subarrays[sid]
            for start in range(lo, hi, size):
                batch = grouped[start : min(start + size, hi)].tolist()
                sim.load_query_batch(batch, layer)
                outcomes.extend(sim.match_slot(s) for s in range(len(batch)))
        return self._record(
            kmers, sids, positions, MatchBatch.from_outcomes(-1, outcomes)
        )

    def _route(self, kmers):
        """Route one call and charge its batches' writes.

        Returns the call's k-mers (canonical on a canonical device),
        each one's subarray (-1 where the index filters it), the request
        positions of the routed ones in serving order, and the serving
        order's destinations: destination ``d`` is layer
        ``dest_layers[d]`` of subarray ``dest_sids[d]`` and serves
        ``positions[edges[d]:edges[d + 1]]``."""
        kmers = key_array(kmers)
        if self.canonical:
            kmers = canonical_kmers(kmers, self.layout.k)
        sids = self.index.route_many(kmers)
        routed = np.flatnonzero(sids >= 0)
        sub = sids[routed]
        # Every subarray's layer firsts ascend as one row (checked at
        # construction), so one search routes every k-mer to its layer.
        pos = np.searchsorted(self._layer_firsts, kmers[routed], side="right")
        pos -= self._layer_base[sub] + 1
        layers = np.minimum(np.maximum(pos, 0), self._layer_count[sub] - 1)
        # Destinations in (subarray, layer) order, each one's k-mers in
        # request order.
        keys = sub * self.layout.layers + layers
        serve = np.argsort(keys, kind="stable")
        starts = np.flatnonzero(_run_heads(keys[serve]))
        edges = starts.tolist() + [serve.size]
        heads = serve[starts]
        size = self.layout.queries_per_group
        batches = sum((hi - lo + size - 1) // size for lo, hi in zip(edges, edges[1:]))
        self.stats.batches += batches
        self.stats.write_commands += batches * self.layout.batch_write_commands
        return kmers, sids, routed[serve], edges, sub[heads].tolist(), layers[heads].tolist()

    def _record(self, kmers, sids, positions, result):
        """Scatter ``result``, the match columns of the k-mers at
        ``positions`` (``None`` when the index filtered them all), into
        one request-order :class:`~repro.api.ResultBatch` and charge the
        call to :class:`DeviceStats`."""
        count = kmers.size
        hit = np.zeros(count, dtype=bool)
        payload = np.zeros(count, dtype=np.int64)
        rows = np.zeros(count, dtype=np.int64)
        flush = np.zeros(count, dtype=np.int64)
        if result is not None:
            hit[positions] = result.hit
            payload[positions] = result.payload
            rows[positions] = result.rows_activated
            flush[positions] = result.etm_flush_cycles

        stats = self.stats
        stats.queries += count
        stats.index_filtered += count - positions.size
        stats.hits += int(np.count_nonzero(hit))
        stats.row_activations += int(rows.sum())
        stats.rows_histogram += np.bincount(
            rows, minlength=stats.rows_histogram.size
        )
        return ResultBatch(kmers, hit, payload, sids, rows, flush)

    def _store_batches(self, grouped, edges, sids, layers):
        """Store every batch of a call's destinations, served in
        (subarray, layer) order: destination ``d`` holds queries
        ``edges[d]:edges[d + 1]`` of ``grouped``.  The queries are
        transposed once and their batches laid side by side, each
        destination's last one zero-padded, in one array pass, then each
        subarray's go out in one
        :meth:`~repro.sieve.functional.SieveSubarraySim.store_query_blocks`
        call.  Returns each destination's :class:`PendingMatch` of the
        cells its batches stored."""
        layout = self.layout
        size = layout.queries_per_group
        counts = [hi - lo for lo, hi in zip(edges, edges[1:])]
        batches = [-(-count // size) for count in counts]
        cols = list(accumulate([b * size for b in batches], initial=0))
        # Query i of destination d lands in column cols[d] + i - edges[d].
        shift = np.repeat(np.subtract(cols[:-1], edges[:-1]), counts)
        padded = np.zeros((layout.kmer_rows, cols[-1]), dtype=bool)
        # One transpose for the whole call (paper Section IV-C).
        padded[:, np.arange(grouped.size) + shift] = transpose_kmers(grouped, layout.k)
        blocks = padded.reshape(layout.kmer_rows, -1, size).transpose(1, 0, 2)
        taken = []
        for sid, run in groupby(range(len(sids)), key=sids.__getitem__):
            dests = list(run)
            base, last = cols[dests[0]], dests[-1]
            sim = self.subarrays[sid]
            stored = sim.store_query_blocks(
                [layers[d] for d in dests for _ in range(batches[d])],
                blocks[base // size : cols[last + 1] // size],
                grouped[edges[last] + (batches[last] - 1) * size : edges[last + 1]].tolist(),
            )
            for d in dests:
                lo = cols[d] - base
                taken.append(PendingMatch(sim, layers[d], stored[:, :, lo : lo + counts[d]]))
        return taken

    # -- protocol surface ------------------------------------------------------

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="sieve-device",
            kind="sieve",
            k=self.layout.k,
            canonical=self.canonical,
            degraded=self.degraded,
        )

    def perf_counters(self) -> Dict[str, int]:
        """Monotonic micro-event counters for per-batch cost deltas."""
        return {
            "row_activations": self.stats.row_activations,
            "write_commands": self.stats.write_commands,
        }

    def batch_cost(self, delta: Dict[str, int]) -> Tuple[float, float]:
        """Price a counter delta in simulated (ns, nJ) via the same
        command-ledger rates :meth:`to_ledger` charges."""
        ledger = _priced_ledger(
            delta.get("row_activations", 0), delta.get("write_commands", 0)
        )
        return (ledger.serial_time_ns, ledger.energy_nj)

    # -- accounting ----------------------------------------------------------------

    def to_ledger(self, timing=None, energy=None):
        """Convert accumulated functional counters into a command ledger.

        Bridges the bit-accurate model to the timing/energy substrate:
        the ledger prices every row activation (at the +6 % Sieve rate)
        and query-batch write burst this device has executed, yielding a
        serialized-time/energy figure for the functional run — the
        small-scale ground truth the analytic models extrapolate from.
        """
        return _priced_ledger(
            self.stats.row_activations,
            self.stats.write_commands,
            timing,
            energy,
        )

    # -- capacity ---------------------------------------------------------------

    def loaded_subarrays(self) -> int:
        return len(self.subarrays)

    def bank_of(self, subarray_id: int) -> Optional[int]:
        """Bank a loaded subarray belongs to under the device geometry
        (round-robin placement across banks, the layout that spreads
        query traffic evenly — Section IV-A's co-location argument)."""
        if self.geometry is None:
            return None
        if subarray_id not in self.subarrays:
            raise DeviceError(f"subarray {subarray_id} is not loaded")
        return subarray_id % self.geometry.total_banks

    def per_bank_activations(self) -> Dict[int, int]:
        """Row activations per bank (functional load-balance view)."""
        if self.geometry is None:
            raise DeviceError("device was built without a geometry")
        counts: Dict[int, int] = {}
        for sid, sim in self.subarrays.items():
            bank = sid % self.geometry.total_banks
            counts[bank] = counts.get(bank, 0) + sim.array.stats.activations
        return counts

    def utilization(self) -> Optional[float]:
        """Fraction of the geometry's subarrays holding data."""
        if self.geometry is None:
            return None
        return len(self.subarrays) / self.geometry.total_subarrays


def _run_heads(values: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal ``values``."""
    heads = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=heads[1:])
    return heads


def _priced_ledger(
    row_activations: int, write_commands: int, timing=None, energy=None
):
    """A command ledger charging ``row_activations`` row activations (at
    the +6 % Sieve rate) and ``write_commands`` query-batch write
    bursts; the default timing and energy are Sieve's DDR4 figures."""
    from ..dram.commands import Command, CommandLedger
    from ..dram.energy import DDR4_ENERGY, SIEVE_ACTIVATION_OVERHEAD
    from ..dram.timing import SIEVE_TIMING

    ledger = CommandLedger(
        timing=timing or SIEVE_TIMING,
        energy=energy or DDR4_ENERGY,
        activation_energy_factor=1.0 + SIEVE_ACTIVATION_OVERHEAD,
    )
    ledger.record(Command.ACTIVATE, row_activations)
    ledger.record(Command.WRITE_BURST, write_commands)
    return ledger
