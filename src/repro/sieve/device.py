"""Functional Sieve device: index + loaded subarrays + batch dispatch.

Ties the pieces of Section IV together end-to-end at functional level:
the host consults the k-mer-to-subarray index, groups queries headed to
the same subarray into batches of (up to) 64, loads each batch into the
pattern groups, and matches slot by slot.  Responses carry the payload
plus the micro-events (rows activated, flush/CF cycles, write commands)
that the trace-driven performance model aggregates.

The hardware matches the batches of many subarrays at once; the model
does the same per :meth:`SieveDevice.query` call.  It loads every
(subarray, layer) destination in turn, detaches each destination's
loaded query cells right after its loads
(:meth:`~repro.sieve.functional.SieveSubarraySim.take_pending`), and
then matches all of them in a single
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
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..api import (
    BackendCapabilities,
    BackendStats,
    ResultBatch,
    classification_from_results,
    key_array,
)
from ..dram.geometry import DramGeometry
from ..genomics.database import KmerDatabase
from ..genomics.encoding import canonical_kmers
from .functional import MatchBatch, SieveSubarraySim
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


class SieveDevice:
    """A functional Sieve accelerator loaded with a reference database.

    Implements the :class:`repro.api.QueryBackend` protocol
    structurally: ``stats`` is the rich :class:`DeviceStats` attribute,
    and *calling* it (``device.stats()``) yields the protocol-wide
    :class:`repro.api.BackendStats` projection.
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

    def query(
        self, kmers: Sequence[int], *, batched: bool = True
    ) -> ResultBatch:
        """The unified batch path (:class:`repro.api.QueryBackend`
        surface): route every k-mer, group them per destination
        (subarray, layer), load each destination's k-mers as batches of
        <= 64 and match them together.

        Routing is array-wide: one :meth:`SubarrayIndex.route_many`
        search, then one :meth:`SieveSubarraySim.route_layers` search
        per subarray hit.  Destinations are served in the order of
        their first k-mer, each destination's k-mers in request order.
        ``batched=True`` (the default) takes each destination's batches
        right after its loads and matches every destination of the call
        in one :meth:`~repro.sieve.functional.SieveSubarraySim.
        match_all` pass; ``batched=False`` replays the scalar
        command-by-command :meth:`~repro.sieve.functional.
        SieveSubarraySim.match_slot` path after each load, the
        reference.  Both produce identical responses, functional
        counters and per-subarray state (the equivalence is
        test-enforced).

        Responses are returned in request order even though requests to
        different subarrays complete out of order (Section IV-E: the host
        accumulates payloads per sequence, no reordering needed — we
        reorder only for API convenience), as one
        :class:`~repro.api.ResultBatch` carrying the micro-event columns
        (``subarray_id`` -1 where the index filtered the query).  A
        canonical device answers for the canonical k-mer, which is what
        the ``queries`` column reports.
        """
        kmers = key_array(kmers)
        if self.canonical:
            kmers = canonical_kmers(kmers, self.layout.k)
        count = kmers.size
        sids = self.index.route_many(kmers)
        routed = np.flatnonzero(sids >= 0)
        layers = np.zeros(count, dtype=np.int64)
        for sid in np.flatnonzero(np.bincount(sids[routed])).tolist():
            mask = sids == sid
            layers[mask] = self.subarrays[sid].route_layers(kmers[mask])
        # Group by destination: the stable sort keeps request order within
        # one, and destinations are served in the order of their first
        # k-mer.
        keys = sids[routed] * self.layout.layers + layers[routed]
        order = np.argsort(keys, kind="stable")
        starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
        bounds = np.append(starts, order.size).tolist()

        batch_size = self.layout.queries_per_group
        served = []
        results = []
        taken = []
        for group in np.argsort(order[starts]).tolist():
            positions = routed[order[bounds[group] : bounds[group + 1]]]
            sim = self.subarrays[int(sids[positions[0]])]
            layer = int(layers[positions[0]])
            requests = kmers[positions].tolist()
            outcomes = []
            for lo in range(0, len(requests), batch_size):
                batch = requests[lo : lo + batch_size]
                self.stats.write_commands += sim.load_query_batch(batch, layer)
                self.stats.batches += 1
                if not batched:
                    outcomes.extend(sim.match_slot(s) for s in range(len(batch)))
            served.append(positions)
            if batched:
                taken.append(sim.take_pending())
            else:
                results.append(MatchBatch.from_outcomes(layer, outcomes))
        if taken:
            # One match pass over every destination of the call.
            results.append(taken[0].sim.match_all(*taken))

        hit = np.zeros(count, dtype=bool)
        payload = np.zeros(count, dtype=np.int64)
        rows = np.zeros(count, dtype=np.int64)
        flush = np.zeros(count, dtype=np.int64)
        if served:
            positions = np.concatenate(served)
            hit[positions] = np.concatenate([r.hit for r in results])
            payload[positions] = np.concatenate([r.payload for r in results])
            rows[positions] = np.concatenate([r.rows_activated for r in results])
            flush[positions] = np.concatenate(
                [r.etm_flush_cycles for r in results]
            )

        stats = self.stats
        stats.queries += count
        stats.index_filtered += count - routed.size
        stats.hits += int(np.count_nonzero(hit))
        stats.row_activations += int(rows.sum())
        stats.rows_histogram += np.bincount(
            rows, minlength=stats.rows_histogram.size
        )
        return ResultBatch(kmers, hit, payload, sids, rows, flush)

    # -- protocol surface ------------------------------------------------------

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="sieve-device",
            kind="sieve",
            k=self.layout.k,
            canonical=self.canonical,
            batched=True,
            max_batch=self.layout.queries_per_group,
            simulated_latency=True,
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
        from ..dram.commands import Command, CommandLedger
        from ..dram.energy import DDR4_ENERGY, SIEVE_ACTIVATION_OVERHEAD
        from ..dram.timing import SIEVE_TIMING

        ledger = CommandLedger(
            timing=SIEVE_TIMING,
            energy=DDR4_ENERGY,
            activation_energy_factor=1.0 + SIEVE_ACTIVATION_OVERHEAD,
        )
        ledger.record(Command.ACTIVATE, delta.get("row_activations", 0))
        ledger.record(Command.WRITE_BURST, delta.get("write_commands", 0))
        return (ledger.serial_time_ns, ledger.energy_nj)

    def classify(self, read):
        """Classify one read through the shared vote-counting path."""
        results = self.query(list(read.kmers(self.layout.k)))
        return classification_from_results(
            read.seq_id, results, true_taxon=read.taxon_id
        )

    # -- accounting ----------------------------------------------------------------

    def to_ledger(self, timing=None, energy=None):
        """Convert accumulated functional counters into a command ledger.

        Bridges the bit-accurate model to the timing/energy substrate:
        the ledger prices every row activation (at the +6 % Sieve rate)
        and query-batch write burst this device has executed, yielding a
        serialized-time/energy figure for the functional run — the
        small-scale ground truth the analytic models extrapolate from.
        """
        from ..dram.commands import Command, CommandLedger
        from ..dram.energy import DDR4_ENERGY, SIEVE_ACTIVATION_OVERHEAD
        from ..dram.timing import SIEVE_TIMING

        ledger = CommandLedger(
            timing=timing or SIEVE_TIMING,
            energy=energy or DDR4_ENERGY,
            activation_energy_factor=1.0 + SIEVE_ACTIVATION_OVERHEAD,
        )
        ledger.record(Command.ACTIVATE, self.stats.row_activations)
        ledger.record(Command.WRITE_BURST, self.stats.write_commands)
        return ledger

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
