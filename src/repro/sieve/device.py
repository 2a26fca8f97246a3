"""Functional Sieve device: index + loaded subarrays + batch dispatch.

Ties the pieces of Section IV together end-to-end at functional level:
the host consults the k-mer-to-subarray index, groups queries headed to
the same subarray into batches of (up to) 64, loads each batch into the
pattern groups, and matches slot by slot.  Responses carry the payload
plus the micro-events (rows activated, flush/CF cycles, write commands)
that the trace-driven performance model aggregates.

This is the model the tests validate against a plain
:class:`~repro.genomics.database.KmerDatabase`, and the model small
examples run; the paper-scale benchmarks use the analytic
:mod:`repro.sieve.perfmodel` parameterized by statistics measured here.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..api import (
    BackendCapabilities,
    BackendResult,
    BackendStats,
    classification_from_results,
)
from ..dram.geometry import DramGeometry
from ..genomics.database import KmerDatabase
from .functional import MatchOutcome, SieveSubarraySim
from .index import SubarrayIndex
from .layout import SubarrayLayout


class DeviceError(ValueError):
    """Raised on capacity or protocol errors."""


#: Answer to one k-mer request.  Since the PR-4 API unification this is
#: the shared :class:`repro.api.BackendResult` under its historical
#: name; ``subarray_id is None`` marks an index-filtered host-side miss.
DeviceResponse = BackendResult


@dataclass
class DeviceStats:
    """Aggregate functional counters across a device's lifetime.

    Calling a stats object (``device.stats()``) projects it down to the
    protocol-wide :class:`repro.api.BackendStats`, so the device
    satisfies :class:`repro.api.QueryBackend` while existing callers
    keep reading the rich attribute counters directly.
    """

    queries: int = 0
    hits: int = 0
    index_filtered: int = 0
    row_activations: int = 0
    write_commands: int = 0
    batches: int = 0
    rows_per_query: List[int] = field(default_factory=list)

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
        self.rows_per_query.extend(other.rows_per_query)


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
        self.stats = DeviceStats()
        # Snapshot fault state at construction: a device loaded while an
        # active fault model was installed holds corrupted cells for its
        # whole lifetime, even after the injector is uninstalled.
        from ..faults import degraded_mode

        self.degraded = degraded_mode()

    def _normalize(self, kmer: int) -> int:
        if not self.canonical:
            return kmer
        from ..genomics.encoding import canonical_kmer

        return canonical_kmer(kmer, self.layout.k)

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
        index, chunks = SubarrayIndex.build(
            [kmer for kmer, _ in records], layout.refs_per_subarray
        )
        if geometry is not None and len(chunks) > geometry.total_subarrays:
            raise DeviceError(
                f"database needs {len(chunks)} subarrays but geometry "
                f"provides {geometry.total_subarrays}"
            )
        payload_of = dict(records)
        subarrays = {}
        for sid, chunk in enumerate(chunks):
            subarrays[sid] = SieveSubarraySim(
                layout,
                [(kmer, payload_of[kmer]) for kmer in chunk],
                etm_enabled=etm_enabled,
            )
        return cls(index, subarrays, layout, geometry, canonical=database.canonical)

    @classmethod
    def from_segments(
        cls,
        segment_dir,
        layout: Optional[SubarrayLayout] = None,
        geometry: Optional[DramGeometry] = None,
        etm_enabled: bool = True,
    ) -> "SieveDevice":
        """Load a device from a persisted mmap segment directory.

        Routes :meth:`from_database` through :meth:`KmerDatabase.
        open_mmap`, so a replica boots from the same content-hashed
        image the :mod:`repro.cluster` workers map — the transpose
        reads the shared read-only arrays instead of a rebuilt dict.
        """
        return cls.from_database(
            KmerDatabase.open_mmap(segment_dir),
            layout=layout,
            geometry=geometry,
            etm_enabled=etm_enabled,
        )

    # -- query paths ----------------------------------------------------------

    def query(
        self,
        kmers: Sequence[int],
        *,
        batched: bool = True,
        kernel: Optional[str] = None,
    ) -> List[DeviceResponse]:
        """The unified batch path: group per destination subarray,
        batches of <= 64 (:class:`repro.api.QueryBackend` surface).

        Responses are returned in request order even though requests to
        different subarrays complete out of order (Section IV-E: the host
        accumulates payloads per sequence, no reordering needed — we
        reorder only for API convenience).

        ``batched=True`` (the default) matches each loaded batch through
        the vectorized :meth:`~repro.sieve.functional.SieveSubarraySim.
        match_all` fast path — ``kernel`` selects its engine (the
        bit-packed uint64 kernel by default, ``"vector"`` for the PR-2
        per-query path); ``batched=False`` replays the scalar
        command-by-command path.  All paths produce identical responses
        and functional counters (the equivalence is test-enforced).

        ``kernel=None`` (the default) resolves through
        :func:`repro.sieve.kernels.default_kernel`, so ``SIEVE_KERNEL``
        can force an engine (``packed-numpy``, ``vector``, ...) on the
        auto path; explicit callers stay pinned regardless of the
        environment.
        """
        from . import kernels as _kernels

        if kernel is None:
            kernel = _kernels.default_kernel()
        responses: List[Optional[DeviceResponse]] = [None] * len(kmers)
        per_dest: Dict[Tuple[int, int], List[Tuple[int, int]]] = defaultdict(list)
        kmers = [self._normalize(kmer) for kmer in kmers]
        for pos, kmer in enumerate(kmers):
            sid = self.index.route(kmer)
            if sid is None:
                self.stats.queries += 1
                self.stats.index_filtered += 1
                self.stats.rows_per_query.append(0)
                responses[pos] = DeviceResponse(kmer, False, None, None, 0, 0)
            else:
                layer = self.subarrays[sid].route_layer(kmer)
                per_dest[(sid, layer)].append((pos, kmer))
        batch_size = self.layout.queries_per_group
        for (sid, layer), requests in per_dest.items():
            sim = self.subarrays[sid]
            for start in range(0, len(requests), batch_size):
                batch = requests[start : start + batch_size]
                self.stats.write_commands += sim.load_query_batch(
                    [kmer for _, kmer in batch], layer
                )
                self.stats.batches += 1
                if batched:
                    outcomes = sim.match_all(kernel=kernel)
                else:
                    outcomes = [sim.match_slot(slot) for slot in range(len(batch))]
                for (pos, _), outcome in zip(batch, outcomes):
                    responses[pos] = self._record(outcome, sid)
        return [r for r in responses if r is not None]

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

    def _record(self, outcome: MatchOutcome, sid: int) -> DeviceResponse:
        self.stats.queries += 1
        self.stats.row_activations += outcome.rows_activated
        self.stats.rows_per_query.append(outcome.rows_activated)
        if outcome.hit:
            self.stats.hits += 1
        return DeviceResponse(
            query=outcome.query,
            hit=outcome.hit,
            payload=outcome.payload,
            subarray_id=sid,
            rows_activated=outcome.rows_activated,
            etm_flush_cycles=outcome.etm_flush_cycles,
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
