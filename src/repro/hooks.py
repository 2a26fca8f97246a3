"""The one seam for runtime instrumentation: observers and the fault injector.

:class:`Observer` declares every event the DRAM, service and cluster
layers emit, each as a no-op method, so a subscriber overrides only the
events it cares about.  :mod:`repro.analysiskit` subscribes its
:class:`ProtocolSanitizer` and :class:`ScheduleSanitizer` here (see
``docs/CORRECTNESS.md``); tests subscribe spies next to them.  The module
imports nothing from the package, so the layers that emit events never
import the tooling that observes them.

Emit sites loop over :data:`OBSERVERS`, a tuple rebuilt on every
(un)subscribe, so the idle seam (the default) costs one attribute load
and an empty loop per event.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, List, Optional, Tuple


class Observer:
    """Every instrumentation event, each a no-op; subclass and override.

    ``scope`` is the owning :class:`~repro.service.ClassificationService`
    (or the worker itself for standalone
    :class:`~repro.service.dispatcher.ShardWorker` use) for service
    events, and the :class:`~repro.cluster.ClusterBackend` for cluster
    events, so one observer can police many services concurrently.
    """

    # -- DRAM (repro.dram) ----------------------------------------------------

    def on_ledger_record(self, ledger: Any, command: Any, count: int) -> None:
        """A :class:`~repro.dram.commands.CommandLedger` recorded events."""

    def on_ledger_time(self, ledger: Any, ns: float) -> None:
        """A ledger was charged raw critical-path time."""

    def on_ledger_energy(self, ledger: Any, nj: float) -> None:
        """A ledger was charged raw energy."""

    def on_ledger_merge(self, ledger: Any, other: Any, parallel: bool) -> None:
        """``other`` was folded into ``ledger``."""

    def on_memsys_access(
        self, system: Any, bank: int, row: int, kind: str, latency_ns: float
    ) -> None:
        """A :class:`~repro.dram.memsys.MemorySystem` access (``kind`` is
        hit/miss/conflict) at its base latency, without fault extras."""

    # -- service (repro.service) ----------------------------------------------

    def on_request_admitted(
        self, scope: Any, shard_id: int, req_id: int, num_kmers: int
    ) -> None:
        """A request landed on a shard queue (first admit or failover)."""

    def on_batch_coalesced(
        self,
        scope: Any,
        shard_id: int,
        batch_index: int,
        entries: List[Tuple[int, int]],
    ) -> None:
        """The dispatch loop closed a batch of ``(req_id, num_kmers)``."""

    def on_batch_executed(
        self,
        scope: Any,
        shard_id: int,
        batch_index: int,
        req_ids: List[int],
        total_kmers: int,
    ) -> None:
        """The batch's still-live slice goes to the backend ``query()``."""

    def on_batch_deduped(
        self,
        scope: Any,
        shard_id: int,
        batch_index: int,
        total_kmers: int,
        unique_kmers: int,
        cache_hits: int,
        device_kmers: int,
    ) -> None:
        """The dedup/cache split of the batch just executed: its k-mers,
        their unique cache keys, the cache hits among those, and the
        k-mers sent to the device (all of them in self-check mode)."""

    def on_request_completed(
        self, scope: Any, shard_id: int, req_id: int, num_kmers: int
    ) -> None:
        """A request's future resolved with its classification."""

    def on_request_expired(self, scope: Any, shard_id: int, req_id: int) -> None:
        """A request's deadline passed before dispatch."""

    def on_request_failed(self, scope: Any, shard_id: int, req_id: int) -> None:
        """A request resolved with an error (crash, outage, undrained stop)."""

    def on_requests_orphaned(
        self, scope: Any, shard_id: int, req_ids: List[int]
    ) -> None:
        """A crashing shard handed these requests to failover."""

    def on_service_quiesce(self, scope: Any) -> None:
        """A drain completed; every admitted request must be terminal."""

    # -- cluster (repro.cluster) ----------------------------------------------

    def on_worker_spawned(
        self, scope: Any, worker_id: int, generation: int, partitions: Any
    ) -> None:
        """A worker process came up owning ``partitions`` (``[worker_id]``);
        ``generation`` counts respawns of the same worker id."""

    def on_worker_draining(self, scope: Any, worker_id: int, generation: int) -> None:
        """A rolling restart stopped routing new fan-out to this worker."""

    def on_worker_exited(self, scope: Any, worker_id: int, generation: int) -> None:
        """The worker process exited (restart or close)."""

    def on_cluster_fanout(
        self, scope: Any, qid: int, worker_id: int, num_kmers: int
    ) -> None:
        """A slice of query ``qid`` went to its owning worker."""

    def on_cluster_reply(
        self, scope: Any, qid: int, worker_id: int, num_kmers: int
    ) -> None:
        """That worker answered the slice."""

    def on_cluster_merged(self, scope: Any, qid: int, total_kmers: int) -> None:
        """All slices of query ``qid`` merged into one result batch."""


#: The subscribed observers in subscription order (empty: instrumentation off).
OBSERVERS: Tuple[Observer, ...] = ()

#: The installed fault injector, or ``None`` (the default: pristine DRAM).
INJECTOR: Optional[Any] = None


def subscribe(observer: Observer) -> None:
    """Add ``observer`` after the current subscribers (no-op if present)."""
    global OBSERVERS
    if observer not in OBSERVERS:
        OBSERVERS = OBSERVERS + (observer,)


def unsubscribe(observer: Observer) -> None:
    """Remove ``observer`` (no-op if absent)."""
    global OBSERVERS
    OBSERVERS = tuple(o for o in OBSERVERS if o is not observer)


@contextmanager
def observing(*observers: Observer) -> Iterator[None]:
    """Subscribe exactly ``observers`` for the block, then restore the
    previous subscribers: ``observing()`` silences the seam and
    ``observing(*OBSERVERS, spy)`` adds a spy next to the current ones."""
    global OBSERVERS
    previous = OBSERVERS
    OBSERVERS = observers
    try:
        yield
    finally:
        OBSERVERS = previous


def install_injector(injector: Any) -> None:
    """Install ``injector`` as the single active DRAM fault injector.

    The injector is duck-typed; it may implement any subset of:

    * ``on_subarray_load(subarray, row, col_start, bits) -> bits`` —
      called on the untimed data-install path
      (:meth:`~repro.dram.subarray.Subarray.load_row` /
      :meth:`~repro.dram.subarray.Subarray.load_bits`, which the block
      stores call once per run while an injector is installed); returns
      the bit vector actually stored (weak-cell flips, stuck-at cells),
    * ``on_memsys_access(system, bank, row, kind, latency_ns) -> float``
      — called per :class:`~repro.dram.memsys.MemorySystem` access;
      returns *extra* latency (ns) injected for this access (command
      drop retries, delays).  Observers always see the base latency.

    Unlike an observer, the injector changes behavior — installing one
    with a zero-rate model is test-enforced to be a no-op.
    """
    global INJECTOR
    INJECTOR = injector


def uninstall_injector() -> None:
    """Remove the active fault injector (pristine DRAM again)."""
    global INJECTOR
    INJECTOR = None


def get_injector() -> Optional[Any]:
    """Return the active fault injector, or ``None``."""
    return INJECTOR
