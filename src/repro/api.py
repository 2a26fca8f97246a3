"""Unified query surface: the :class:`QueryBackend` protocol.

Every k-mer matching engine in this repository — the functional Sieve
device, the software baselines (Kraken-, CLARK-, and sorted-list-style
classifiers), the plain :class:`~repro.genomics.database.KmerDatabase`,
and the row-major in-situ baseline — answers the same question: *which
reference taxon, if any, does this k-mer belong to?*  This module
defines the one surface they all implement:

``query(kmers, *, batched=True) -> List[BackendResult]``
    The batch query path.  ``batched=False`` asks engines that have a
    distinct scalar protocol (the Sieve device's command-by-command
    replay) to use it; engines without one ignore the flag.
``classify(read) -> ClassificationResult``
    The Figure-2 classification loop over :meth:`query`, shared through
    :class:`QueryBackendBase` so votes are counted one way everywhere.
``capabilities() -> BackendCapabilities``
    Static facts a dispatcher needs: k, canonicalization, natural batch
    size, whether the engine reports simulated device cost.
``stats() -> BackendStats``
    Uniform hit-rate accounting across all engines.

This module is a *leaf*: it imports nothing from the rest of the
package at module level, so any engine module can import it without
cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)


class ApiError(ValueError):
    """Raised on malformed protocol-level requests."""


# ---------------------------------------------------------------------------
# Shared result / stats / capabilities types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BackendResult:
    """Answer to one k-mer query, uniform across every backend.

    Software engines fill only the first three fields; the Sieve device
    additionally reports which subarray answered and the micro-events
    (rows activated, ETM flush cycles) the trace-driven performance
    model aggregates.  ``subarray_id is None`` on the device means the
    host-side range index filtered the query without dispatching it.
    """

    query: int
    hit: bool
    payload: Optional[int]
    subarray_id: Optional[int] = None
    rows_activated: int = 0
    etm_flush_cycles: int = 0


@dataclass
class BackendStats:
    """Uniform hit-rate accounting: queries answered and hits among them.

    This is the *one* place hit rate is computed; engines with richer
    internal counters (the device's :class:`~repro.sieve.device.
    DeviceStats`) project down to this shape so every report divides
    the same two numbers the same way.
    """

    queries: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.queries - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.queries if self.queries else 0.0

    def record(self, results: Sequence[BackendResult]) -> None:
        """Fold a query batch's results into the counters."""
        self.queries += len(results)
        self.hits += sum(1 for r in results if r.hit)


@dataclass(frozen=True)
class BackendCapabilities:
    """Static facts a dispatcher needs to drive a backend.

    ``max_batch`` is the engine's *natural* batch granularity (the
    Sieve device's queries-per-group); 0 means the engine has no
    preferred size.  ``simulated_latency`` marks engines whose
    :meth:`QueryBackendBase.batch_cost` prices batches in simulated
    device time rather than returning zero.  ``degraded`` marks an
    engine built (or rebuilt) under an active fault model
    (:mod:`repro.faults`): its answers may be corrupted, and a
    dispatcher should surface that in health reporting.
    """

    name: str
    kind: str
    k: int
    canonical: bool
    batched: bool = True
    max_batch: int = 0
    simulated_latency: bool = False
    degraded: bool = False


# ---------------------------------------------------------------------------
# The protocol
# ---------------------------------------------------------------------------


@runtime_checkable
class QueryBackend(Protocol):
    """Structural type every k-mer matching engine implements."""

    def query(
        self, kmers: Sequence[int], *, batched: bool = True
    ) -> List[BackendResult]:
        """Answer a batch of packed k-mer queries, in request order."""
        ...

    def classify(self, read) -> Any:
        """Classify one read (majority vote over its k-mer hits)."""
        ...

    def capabilities(self) -> BackendCapabilities:
        """Static dispatch facts for this engine."""
        ...

    def stats(self) -> BackendStats:
        """Uniform query/hit accounting since construction."""
        ...


# ---------------------------------------------------------------------------
# Shared implementation mixin
# ---------------------------------------------------------------------------


def classification_from_results(
    read_id: str,
    results: Sequence[BackendResult],
    true_taxon: Optional[int] = None,
):
    """Build a :class:`~repro.baselines.classifier.ClassificationResult`
    from per-k-mer backend results — the one vote-counting path every
    backend's :meth:`~QueryBackend.classify` goes through."""
    from .baselines.classifier import ClassificationResult, majority_vote

    votes: Dict[int, int] = {}
    hits = 0
    for result in results:
        if result.hit and result.payload is not None:
            hits += 1
            votes[result.payload] = votes.get(result.payload, 0) + 1
    return ClassificationResult(
        read_id=read_id,
        taxon=majority_vote(votes),
        votes=votes,
        kmers_total=len(results),
        kmers_hit=hits,
        true_taxon=true_taxon,
    )


class QueryBackendBase:
    """Default ``classify``/``stats``/cost hooks over :meth:`query`.

    Engines subclass this, implement :meth:`query` and
    :meth:`capabilities`, and keep their hit-rate accounting in
    ``self._backend_stats`` (or override :meth:`stats`).
    """

    _backend_stats: BackendStats

    def __init__(self) -> None:
        self._backend_stats = BackendStats()

    def query(
        self, kmers: Sequence[int], *, batched: bool = True
    ) -> List[BackendResult]:
        raise NotImplementedError

    def capabilities(self) -> BackendCapabilities:
        raise NotImplementedError

    def stats(self) -> BackendStats:
        """Point-in-time snapshot (callers can diff across calls)."""
        return BackendStats(
            queries=self._backend_stats.queries,
            hits=self._backend_stats.hits,
        )

    def classify(self, read):
        """Figure 2's loop: query every window, majority-vote the hits."""
        k = self.capabilities().k
        results = self.query(list(read.kmers(k)))
        return classification_from_results(
            read.seq_id, results, true_taxon=read.taxon_id
        )

    def classify_reads(self, reads) -> List[Any]:
        """Classify a read set; returns per-read results."""
        return [self.classify(read) for read in reads]

    # -- simulated-cost hooks (device backends override) ------------------

    def perf_counters(self) -> Dict[str, int]:
        """Monotonic micro-event counters a dispatcher can snapshot
        around a batch to price it; software engines report none."""
        return {}

    def batch_cost(self, delta: Dict[str, int]) -> Tuple[float, float]:
        """(simulated ns, simulated nJ) for a counter delta from
        :meth:`perf_counters`; zero for engines with no device model."""
        return (0.0, 0.0)


class ScalarQueryBackendBase(QueryBackendBase):
    """Backends whose engine is a scalar :meth:`get` probe.

    The software classifiers (hash table, signature index, sorted list)
    answer one k-mer at a time; :meth:`query` is the loop over
    :meth:`get`, with the shared stats accounting.  ``batched`` is
    accepted for protocol uniformity and ignored — there is no
    command-level batch protocol to select.
    """

    def get(self, kmer: int) -> Optional[int]:
        """Taxon payload for one k-mer, or ``None`` (miss)."""
        raise NotImplementedError

    def query(
        self, kmers: Sequence[int], *, batched: bool = True
    ) -> List[BackendResult]:
        results = []
        for kmer in kmers:
            payload = self.get(kmer)
            results.append(
                BackendResult(query=kmer, hit=payload is not None, payload=payload)
            )
        self._backend_stats.record(results)
        return results


def __getattr__(name: str) -> Any:
    # `Classification` is an alias for the shared per-read result type;
    # resolved lazily to keep this module a leaf.
    if name == "Classification":
        from .baselines.classifier import ClassificationResult

        return ClassificationResult
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ApiError",
    "BackendCapabilities",
    "BackendResult",
    "BackendStats",
    "Classification",
    "QueryBackend",
    "QueryBackendBase",
    "ScalarQueryBackendBase",
    "classification_from_results",
]
