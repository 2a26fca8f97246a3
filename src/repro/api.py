"""Unified query surface: the :class:`QueryBackend` protocol.

Every k-mer matching engine in this repository — the functional Sieve
device, the software baselines (Kraken-, CLARK-, and sorted-list-style
classifiers), the plain :class:`~repro.genomics.database.KmerDatabase`,
and the row-major in-situ baseline — answers the same question: *which
reference taxon, if any, does this k-mer belong to?*  This module
defines the one surface they all implement:

``query(kmers) -> ResultBatch``
    The batch query path, the one way to ask an engine for k-mers.  The
    answer is columnar: one :class:`ResultBatch` of
    ``queries``/``hit``/``payload`` arrays (plus the device's
    micro-event columns), which yields a :class:`BackendResult` per
    k-mer only when a caller indexes or iterates it.
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

from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import (
    Any,
    Dict,
    Iterator,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np


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


def key_array(kmers: Sequence[int]) -> np.ndarray:
    """Packed k-mers as an array that compares exactly.

    ``uint64`` when every value fits one word (``k <= 32``); Python
    ints in an object array otherwise (the multi-word ``k > 32``
    layouts), never the ``float64`` numpy would infer for a mix.
    """
    try:
        return np.asarray(kmers, dtype=np.uint64)
    except OverflowError:
        return np.asarray(kmers, dtype=object)


def _counts(column: Optional[np.ndarray]) -> Any:
    """Per-row values of an optional count column (0 when absent)."""
    return repeat(0) if column is None else column.tolist()


class ResultBatch:
    """Columnar answers to one ``query()`` call, in request order.

    ``queries`` keeps the backend's key dtype (:func:`key_array`:
    ``uint64`` for ``k <= 32``, Python ints in an object array above),
    ``hit`` is a bool mask and ``payload`` an ``int64`` array with 0 at
    every miss.  The Sieve device also fills the micro-event columns
    ``subarray_id`` (-1 where the host-side index filtered the query),
    ``rows_activated`` and ``etm_flush_cycles``; engines without them
    leave the column ``None`` and its records read the
    :class:`BackendResult` default.

    Records exist only on demand: ``len()``, integer indexing and
    iteration yield :class:`BackendResult` rows (``payload=None`` at a
    miss, ``type(query) is int``); a slice or an index array yields a
    smaller batch over the same columns.  Equality is row by row, also
    against a plain record list.
    """

    __slots__ = (
        "queries",
        "hit",
        "payload",
        "subarray_id",
        "rows_activated",
        "etm_flush_cycles",
    )

    def __init__(
        self,
        queries: np.ndarray,
        hit: np.ndarray,
        payload: np.ndarray,
        subarray_id: Optional[np.ndarray] = None,
        rows_activated: Optional[np.ndarray] = None,
        etm_flush_cycles: Optional[np.ndarray] = None,
    ) -> None:
        if not len(queries) == len(hit) == len(payload):
            raise ApiError(
                f"result columns disagree: {len(queries)} queries, "
                f"{len(hit)} hit flags, {len(payload)} payloads"
            )
        self.queries = queries
        self.hit = hit
        self.payload = payload
        self.subarray_id = subarray_id
        self.rows_activated = rows_activated
        self.etm_flush_cycles = etm_flush_cycles

    @classmethod
    def from_payloads(
        cls,
        queries: Sequence[int],
        payloads: Sequence[Optional[int]],
        **micro_events: np.ndarray,
    ) -> "ResultBatch":
        """Batch of per-k-mer ``payload or None`` answers (the scalar
        engines' shape): a k-mer hits exactly when it has a payload."""
        count = len(payloads)
        return cls(
            key_array(queries),
            np.fromiter((p is not None for p in payloads), dtype=bool, count=count),
            np.fromiter(
                (0 if p is None else p for p in payloads), dtype=np.int64, count=count
            ),
            **micro_events,
        )

    @classmethod
    def from_results(
        cls, results: Union["ResultBatch", Sequence[BackendResult]]
    ) -> "ResultBatch":
        """Columns of a record list; a batch is returned unchanged.

        Raises :class:`ApiError` on a record whose ``hit`` disagrees
        with its payload (the protocol has no hit without a payload).
        """
        if isinstance(results, ResultBatch):
            return results
        records = list(results)
        count = len(records)
        batch = cls.from_payloads(
            [r.query for r in records],
            [r.payload for r in records],
            subarray_id=np.fromiter(
                (-1 if r.subarray_id is None else r.subarray_id for r in records),
                dtype=np.int64,
                count=count,
            ),
            rows_activated=np.fromiter(
                (r.rows_activated for r in records), dtype=np.int64, count=count
            ),
            etm_flush_cycles=np.fromiter(
                (r.etm_flush_cycles for r in records), dtype=np.int64, count=count
            ),
        )
        for record, hit in zip(records, batch.hit.tolist()):
            if bool(record.hit) != hit:
                raise ApiError(
                    f"record for k-mer {record.query} has hit={record.hit} "
                    f"but payload={record.payload}"
                )
        return batch

    def __len__(self) -> int:
        return len(self.hit)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, (int, np.integer)):
            position = range(len(self))[index]  # IndexError past either end
            return next(iter(self[position : position + 1]))
        return ResultBatch(
            *(
                None if column is None else column[index]
                for column in map(self.__getattribute__, self.__slots__)
            )
        )

    def __setitem__(self, index: int, record: BackendResult) -> None:
        """Overwrite one row with a record's fields; a micro-event the
        batch has no column for must be the record default.

        The benchmark's wrong-answer test
        (``sievebench/test_bench.py::test_a_wrong_answer_fails_the_run``)
        corrupts a device answer through this method."""
        position = range(len(self))[index]
        row = ResultBatch.from_results([record])
        default = BackendResult(record.query, record.hit, record.payload)
        for name in self.__slots__:
            column = getattr(self, name)
            if column is not None:
                column[position] = getattr(row, name)[0]
            elif getattr(record, name) != getattr(default, name):
                raise ApiError(f"this batch has no {name} column")

    def __iter__(self) -> Iterator[BackendResult]:
        hit = self.hit.tolist()
        sid = self.subarray_id
        return map(
            BackendResult,
            self.queries.tolist(),
            hit,
            [p if h else None for p, h in zip(self.payload.tolist(), hit)],
            (
                repeat(None)
                if sid is None
                else [s if s >= 0 else None for s in sid.tolist()]
            ),
            _counts(self.rows_activated),
            _counts(self.etm_flush_cycles),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (ResultBatch, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"ResultBatch({list(self)!r})"


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

    def record(self, results: ResultBatch) -> None:
        """Fold a query batch's results into the counters."""
        self.queries += len(results)
        self.hits += int(np.count_nonzero(results.hit))


@dataclass(frozen=True)
class BackendCapabilities:
    """Static facts a dispatcher needs to drive a backend.

    ``k`` and ``canonical`` fix the query key space (the service checks
    that every shard agrees on both).  ``degraded`` marks an engine
    built (or rebuilt) under an active fault model (:mod:`repro.faults`):
    its answers may be corrupted, and a dispatcher should surface that
    in health reporting.
    """

    name: str
    kind: str
    k: int
    canonical: bool
    degraded: bool = False


# ---------------------------------------------------------------------------
# The protocol
# ---------------------------------------------------------------------------


@runtime_checkable
class QueryBackend(Protocol):
    """Structural type every k-mer matching engine implements."""

    def query(self, kmers: Sequence[int]) -> ResultBatch:
        """Answer a batch of packed k-mer queries, in request order."""
        ...

    def capabilities(self) -> BackendCapabilities:
        """Static dispatch facts for this engine."""
        ...

    def stats(self) -> BackendStats:
        """Uniform query/hit accounting since construction."""
        ...

    def perf_counters(self) -> Dict[str, int]:
        """Monotonic micro-event counters (empty without a device)."""
        ...

    def batch_cost(self, delta: Dict[str, int]) -> Tuple[float, float]:
        """(simulated ns, simulated nJ) for a :meth:`perf_counters`
        delta."""
        ...


# ---------------------------------------------------------------------------
# Shared implementation mixin
# ---------------------------------------------------------------------------


def classification_from_results(
    read_id: str,
    results: Union[ResultBatch, Sequence[BackendResult]],
    true_taxon: Optional[int] = None,
):
    """Build a :class:`~repro.baselines.classifier.ClassificationResult`
    from per-k-mer backend results — the one vote-counting path (Figure
    2's majority vote) every caller of :meth:`~QueryBackend.query` uses.

    Votes are counted over the hit payloads in request order, so
    ``votes`` lists taxa by first vote; a record list is read through
    :meth:`ResultBatch.from_results`."""
    from .baselines.classifier import ClassificationResult, majority_vote

    batch = ResultBatch.from_results(results)
    hit_payloads = batch.payload[batch.hit].tolist()
    votes: Dict[int, int] = dict(Counter(hit_payloads))
    return ClassificationResult(
        read_id=read_id,
        taxon=majority_vote(votes),
        votes=votes,
        kmers_total=len(batch),
        kmers_hit=len(hit_payloads),
        true_taxon=true_taxon,
    )


class QueryBackendBase:
    """Default ``stats``/cost hooks over :meth:`query`.

    Engines subclass this, implement :meth:`query` and
    :meth:`capabilities`, and keep their hit-rate accounting in
    ``self._backend_stats`` (or override :meth:`stats`).
    """

    _backend_stats: BackendStats

    def __init__(self) -> None:
        self._backend_stats = BackendStats()

    def query(self, kmers: Sequence[int]) -> ResultBatch:
        raise NotImplementedError

    def capabilities(self) -> BackendCapabilities:
        raise NotImplementedError

    def stats(self) -> BackendStats:
        """Point-in-time snapshot (callers can diff across calls)."""
        return BackendStats(
            queries=self._backend_stats.queries,
            hits=self._backend_stats.hits,
        )

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
    :meth:`get`, with the shared stats accounting.
    """

    def get(self, kmer: int) -> Optional[int]:
        """Taxon payload for one k-mer, or ``None`` (miss)."""
        raise NotImplementedError

    def query(self, kmers: Sequence[int]) -> ResultBatch:
        queries = key_array(kmers)
        results = ResultBatch.from_payloads(
            queries, [self.get(kmer) for kmer in queries.tolist()]
        )
        self._backend_stats.record(results)
        return results


__all__ = [
    "ApiError",
    "BackendCapabilities",
    "BackendResult",
    "BackendStats",
    "QueryBackend",
    "QueryBackendBase",
    "ResultBatch",
    "ScalarQueryBackendBase",
    "classification_from_results",
    "key_array",
]
