"""Shard worker: bounded queue + micro-batching dispatch loop.

One :class:`ShardWorker` owns one :class:`repro.api.QueryBackend`
replica.  Its loop blocks on the queue, then coalesces whatever else is
waiting — up to ``max_batch_kmers`` k-mers, lingering at most
``max_linger_s`` for stragglers — encodes their reads' k-mers into one
``uint64`` array in one pass, makes a single batched ``query()`` call
on it, and slices the flat :class:`~repro.api.ResultBatch` back into
per-request classifications through the same vote-counting helper every
sequential path uses (:func:`repro.api.classification_from_results`).
That shared slicing is why coalescing is bit-identical to sequential
execution; each slice is a view of the batch's columns, so no per-k-mer
record is built on the way.

Each batch is priced on two clocks: host wall time around the
``query()`` call, and *simulated device time* from the backend's
functional counter delta run through the command ledger
(``perf_counters()`` / ``batch_cost()``; zero for backends that don't
simulate a device).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import hooks
from ..api import QueryBackend, ResultBatch, classification_from_results
from ..genomics.encoding import pack_batch_kmers
from .cache import BatchCachePlan, CacheCoherencyError, KmerResultCache
from .config import ServiceConfig
from .metrics import MetricsRegistry


class ServiceError(RuntimeError):
    """Base class for service-level failures."""


class ShardCrashError(ServiceError):
    """A shard worker died (chaos-injected or real crash)."""


class RejectedError(ServiceError):
    """429-style backpressure: the shard's queue is full.

    Carries ``retry_after_s``, the server's hint for when to retry.
    """

    def __init__(self, shard_id: int, retry_after_s: float) -> None:
        super().__init__(
            f"shard {shard_id} queue full; retry after {retry_after_s}s"
        )
        self.shard_id = shard_id
        self.retry_after_s = retry_after_s


class DeadlineExceededError(ServiceError):
    """The request's deadline passed before its batch dispatched."""


@dataclass
class ShardHealth:
    """Per-replica health: lifecycle state plus fault counters.

    ``state`` is one of ``"healthy"``, ``"stalled"`` (temporarily
    paused mid-dispatch), or ``"crashed"`` (worker loop exited; the
    router stops sending it traffic).
    """

    state: str = "healthy"
    batches: int = 0
    crashes: int = 0
    stalls: int = 0
    redispatched: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "batches": self.batches,
            "crashes": self.crashes,
            "stalls": self.stalls,
            "redispatched": self.redispatched,
        }


@dataclass
class Request:
    """One enqueued read, resolved through ``future``.

    It carries the read and its k-mer *count*, not the k-mers:
    admission, coalescing targets, trace events and the per-request
    slicing need only the count, and the worker encodes a whole batch's
    reads in one pass at dispatch (:meth:`ShardWorker._prepare`).
    """

    read: Any
    num_kmers: int
    future: "asyncio.Future[ServiceResponse]"
    enqueued_at: float
    deadline: Optional[float] = None
    #: Service-scoped id for schedule tracing; ``None`` (standalone
    #: worker use) falls back to the object identity.
    req_id: Optional[int] = None
    #: When set, this is a *mapping* request: after the batch is sliced
    #: the per-request chunk also runs through this
    #: :class:`repro.mapping.SeedExtender` (a pure function of the read
    #: and its filter answers) and the result rides on
    #: ``ServiceResponse.mapping``.  The k-mer path — coalescing,
    #: dedup, cache, sanitizer events — is byte-for-byte the
    #: classification path's.
    extender: Optional[Any] = None


def _rid(request: Request) -> int:
    """The request's trace id (stable while the request is in flight)."""
    return request.req_id if request.req_id is not None else id(request)


@dataclass
class _InFlight:
    """A launched batch awaiting :meth:`ShardWorker._retire`."""

    #: Every request coalesced into the batch (each owes a task_done).
    batch: List[Request]
    #: The requests still live at launch and their encoded k-mers.
    live: List[Request]
    flat: Sequence[int]
    plan: Optional[BatchCachePlan]
    #: Resolves to the :meth:`ShardWorker._query_blocking` result;
    #: ``None`` when every request expired and nothing launched.
    future: Optional["asyncio.Future[Any]"]


@dataclass(frozen=True)
class ServiceResponse:
    """What a completed request resolves to."""

    classification: Any
    #: k-mers this request contributed to its batch.
    num_kmers: int
    #: How many of them hit.
    hits: int
    #: Requests coalesced into the batch this one rode in.
    coalesced_requests: int
    #: Total k-mers in that batch.
    batch_kmers: int
    #: Simulated device time / energy for the whole batch.
    sim_batch_ns: float
    sim_batch_energy_nj: float
    #: Wall-clock latency of this request, enqueue to completion.
    wall_ms: float
    #: :class:`repro.mapping.MappingResult` for mapping requests;
    #: ``None`` for plain classification requests.
    mapping: Any = None


class ShardWorker:
    """One backend replica behind a bounded queue and a dispatch loop."""

    def __init__(
        self,
        shard_id: int,
        backend: QueryBackend,
        config: ServiceConfig,
        metrics: MetricsRegistry,
        chaos: Optional[Any] = None,
        on_crash: Optional[
            Callable[[int, List["Request"]], Awaitable[None]]
        ] = None,
        scope: Optional[Any] = None,
        executor: Optional[Any] = None,
        cache: Optional[KmerResultCache] = None,
    ) -> None:
        self.shard_id = shard_id
        self.backend = backend
        self.config = config
        self.metrics = metrics
        #: Optional :class:`repro.faults.ChaosInjector` consulted before
        #: every batch (crash / stall / slow scheduling).
        self.chaos = chaos
        #: Failover callback: ``await on_crash(shard_id, orphans)``
        #: re-dispatches requests this shard can no longer serve.
        self._on_crash = on_crash
        #: Schedule-trace scope (the owning service; the worker itself
        #: when used standalone).  See :mod:`repro.hooks`.
        self.scope = scope if scope is not None else self
        #: Executor seam: when set, the blocking backend ``query()``
        #: runs off the event loop via ``run_in_executor``; when None
        #: (the deterministic default) it runs inline.
        self._executor = executor
        #: Dedup/cache planner shared service-wide (one cache serves
        #: every shard; see :mod:`repro.service.cache`).  ``None`` when
        #: the config disables the stage.  A standalone worker with a
        #: caching config builds its own from the backend's
        #: capabilities.
        if cache is None and config.cache_enabled:
            caps = backend.capabilities()
            cache = KmerResultCache(
                config.cache_capacity, caps.k, caps.canonical
            )
        self.cache = cache if config.cache_enabled else None
        self.k = backend.capabilities().k
        self.health = ShardHealth()
        self.queue: "asyncio.Queue[Request]" = asyncio.Queue(
            maxsize=config.queue_depth
        )
        self._batch_index = 0
        #: The host turn while :meth:`run` serves executor-less at
        #: depth 0 (``None`` otherwise), and the same lock while this
        #: shard holds it.
        self._turn: Optional[asyncio.Lock] = None
        self._held: Optional[asyncio.Lock] = None
        #: Accumulated simulated device cost across this shard's batches.
        self.sim_time_ns = 0.0
        self.sim_energy_nj = 0.0

    # -- intake ---------------------------------------------------------------

    def try_submit(self, request: Request) -> None:
        """Enqueue or reject; never blocks (backpressure surface)."""
        self.metrics.histogram("queue_depth").observe(self.queue.qsize())
        try:
            self.queue.put_nowait(request)
        except asyncio.QueueFull:
            self.metrics.counter("rejected_total").inc()
            raise RejectedError(
                self.shard_id, self.config.retry_after_s
            ) from None
        self.metrics.counter("submitted_total").inc()
        for observer in hooks.OBSERVERS:
            observer.on_request_admitted(
                self.scope, self.shard_id, _rid(request), request.num_kmers
            )

    # -- dispatch loop --------------------------------------------------------

    async def run(self, turn: Optional[asyncio.Lock] = None) -> None:
        """Serve until cancelled (or chaos-crashed).

        One pass per batch: accept, coalesce, consult chaos, prepare,
        retire the in-flight batch (if any), launch.  The in-flight
        depth is 1 under ``config.pipelined``: accept/coalesce/prepare
        of batch N+1 then overlaps device simulation of batch N on the
        executor.  Otherwise it is 0 and each batch retires right after
        launch.  At either depth one device batch runs per shard and
        launches only after its predecessor retired, so execution stays
        exactly-once and in admission order (the
        :class:`~repro.analysiskit.ScheduleSanitizer` invariants) and
        responses are identical; only the host/device overlap changes.

        Executor-less at depth 0, the loop yields once after every
        retire, so that batch's callers get their answers before the
        next batch starts.  The *host turn* ``turn`` (one lock the
        service shares between its shards; a standalone worker makes
        its own) keeps the batch schedule a strictly serial loop's: the
        shard takes it when it wakes with a request, keeps it across
        its batches and post-retire yields, and gives it up only where
        it waits on something else — the idle accept on an empty
        queue, the linger window, a chaos stall, the crash failover —
        and on exit.  Other shards run only then, as they would with no
        yield at all.

        A chaos crash retires the in-flight batch, then fails the new
        one *before* executing it (requests are never half-answered),
        hands every orphan to the failover callback, and exits.  On
        cancellation (``stop``) or any other exit, every request still
        unanswered — accepted, in flight, or queued — resolves with a
        :class:`ServiceError`.
        """
        loop = asyncio.get_running_loop()
        depth = 1 if self.config.pipelined else 0
        if depth == 0 and self._executor is None:
            self._turn = turn if turn is not None else asyncio.Lock()
        batch: List[Request] = []
        inflight: Optional[_InFlight] = None
        getter: Optional["asyncio.Task[Request]"] = None
        try:
            while True:
                if inflight is None:
                    # Idle accept: blocks until the next request arrives,
                    # by design unbounded (shutdown is via cancellation).
                    if self.queue.empty():
                        self._give_turn()
                    batch = [await self.queue.get()]  # lint: disable=SV010 (idle accept; cancelled on stop)
                    await self._take_turn()
                else:
                    # Wake on whichever lands first: the next request
                    # (coalesce batch N+1) or the in-flight batch N.
                    getter = asyncio.ensure_future(self.queue.get())
                    done, _ = await asyncio.wait({getter, inflight.future}, return_when=asyncio.FIRST_COMPLETED)  # lint: disable=SV010 (accept or retire, whichever lands first; cancelled on stop)
                    if inflight.future in done:
                        await self._retire(inflight, loop)
                        inflight = None
                    if getter not in done:
                        # Back to a plain accept; a cancelled queue.get
                        # leaves its request in the queue.
                        getter.cancel()
                        getter = None
                        continue
                    batch = [getter.result()]
                    getter = None
                await self._coalesce(batch)
                index = self._batch_index
                self._batch_index += 1
                for observer in hooks.OBSERVERS:
                    observer.on_batch_coalesced(
                        self.scope,
                        self.shard_id,
                        index,
                        [(_rid(req), req.num_kmers) for req in batch],
                    )
                action = (
                    self.chaos.before_batch(self.shard_id, index)
                    if self.chaos is not None
                    else None
                )
                if action is not None and action.stall_s > 0:
                    self.health.state = "stalled"
                    self.health.stalls += 1
                    self.metrics.counter("shard_stalls_total").inc()
                    self._give_turn()
                    await asyncio.sleep(action.stall_s)
                    await self._take_turn()
                    self.health.state = "healthy"
                if action is not None and action.crash:
                    if inflight is not None:
                        await self._retire(inflight, loop)
                        inflight = None
                    self._give_turn()
                    await self._fail(batch)
                    return
                live, flat = self._prepare(batch, loop)
                if inflight is not None:
                    await self._retire(inflight, loop)
                inflight = self._launch(batch, live, flat, index, loop)
                batch = []
                if depth == 0 or inflight.future is None:
                    await self._retire(inflight, loop)
                    inflight = None
                    if self._turn is not None:
                        await asyncio.sleep(0)  # hand this batch's answers out
        finally:
            self._give_turn()
            if getter is not None:
                if getter.done() and not getter.cancelled():
                    batch.append(getter.result())
                getter.cancel()
            self._release(batch)
            if inflight is not None:
                self._release(inflight.batch)
            self.release_queued()

    async def _take_turn(self) -> None:
        """Wait for the host turn (no-op when not serving serially)."""
        if self._turn is not None and self._held is None:
            await self._turn.acquire()
            self._held = self._turn

    def _give_turn(self) -> None:
        """Let another shard's batches run while this one waits."""
        if self._held is not None:
            self._held.release()
            self._held = None

    def _launch(
        self,
        batch: List[Request],
        live: List[Request],
        flat: Sequence[int],
        index: int,
        loop: "asyncio.AbstractEventLoop",
    ) -> _InFlight:
        """Start a prepared batch on the backend.

        This is the executor seam SV007 polices.  Cache planning and
        the execute event stay on the event loop, after the previous
        batch retired and populated the cache (so both depths build the
        same plan); the blocking backend ``query()``
        (:meth:`_query_blocking`) then runs inline when ``executor`` is
        unset — the deterministic default — or off the loop via
        ``run_in_executor``.  A batch whose requests all expired
        launches nothing.
        """
        if not live:
            return _InFlight(batch, live, flat, None, None)
        plan, send = self._plan_batch(flat)
        self._mark_executed(live, flat, index)
        self._mark_deduped(plan, index, len(send))
        if self._executor is not None:
            future = loop.run_in_executor(
                self._executor, self._query_blocking, send
            )
        else:
            future = loop.create_future()
            try:
                future.set_result(self._query_blocking(send))
            except Exception as exc:  # noqa: BLE001 - raised again at retire
                future.set_exception(exc)
        return _InFlight(batch, live, flat, plan, future)

    async def _retire(
        self, inflight: _InFlight, loop: "asyncio.AbstractEventLoop"
    ) -> None:
        """Complete a launched batch: the only path that answers it.

        A backend error answers the batch with that error instead of
        leaving it pending — callers see the failure rather than hang,
        and the shard goes on serving.  The queue slots are released
        only here, so ``drain()``'s ``queue.join()`` waits for in-flight
        device work.
        """
        try:
            if inflight.future is not None:
                try:
                    results, wall_batch_ms, delta = await inflight.future  # lint: disable=SV010 (the one in-flight device batch; the backend query always returns)
                except Exception as exc:  # noqa: BLE001 - surfaced to callers
                    self._fail_requests(inflight.live, exc)
                else:
                    self._finish(
                        inflight.live,
                        inflight.flat,
                        results,
                        wall_batch_ms,
                        delta,
                        loop,
                        inflight.plan,
                    )
            self.health.batches += 1
        finally:
            self._release(inflight.batch)

    def _take_queued(self) -> List[Request]:
        """Empty the queue without answering what it held."""
        queued: List[Request] = []
        while True:
            try:
                queued.append(self.queue.get_nowait())
            except asyncio.QueueEmpty:
                return queued

    def _release(self, requests: List[Request]) -> None:
        """Give back the queue slots of requests this worker is done
        with, first failing any still unanswered with a
        :class:`ServiceError`.  Empties ``requests``, so releasing the
        same list twice is harmless."""
        self._fail_requests(
            requests,
            ServiceError(f"shard {self.shard_id} stopped before answering"),
        )
        for _ in requests:
            self.queue.task_done()
        requests.clear()

    def release_queued(self) -> None:
        """Fail and release every request still waiting in the queue
        (shutdown; also covers a worker cancelled before it ever ran)."""
        self._release(self._take_queued())

    async def _fail(self, batch: List[Request]) -> None:
        """Crash path: mark the shard dead, orphan the batch + queued
        requests, and either fail them or hand them to failover.

        Releases ``batch``'s queue slots last (after failover re-queued
        its requests elsewhere, so ``drain()`` cannot slip past them)
        and empties it."""
        try:
            self.health.state = "crashed"
            self.health.crashes += 1
            self.metrics.counter("shard_crashes_total").inc()
            orphans = [req for req in batch if not req.future.done()]
            # task_done for each queued request so drain() can complete.
            queued = self._take_queued()
            for _ in queued:
                self.queue.task_done()
            orphans.extend(queued)
            if not orphans:
                return
            self.health.redispatched += len(orphans)
            self.metrics.counter("redispatched_total").inc(len(orphans))
            for observer in hooks.OBSERVERS:
                observer.on_requests_orphaned(
                    self.scope, self.shard_id, [_rid(req) for req in orphans]
                )
            if self._on_crash is not None:
                await self._on_crash(self.shard_id, orphans)
            else:
                self._fail_requests(
                    orphans,
                    ShardCrashError(
                        f"shard {self.shard_id} crashed; no failover"
                    ),
                )
        finally:
            for _ in batch:
                self.queue.task_done()
            batch.clear()

    def _fail_requests(
        self, requests: List[Request], exc: BaseException
    ) -> None:
        """Resolve every still-waiting request with ``exc``."""
        for req in requests:
            if not req.future.done():
                req.future.set_exception(exc)
                for observer in hooks.OBSERVERS:
                    observer.on_request_failed(
                        self.scope, self.shard_id, _rid(req)
                    )

    async def _coalesce(self, batch: List[Request]) -> None:
        """Grow ``batch`` until the k-mer target or the linger expires."""
        target = self.config.max_batch_kmers
        gathered = sum(r.num_kmers for r in batch)
        if self.config.max_linger_s <= 0:
            while gathered < target:
                try:
                    nxt = self.queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                batch.append(nxt)
                gathered += nxt.num_kmers
            return
        loop = asyncio.get_running_loop()
        close_at = loop.time() + self.config.max_linger_s
        if gathered < target:
            self._give_turn()  # other shards run while this one lingers
        while gathered < target:
            remaining = close_at - loop.time()
            if remaining <= 0:
                break
            try:
                nxt = await asyncio.wait_for(self.queue.get(), remaining)
            except asyncio.TimeoutError:
                break
            batch.append(nxt)
            gathered += nxt.num_kmers
        await self._take_turn()

    def _prepare(
        self, batch: List[Request], loop: "asyncio.AbstractEventLoop"
    ) -> Tuple[List[Request], Sequence[int]]:
        """Host-side half of a batch: expire deadlines, then encode the
        live reads' k-mers into one array (:func:`pack_batch_kmers`;
        the reads' bases were checked at admission).

        This is the work pipelined dispatch overlaps with the previous
        batch's device simulation; it never touches the backend.
        """
        now = loop.time()
        live: List[Request] = []
        for req in batch:
            if req.deadline is not None and now > req.deadline:
                self.metrics.counter("deadline_expired_total").inc()
                if not req.future.done():
                    req.future.set_exception(
                        DeadlineExceededError(
                            f"deadline passed {now - req.deadline:.4f}s "
                            f"before dispatch on shard {self.shard_id}"
                        )
                    )
                    for observer in hooks.OBSERVERS:
                        observer.on_request_expired(
                            self.scope, self.shard_id, _rid(req)
                        )
            else:
                live.append(req)
        return live, pack_batch_kmers([req.read.bases for req in live], self.k)

    def _mark_executed(
        self, live: List[Request], flat: Sequence[int], index: int
    ) -> None:
        """Trace the execute event at the moment the batch launches."""
        for observer in hooks.OBSERVERS:
            observer.on_batch_executed(
                self.scope,
                self.shard_id,
                index,
                [_rid(req) for req in live],
                len(flat),
            )

    def _plan_batch(
        self, flat: Sequence[int]
    ) -> Tuple[Optional[BatchCachePlan], Sequence[int]]:
        """Dedup/cache planning at batch launch (event-loop thread).

        Returns the plan (``None`` when the stage is disabled) and the
        k-mers actually sent to the backend: the unique cache
        misses under dedup, or the full batch in self-check (shadow)
        mode where the device re-answers everything for comparison.
        """
        if self.cache is None:
            return None, flat
        plan = self.cache.plan(flat)
        if self.config.cache_self_check:
            return plan, flat
        return plan, plan.device_kmers

    def _mark_deduped(
        self, plan: Optional[BatchCachePlan], index: int, device_kmers: int
    ) -> None:
        """Trace the dedup/cache split right after the execute event."""
        if plan is None:
            return
        for observer in hooks.OBSERVERS:
            observer.on_batch_deduped(
                self.scope,
                self.shard_id,
                index,
                plan.total_kmers,
                plan.unique_kmers,
                plan.cache_hits,
                device_kmers,
            )

    def _query_blocking(
        self, flat: Sequence[int]
    ) -> Tuple[ResultBatch, float, Dict[str, int]]:
        """The blocking half of a batch (safe off the event loop)."""
        wall_start = time.perf_counter()
        before = self.backend.perf_counters()
        results = (
            self.backend.query(flat)
            if len(flat)
            else ResultBatch.from_payloads((), ())
        )
        wall_batch_ms = (time.perf_counter() - wall_start) * 1e3
        after = self.backend.perf_counters()
        delta = {key: after[key] - before.get(key, 0) for key in after}
        return results, wall_batch_ms, delta

    def _finish(
        self,
        live: List[Request],
        flat: Sequence[int],
        results: ResultBatch,
        wall_batch_ms: float,
        delta: Dict[str, int],
        loop: "asyncio.AbstractEventLoop",
        plan: Optional[BatchCachePlan] = None,
    ) -> None:
        sim_ns, sim_nj = (
            self.backend.batch_cost(delta) if delta else (0.0, 0.0)
        )
        self.sim_time_ns += sim_ns
        self.sim_energy_nj += sim_nj

        m = self.metrics
        if plan is not None and self.cache is not None:
            # ``results`` currently answers what was *sent* (the miss
            # representatives, or the full batch in shadow mode);
            # reassemble the full per-position batch so the request
            # slicing below is untouched by caching.
            device_executed = len(results)
            if self.config.cache_self_check:
                served = self.cache.complete(
                    plan, results[plan.device_positions]
                )
                try:
                    self.cache.self_check(plan, served, results)
                except CacheCoherencyError as exc:
                    # Fail the batch loudly rather than serving a wrong
                    # answer — and resolve every waiting future so the
                    # coherency error surfaces to callers instead of
                    # hanging them behind a dead worker.
                    self._fail_requests(live, exc)
                    raise
                results = served
            else:
                results = self.cache.complete(plan, results)
            self.cache.price_batch(plan, device_executed, sim_ns)
            m.counter("cache_hit_keys_total").inc(plan.cache_hits)
            m.counter("cache_miss_keys_total").inc(len(plan.device_keys))
            m.counter("dedup_kmers_total").inc(plan.dedup_kmers)
            m.counter("cache_saved_kmers_total").inc(plan.saved_kmers)
            m.counter("device_kmers_total").inc(device_executed)
        m.counter("batches_total").inc()
        m.counter("kmers_total").inc(len(flat))
        m.counter("hits_total").inc(int(np.count_nonzero(results.hit)))
        m.histogram("batch_occupancy").observe(len(live))
        m.histogram("batch_kmers").observe(len(flat))
        m.histogram("batch_wall_ms").observe(wall_batch_ms)
        m.histogram("batch_sim_ns").observe(sim_ns)

        pos = 0
        for req in live:
            chunk = results[pos : pos + req.num_kmers]
            pos += req.num_kmers
            classification = classification_from_results(
                req.read.seq_id,
                chunk,
                true_taxon=getattr(req.read, "taxon_id", None),
            )
            mapping = None
            if req.extender is not None:
                # Pure function of (read, chunk): identical no matter
                # which shard, batch, or cache plan served the k-mers.
                mapping = req.extender.extend(req.read, chunk)
                m.counter("mapping_requests_total").inc()
                if mapping.mapped:
                    m.counter("mapping_mapped_total").inc()
                m.histogram("mapping_candidates").observe(
                    mapping.candidates
                )
            # Stamped after this request's own extension, so the
            # reported latency covers it (and every earlier extension
            # of the batch its future waited behind).
            wall_ms = (loop.time() - req.enqueued_at) * 1e3
            m.histogram("request_latency_ms").observe(wall_ms)
            m.counter("completed_total").inc()
            if not req.future.done():
                req.future.set_result(
                    ServiceResponse(
                        classification=classification,
                        num_kmers=req.num_kmers,
                        hits=int(np.count_nonzero(chunk.hit)),
                        coalesced_requests=len(live),
                        batch_kmers=len(flat),
                        sim_batch_ns=sim_ns,
                        sim_batch_energy_nj=sim_nj,
                        wall_ms=wall_ms,
                        mapping=mapping,
                    )
                )
                for observer in hooks.OBSERVERS:
                    observer.on_request_completed(
                        self.scope, self.shard_id, _rid(req), req.num_kmers
                    )
