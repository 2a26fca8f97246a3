"""Runtime DRAM protocol sanitizer — the simulator's AddressSanitizer.

Subscribes to the :mod:`repro.hooks` seam and validates, while the
trace-driven models run:

* **per bank/subarray command order** — ACTIVATE before READ/WRITE,
  PRECHARGE before re-ACTIVATE, reads/writes target the open row;
* **accounting sanity** — command counts never go negative, and every
  ledger's ``serial_time_ns``/``energy_nj`` are finite and monotone
  non-decreasing;
* **replay classification** — a :class:`~repro.dram.memsys.MemorySystem`
  access reported as hit/miss/conflict must agree with the sanitizer's
  independent open-row mirror, and must charge exactly the latency its
  classification implies.

Violations raise :class:`SanitizerError` carrying the recent command
history of the offending unit.  Enabled by ``SIEVE_SANITIZE=1`` (see
:func:`enable_from_env`), the CLI's ``--sanitize`` flag, or directly via
:func:`enable_sanitizer`; with no subscriber the hot paths pay an empty
loop per event.
"""

from __future__ import annotations

import math
import os
import weakref
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro import hooks

#: One history entry: (sequence number, unit, event, detail).
HistoryEvent = Tuple[int, str, str, str]

_ENV_VAR = "SIEVE_SANITIZE"
_TRUTHY = ("1", "true", "on", "yes")


class SanitizerError(RuntimeError):
    """A DRAM protocol or accounting invariant was violated.

    ``unit`` names the offending bank/subarray/ledger; ``history`` is
    the unit's recent command stream (oldest first), ending with the
    violating event.
    """

    def __init__(self, message: str, unit: str, history: List[HistoryEvent]):
        self.raw_message = message
        self.unit = unit
        self.history = [tuple(event) for event in history]
        trace = "\n".join(
            f"  #{seq} [{hist_unit}] {event}: {detail}"
            for seq, hist_unit, event, detail in self.history
        )
        super().__init__(
            f"{message} (unit {unit})\ncommand history (oldest first):\n{trace}"
        )

    def __reduce__(self):
        # Exceptions with multi-argument constructors do not pickle by
        # default; fleet workers must ship violations (with their
        # command history) across the process boundary intact.
        return (type(self), (self.raw_message, self.unit, self.history))


class ProtocolSanitizer(hooks.Observer):
    """Validates DRAM command streams and ledger accounting invariants.

    Overrides the DRAM events of :class:`repro.hooks.Observer` and adds a
    direct :meth:`observe_command` API for raw per-unit command streams
    (ACT / RD / WR / PRE).
    """

    def __init__(self, history_limit: int = 32) -> None:
        self.history_limit = history_limit
        self.violations_raised = 0
        self.events_observed = 0
        self._histories: Dict[str, Deque[HistoryEvent]] = {}
        #: Open row per unit; absent or None means precharged.
        self._open_rows: Dict[str, Optional[int]] = {}
        #: ``id(obj) -> (weakref, index)``.  The weakref detects id reuse:
        #: CPython recycles addresses after GC, and a plain id-keyed table
        #: would hand a new MemorySystem/CommandLedger a dead object's
        #: label — and with it that unit's open-row mirror, producing
        #: spurious protocol violations.
        self._memsys_ids: Dict[int, Tuple[weakref.ref, int]] = {}
        self._ledger_ids: Dict[int, Tuple[weakref.ref, int]] = {}
        self._label_counts: Dict[str, int] = {}

    # -- bookkeeping --------------------------------------------------------

    def reset(self) -> None:
        """Drop all tracked state (between independent simulations)."""
        self._histories.clear()
        self._open_rows.clear()
        self._memsys_ids.clear()
        self._ledger_ids.clear()
        self._label_counts.clear()

    def _note(self, unit: str, event: str, detail: str) -> None:
        self.events_observed += 1
        history = self._histories.get(unit)
        if history is None:
            history = deque(maxlen=self.history_limit)
            self._histories[unit] = history
        history.append((self.events_observed, unit, event, detail))

    def _fail(self, message: str, unit: str) -> None:
        self.violations_raised += 1
        raise SanitizerError(
            message, unit, list(self._histories.get(unit, []))
        )

    def history_for(self, unit: str) -> List[HistoryEvent]:
        """The recent command history of one unit (oldest first)."""
        return list(self._histories.get(unit, []))

    def _label(
        self, table: Dict[int, Tuple[weakref.ref, int]], obj: Any, prefix: str
    ) -> str:
        key = id(obj)
        entry = table.get(key)
        if entry is None or entry[0]() is not obj:
            # First sighting — or the id belonged to an object that has
            # since been collected.  Either way this is a *new* unit and
            # must get a fresh label, never the dead object's state.
            index = self._label_counts.get(prefix, 0)
            self._label_counts[prefix] = index + 1
            entry = (weakref.ref(obj), index)
            table[key] = entry
        return f"{prefix}{entry[1]}"

    # -- raw command-stream protocol ---------------------------------------

    def observe_command(
        self, unit: str, command: str, row: Optional[int] = None
    ) -> None:
        """Validate one raw command (``ACT``/``RD``/``WR``/``PRE``) on a unit."""
        self._note(unit, command, f"row={row}")
        open_row = self._open_rows.get(unit)
        if command == "ACT":
            if open_row is not None:
                self._fail(
                    f"ACTIVATE of row {row} while row {open_row} is open "
                    "(missing PRECHARGE)",
                    unit,
                )
            self._open_rows[unit] = row
        elif command in ("RD", "WR"):
            verb = "READ" if command == "RD" else "WRITE"
            if open_row is None:
                self._fail(f"{verb} before any ACTIVATE", unit)
            if row is not None and open_row != row:
                self._fail(
                    f"{verb} targets row {row} but row {open_row} is open",
                    unit,
                )
        elif command == "PRE":
            self._open_rows[unit] = None
        else:
            self._fail(f"unknown DRAM command {command!r}", unit)

    # -- CommandLedger observers -------------------------------------------

    def _check_ledger(self, ledger: Any, unit: str) -> None:
        for command, count in ledger.counts.items():
            if count < 0:
                self._fail(
                    f"negative count {count} for {command.name}", unit
                )
        time_ns = ledger.serial_time_ns
        energy_nj = ledger.energy_nj
        if not (math.isfinite(time_ns) and math.isfinite(energy_nj)):
            self._fail(
                f"non-finite accounting: serial_time_ns={time_ns}, "
                f"energy_nj={energy_nj}",
                unit,
            )
        prev_time, prev_energy = getattr(ledger, "_sanitizer_shadow", (0.0, 0.0))
        if time_ns < prev_time:
            self._fail(
                f"serial_time_ns went backwards: {prev_time} -> {time_ns}",
                unit,
            )
        if energy_nj < prev_energy:
            self._fail(
                f"energy_nj went backwards: {prev_energy} -> {energy_nj}",
                unit,
            )
        ledger._sanitizer_shadow = (time_ns, energy_nj)

    def on_ledger_record(self, ledger: Any, command: Any, count: int) -> None:
        unit = self._label(self._ledger_ids, ledger, "ledger")
        self._note(unit, command.name, f"count={count}")
        if count < 0:
            self._fail(f"negative event count {count}", unit)
        self._check_ledger(ledger, unit)

    def on_ledger_time(self, ledger: Any, ns: float) -> None:
        unit = self._label(self._ledger_ids, ledger, "ledger")
        self._note(unit, "ADD_TIME", f"ns={ns}")
        self._check_ledger(ledger, unit)

    def on_ledger_energy(self, ledger: Any, nj: float) -> None:
        unit = self._label(self._ledger_ids, ledger, "ledger")
        self._note(unit, "ADD_ENERGY", f"nj={nj}")
        self._check_ledger(ledger, unit)

    def on_ledger_merge(self, ledger: Any, other: Any, parallel: bool) -> None:
        unit = self._label(self._ledger_ids, ledger, "ledger")
        self._note(unit, "MERGE", f"parallel={parallel}")
        self._check_ledger(ledger, unit)

    # -- MemorySystem observer ---------------------------------------------

    def on_memsys_access(
        self, system: Any, bank: int, row: int, kind: str, latency_ns: float
    ) -> None:
        sys_label = self._label(self._memsys_ids, system, "memsys")
        unit = f"{sys_label}:bank{bank}"
        open_row = self._open_rows.get(unit)
        timing = system.timing
        if kind == "hit":
            expected_ns = timing.tCAS + timing.burst_time
            if open_row != row:
                self._note(unit, "RD", f"row={row}")
                self._fail(
                    f"row-hit claimed for row {row} but open row is "
                    f"{open_row}",
                    unit,
                )
            self.observe_command(unit, "RD", row)
        elif kind == "miss":
            expected_ns = timing.tRCD + timing.tCAS + timing.burst_time
            if open_row is not None:
                self._note(unit, "ACT", f"row={row}")
                self._fail(
                    f"row-miss claimed for row {row} but row {open_row} "
                    "is open (missing PRECHARGE accounting)",
                    unit,
                )
            self.observe_command(unit, "ACT", row)
            self.observe_command(unit, "RD", row)
        elif kind == "conflict":
            expected_ns = (
                timing.tRP + timing.tRCD + timing.tCAS + timing.burst_time
            )
            if open_row is None:
                self._note(unit, "PRE", f"row={row}")
                self._fail(
                    f"row-conflict claimed for row {row} but the bank is "
                    "precharged (tRP charged for no open row)",
                    unit,
                )
            self.observe_command(unit, "PRE", None)
            self.observe_command(unit, "ACT", row)
            self.observe_command(unit, "RD", row)
        else:
            self._note(unit, "ACCESS", f"kind={kind}")
            self._fail(f"unknown access classification {kind!r}", unit)
        if latency_ns != expected_ns:
            # Exact comparison is intentional: the model and the check
            # evaluate the same timing expression, so any difference is
            # a real misclassification, not rounding.
            self._fail(
                f"{kind} access charged {latency_ns} ns, protocol implies "
                f"{expected_ns} ns",
                unit,
            )


# --------------------------------------------------------------------------
# ScheduleSanitizer — scheduling invariants for the sharded service
# --------------------------------------------------------------------------


class ScheduleViolation(SanitizerError):
    """A service scheduling invariant was violated.

    ``unit`` names the offending service scope and shard; ``history``
    is the scope's recent schedule-event trace (oldest first), ending
    with the violating event.
    """


class _RequestTrack:
    """Per-request lifecycle state inside one scope."""

    __slots__ = ("state", "kmers", "shard", "batch", "admit_pos")

    def __init__(self, kmers: int, shard: int, admit_pos: int = 0) -> None:
        self.state = "admitted"
        self.kmers = kmers
        self.shard = shard
        #: ``(shard_id, batch_index)`` once coalesced.
        self.batch: Optional[Tuple[int, int]] = None
        #: Per-shard admission sequence number (order the shard's queue
        #: received this request); execution must respect it.
        self.admit_pos = admit_pos


_TERMINAL_STATES = ("completed", "expired", "failed")


class _ScopeState:
    """Everything the sanitizer tracks for one service scope."""

    __slots__ = ("label", "requests", "coalesced", "executed",
                 "last_executed", "admit_counters", "exec_watermarks",
                 "exec_totals", "deduped", "history", "workers",
                 "partition_owner", "fanout", "replies", "merged_qids")

    def __init__(self, label: str, history_limit: int) -> None:
        self.label = label
        self.requests: Dict[int, _RequestTrack] = {}
        #: ``(shard, index) -> [req_id, ...]`` for every coalesced batch.
        self.coalesced: Dict[Tuple[int, int], List[int]] = {}
        self.executed: set = set()
        self.last_executed: Dict[int, int] = {}
        #: ``(shard, index) -> total_kmers`` of every executed batch —
        #: the admitted-k-mer total a dedup event must account for.
        self.exec_totals: Dict[Tuple[int, int], int] = {}
        #: Batches that already reported their dedup/cache split.
        self.deduped: set = set()
        #: Per-shard admission sequence counter.
        self.admit_counters: Dict[int, int] = {}
        #: Per-shard highest admit position already executed — executed
        #: requests must always move forward in admission order, even
        #: when a pipelined worker coalesces batch N+1 while batch N is
        #: still simulating.
        self.exec_watermarks: Dict[int, int] = {}
        self.history: Deque[HistoryEvent] = deque(maxlen=history_limit)
        #: Cluster topology (scope = a ClusterBackend):
        #: ``worker_id -> {"generation", "state"}`` where ``state``
        #: walks live -> draining -> exited.
        self.workers: Dict[int, Dict[str, Any]] = {}
        #: ``partition -> worker_id`` current ownership; survives a
        #: worker's exit so a rolling restart can reclaim it.
        self.partition_owner: Dict[int, int] = {}
        #: ``qid -> {worker_id: num_kmers}`` outstanding fan-out slices.
        self.fanout: Dict[int, Dict[int, int]] = {}
        #: ``qid -> {worker_id: num_kmers}`` received reply slices.
        self.replies: Dict[int, Dict[int, int]] = {}
        #: Queries whose slices already merged (double-merge guard).
        self.merged_qids: set = set()


class ScheduleSanitizer(hooks.Observer):
    """Verifies service scheduling invariants online.

    Overrides the service and cluster events of :class:`repro.hooks.Observer`
    and mirrors :class:`ProtocolSanitizer`: every event is appended to a
    bounded per-scope trace, invariants are checked as events arrive,
    and a violation raises :class:`ScheduleViolation` carrying the
    trace.  Invariants:

    * a request is admitted once (re-admission only after a crash
      orphaned it),
    * every batch executes **at most once**, with strictly monotone
      batch ids per shard, and a shard's executed requests move
      strictly forward in its admission order — the invariant that
      keeps pipelined dispatch (host prep of batch N+1 overlapping
      device simulation of batch N) honest,
    * an executed batch's live slice partitions its k-mers exactly
      (coalescing slices are re-voted before reply, never split),
    * when the dedup/cache stage is on, each executed batch reports its
      split exactly once and it conserves the executed total — every
      admitted k-mer is a duplicate fold, a cache hit, or device work,
      and the device covers at least every unique miss
      (``on_batch_deduped``; no request can be dropped or
      double-answered through the cache),
    * a request resolves exactly once — completion, deadline expiry, or
      failure — and completion carries its admitted k-mer count,
    * at quiesce (drain complete) no admitted request is still pending,
    * cluster events (scope = a :class:`repro.cluster.ClusterBackend`):
      worker generations increase across restarts and walk live ->
      draining -> exited; a partition is only ever claimed by one
      worker id (placement is static; a respawn reclaims its own);
      fan-out targets only live workers; each slice is answered exactly
      once with the fanned-out k-mer count; a worker never exits with
      unanswered fan-out; and a merge covers every slice with counts
      summing to the batch — zero lost or double-answered requests
      across a rolling restart.

    State is keyed per scope (one :class:`ClassificationService` or
    standalone :class:`ShardWorker`) through a ``WeakKeyDictionary``,
    so one subscribed sanitizer polices any number of services without
    leaking state between them or outliving them.
    """

    def __init__(self, history_limit: int = 64) -> None:
        self.history_limit = history_limit
        self.violations_raised = 0
        self.events_observed = 0
        self._scopes: "weakref.WeakKeyDictionary[Any, _ScopeState]" = (
            weakref.WeakKeyDictionary()
        )
        self._scope_count = 0

    # -- bookkeeping --------------------------------------------------------

    def reset(self) -> None:
        """Drop all tracked state (between independent services)."""
        self._scopes.clear()

    def _state(self, scope: Any) -> _ScopeState:
        state = self._scopes.get(scope)
        if state is None:
            state = _ScopeState(
                f"scope{self._scope_count}", self.history_limit
            )
            self._scope_count += 1
            self._scopes[scope] = state
        return state

    def _note(
        self, state: _ScopeState, shard_id: int, event: str, detail: str
    ) -> None:
        self.events_observed += 1
        unit = f"{state.label}:shard{shard_id}"
        state.history.append((self.events_observed, unit, event, detail))

    def _fail(self, message: str, state: _ScopeState, shard_id: int) -> None:
        self.violations_raised += 1
        raise ScheduleViolation(
            message, f"{state.label}:shard{shard_id}", list(state.history)
        )

    def history_for(self, scope: Any) -> List[HistoryEvent]:
        """The recent schedule trace of one scope (oldest first)."""
        state = self._scopes.get(scope)
        return list(state.history) if state is not None else []

    def pending_requests(self, scope: Any) -> int:
        """Requests admitted but not yet terminal (drain debugging)."""
        state = self._scopes.get(scope)
        if state is None:
            return 0
        return sum(
            1
            for track in state.requests.values()
            if track.state not in _TERMINAL_STATES
        )

    # -- service and cluster events -----------------------------------------

    def on_request_admitted(
        self, scope: Any, shard_id: int, req_id: int, num_kmers: int
    ) -> None:
        state = self._state(scope)
        self._note(
            state, shard_id, "ADMIT", f"req={req_id} kmers={num_kmers}"
        )
        admit_pos = state.admit_counters.get(shard_id, 0) + 1
        state.admit_counters[shard_id] = admit_pos
        track = state.requests.get(req_id)
        if track is None:
            state.requests[req_id] = _RequestTrack(
                num_kmers, shard_id, admit_pos
            )
            return
        if track.state in _TERMINAL_STATES:
            self._fail(
                f"request {req_id} re-admitted after terminal state "
                f"{track.state!r}",
                state,
                shard_id,
            )
        if track.state != "orphaned":
            self._fail(
                f"request {req_id} admitted twice (state {track.state!r}; "
                "only crash-orphaned requests may be re-dispatched)",
                state,
                shard_id,
            )
        if num_kmers != track.kmers:
            self._fail(
                f"request {req_id} re-admitted with {num_kmers} k-mers, "
                f"originally {track.kmers}",
                state,
                shard_id,
            )
        track.state = "admitted"
        track.shard = shard_id
        track.batch = None
        track.admit_pos = admit_pos

    def on_batch_coalesced(
        self,
        scope: Any,
        shard_id: int,
        batch_index: int,
        entries: List[Tuple[int, int]],
    ) -> None:
        state = self._state(scope)
        coords = (shard_id, batch_index)
        self._note(
            state,
            shard_id,
            "COALESCE",
            f"batch={batch_index} reqs={[rid for rid, _ in entries]}",
        )
        if coords in state.coalesced:
            self._fail(
                f"batch {batch_index} coalesced twice on shard {shard_id}",
                state,
                shard_id,
            )
        for req_id, num_kmers in entries:
            track = state.requests.get(req_id)
            if track is None:
                self._fail(
                    f"batch {batch_index} contains unknown request "
                    f"{req_id} (never admitted)",
                    state,
                    shard_id,
                )
                return
            if track.state != "admitted":
                self._fail(
                    f"request {req_id} coalesced in state "
                    f"{track.state!r} (expected 'admitted')",
                    state,
                    shard_id,
                )
            if track.shard != shard_id:
                self._fail(
                    f"request {req_id} admitted on shard {track.shard} "
                    f"but coalesced on shard {shard_id}",
                    state,
                    shard_id,
                )
            if num_kmers != track.kmers:
                self._fail(
                    f"request {req_id} coalesced with {num_kmers} "
                    f"k-mers, admitted with {track.kmers}",
                    state,
                    shard_id,
                )
            track.state = "batched"
            track.batch = coords
        state.coalesced[coords] = [rid for rid, _ in entries]

    def on_batch_executed(
        self,
        scope: Any,
        shard_id: int,
        batch_index: int,
        req_ids: List[int],
        total_kmers: int,
    ) -> None:
        state = self._state(scope)
        coords = (shard_id, batch_index)
        self._note(
            state,
            shard_id,
            "EXECUTE",
            f"batch={batch_index} reqs={list(req_ids)} kmers={total_kmers}",
        )
        if coords not in state.coalesced:
            self._fail(
                f"batch {batch_index} executed on shard {shard_id} "
                "without being coalesced",
                state,
                shard_id,
            )
        if coords in state.executed:
            self._fail(
                f"batch {batch_index} executed twice on shard {shard_id} "
                "(exactly-once violated)",
                state,
                shard_id,
            )
        last = state.last_executed.get(shard_id)
        if last is not None and batch_index <= last:
            self._fail(
                f"batch ids not monotone on shard {shard_id}: "
                f"{batch_index} after {last}",
                state,
                shard_id,
            )
        live_kmers = 0
        watermark = state.exec_watermarks.get(shard_id, 0)
        members = set(state.coalesced[coords])
        for req_id in req_ids:
            track = state.requests.get(req_id)
            if track is None or req_id not in members:
                self._fail(
                    f"executed batch {batch_index} contains request "
                    f"{req_id} that was not coalesced into it",
                    state,
                    shard_id,
                )
                return
            if track.state != "batched" or track.batch != coords:
                self._fail(
                    f"request {req_id} executed in state "
                    f"{track.state!r} (batch {track.batch})",
                    state,
                    shard_id,
                )
            # Admit-order execution: pipelined workers may coalesce
            # batch N+1 while batch N is still simulating, but a
            # shard's executed requests must still move strictly
            # forward in the order its queue admitted them.
            if track.admit_pos <= watermark:
                self._fail(
                    f"request {req_id} executed out of admission order "
                    f"on shard {shard_id} (admit position "
                    f"{track.admit_pos} at or behind watermark "
                    f"{watermark})",
                    state,
                    shard_id,
                )
            watermark = track.admit_pos
            live_kmers += track.kmers
        if live_kmers != total_kmers:
            self._fail(
                f"batch {batch_index} k-mer partition mismatch: live "
                f"requests sum to {live_kmers}, executed {total_kmers}",
                state,
                shard_id,
            )
        for req_id in members - set(req_ids):
            track = state.requests[req_id]
            if track.state not in _TERMINAL_STATES:
                self._fail(
                    f"request {req_id} dropped from executing batch "
                    f"{batch_index} while still {track.state!r}",
                    state,
                    shard_id,
                )
        state.executed.add(coords)
        state.last_executed[shard_id] = batch_index
        state.exec_totals[coords] = total_kmers
        state.exec_watermarks[shard_id] = watermark

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
        """Dedup/cache accounting for an executed batch.

        The execute event already proved the batch partitions its live
        requests' k-mers exactly; this event proves the dedup/cache
        stage conserves them: the split is reported once per batch,
        against the same total the execute event carried, with
        ``cache_hits <= unique_kmers <= total_kmers`` and the device
        receiving at least the unique misses and at most the full
        batch (the self-check shadow mode re-executes everything).
        Requests can therefore neither lose nor double-receive k-mers
        through the cache: every admitted k-mer is accounted for as a
        duplicate fold, a cache hit, or device work.
        """
        state = self._state(scope)
        coords = (shard_id, batch_index)
        self._note(
            state,
            shard_id,
            "DEDUP",
            f"batch={batch_index} total={total_kmers} "
            f"unique={unique_kmers} hits={cache_hits} "
            f"device={device_kmers}",
        )
        if coords not in state.executed:
            self._fail(
                f"batch {batch_index} reported a dedup split on shard "
                f"{shard_id} without an execute event",
                state,
                shard_id,
            )
        if coords in state.deduped:
            self._fail(
                f"batch {batch_index} reported its dedup split twice on "
                f"shard {shard_id}",
                state,
                shard_id,
            )
        executed_total = state.exec_totals.get(coords)
        if executed_total != total_kmers:
            self._fail(
                f"batch {batch_index} dedup total {total_kmers} does not "
                f"match its executed k-mer total {executed_total} "
                "(cache dropped or invented k-mers)",
                state,
                shard_id,
            )
        if not 0 <= cache_hits <= unique_kmers <= total_kmers:
            self._fail(
                f"batch {batch_index} dedup split inconsistent: "
                f"hits={cache_hits} unique={unique_kmers} "
                f"total={total_kmers}",
                state,
                shard_id,
            )
        if not unique_kmers - cache_hits <= device_kmers <= total_kmers:
            self._fail(
                f"batch {batch_index} device work {device_kmers} outside "
                f"[{unique_kmers - cache_hits}, {total_kmers}] (must cover "
                "every unique miss, never exceed the batch)",
                state,
                shard_id,
            )
        state.deduped.add(coords)

    def on_request_completed(
        self, scope: Any, shard_id: int, req_id: int, num_kmers: int
    ) -> None:
        state = self._state(scope)
        self._note(
            state, shard_id, "COMPLETE", f"req={req_id} kmers={num_kmers}"
        )
        track = state.requests.get(req_id)
        if track is None:
            self._fail(
                f"unknown request {req_id} completed", state, shard_id
            )
            return
        if track.state in _TERMINAL_STATES:
            self._fail(
                f"request {req_id} answered twice (already "
                f"{track.state!r})",
                state,
                shard_id,
            )
        if (
            track.state != "batched"
            or track.batch is None
            or track.batch not in state.executed
        ):
            self._fail(
                f"request {req_id} completed in state {track.state!r} "
                "without an executed batch",
                state,
                shard_id,
            )
        if num_kmers != track.kmers:
            self._fail(
                f"request {req_id} completed with {num_kmers} k-mers, "
                f"admitted with {track.kmers} (slice mis-partition)",
                state,
                shard_id,
            )
        track.state = "completed"

    def on_request_expired(
        self, scope: Any, shard_id: int, req_id: int
    ) -> None:
        state = self._state(scope)
        self._note(state, shard_id, "EXPIRE", f"req={req_id}")
        track = state.requests.get(req_id)
        if track is None:
            self._fail(f"unknown request {req_id} expired", state, shard_id)
            return
        if track.state in _TERMINAL_STATES:
            self._fail(
                f"request {req_id} expired after terminal state "
                f"{track.state!r}",
                state,
                shard_id,
            )
        track.state = "expired"

    def on_request_failed(
        self, scope: Any, shard_id: int, req_id: int
    ) -> None:
        state = self._state(scope)
        self._note(state, shard_id, "FAIL", f"req={req_id}")
        track = state.requests.get(req_id)
        if track is None:
            self._fail(f"unknown request {req_id} failed", state, shard_id)
            return
        if track.state in _TERMINAL_STATES:
            self._fail(
                f"request {req_id} failed after terminal state "
                f"{track.state!r} (double answer)",
                state,
                shard_id,
            )
        track.state = "failed"

    def on_requests_orphaned(
        self, scope: Any, shard_id: int, req_ids: List[int]
    ) -> None:
        state = self._state(scope)
        self._note(state, shard_id, "ORPHAN", f"reqs={list(req_ids)}")
        for req_id in req_ids:
            track = state.requests.get(req_id)
            if track is None:
                self._fail(
                    f"unknown request {req_id} orphaned", state, shard_id
                )
                return
            if track.state in _TERMINAL_STATES:
                self._fail(
                    f"request {req_id} orphaned after terminal state "
                    f"{track.state!r}",
                    state,
                    shard_id,
                )
            track.state = "orphaned"
            track.batch = None

    def on_service_quiesce(self, scope: Any) -> None:
        state = self._state(scope)
        self._note(state, -1, "QUIESCE", f"requests={len(state.requests)}")
        for req_id, track in state.requests.items():
            if track.state not in _TERMINAL_STATES:
                self._fail(
                    f"request {req_id} dropped: still {track.state!r} at "
                    "quiesce (admitted but never answered)",
                    state,
                    track.shard,
                )
        # The scope finished a full drain cycle; start fresh so a
        # reused service does not accumulate unbounded request state.
        try:
            del self._scopes[scope]
        except KeyError:
            pass

    # -- cluster events (scope = a repro.cluster.ClusterBackend) -------------

    def on_worker_spawned(
        self, scope: Any, worker_id: int, generation: int, partitions: Any
    ) -> None:
        state = self._state(scope)
        owned = sorted(partitions)
        self._note(
            state,
            worker_id,
            "SPAWN",
            f"worker={worker_id} gen={generation} partitions={owned}",
        )
        existing = state.workers.get(worker_id)
        if existing is not None and existing["state"] != "exited":
            self._fail(
                f"worker {worker_id} spawned while generation "
                f"{existing['generation']} is still "
                f"{existing['state']!r}",
                state,
                worker_id,
            )
        if existing is not None and generation <= existing["generation"]:
            self._fail(
                f"worker {worker_id} respawned with generation "
                f"{generation}, not above {existing['generation']} "
                "(generations must increase across restarts)",
                state,
                worker_id,
            )
        for partition in owned:
            owner = state.partition_owner.get(partition)
            if owner is not None and owner != worker_id:
                self._fail(
                    f"worker {worker_id} spawned claiming partition "
                    f"{partition} owned by worker {owner} (placement is "
                    "static: a partition has one owner for good)",
                    state,
                    worker_id,
                )
            state.partition_owner[partition] = worker_id
        state.workers[worker_id] = {"generation": generation, "state": "live"}

    def on_worker_draining(
        self, scope: Any, worker_id: int, generation: int
    ) -> None:
        state = self._state(scope)
        self._note(
            state, worker_id, "DRAIN", f"worker={worker_id} gen={generation}"
        )
        worker = state.workers.get(worker_id)
        if worker is None:
            self._fail(
                f"unknown worker {worker_id} draining", state, worker_id
            )
            return
        if worker["generation"] != generation:
            self._fail(
                f"worker {worker_id} draining with generation "
                f"{generation}, live generation is "
                f"{worker['generation']}",
                state,
                worker_id,
            )
        if worker["state"] != "live":
            self._fail(
                f"worker {worker_id} draining from state "
                f"{worker['state']!r} (expected 'live')",
                state,
                worker_id,
            )
        worker["state"] = "draining"

    def on_worker_exited(
        self, scope: Any, worker_id: int, generation: int
    ) -> None:
        state = self._state(scope)
        self._note(
            state, worker_id, "EXIT", f"worker={worker_id} gen={generation}"
        )
        worker = state.workers.get(worker_id)
        if worker is None:
            self._fail(
                f"unknown worker {worker_id} exited", state, worker_id
            )
            return
        if worker["generation"] != generation:
            self._fail(
                f"worker {worker_id} exited with generation {generation}, "
                f"live generation is {worker['generation']}",
                state,
                worker_id,
            )
        if worker["state"] == "exited":
            self._fail(
                f"worker {worker_id} exited twice", state, worker_id
            )
        outstanding = sorted(
            qid
            for qid, slices in state.fanout.items()
            if worker_id in slices
            and worker_id not in state.replies.get(qid, {})
        )
        if outstanding:
            self._fail(
                f"worker {worker_id} exited with unanswered fan-out for "
                f"queries {outstanding} (requests would be lost)",
                state,
                worker_id,
            )
        worker["state"] = "exited"

    def on_cluster_fanout(
        self, scope: Any, qid: int, worker_id: int, num_kmers: int
    ) -> None:
        state = self._state(scope)
        self._note(
            state,
            worker_id,
            "FANOUT",
            f"qid={qid} worker={worker_id} kmers={num_kmers}",
        )
        worker = state.workers.get(worker_id)
        if worker is None or worker["state"] != "live":
            self._fail(
                f"query {qid} fanned out to worker {worker_id} which is "
                f"{'unknown' if worker is None else worker['state']}",
                state,
                worker_id,
            )
            return
        if qid in state.merged_qids:
            self._fail(
                f"query {qid} fanned out after its merge", state, worker_id
            )
        slices = state.fanout.setdefault(qid, {})
        if worker_id in slices:
            self._fail(
                f"query {qid} fanned out to worker {worker_id} twice",
                state,
                worker_id,
            )
        slices[worker_id] = num_kmers

    def on_cluster_reply(
        self, scope: Any, qid: int, worker_id: int, num_kmers: int
    ) -> None:
        state = self._state(scope)
        self._note(
            state,
            worker_id,
            "REPLY",
            f"qid={qid} worker={worker_id} kmers={num_kmers}",
        )
        slices = state.fanout.get(qid, {})
        if worker_id not in slices:
            self._fail(
                f"worker {worker_id} replied to query {qid} without a "
                "fan-out slice",
                state,
                worker_id,
            )
            return
        replies = state.replies.setdefault(qid, {})
        if worker_id in replies:
            self._fail(
                f"worker {worker_id} replied to query {qid} twice "
                "(double answer)",
                state,
                worker_id,
            )
        if num_kmers != slices[worker_id]:
            self._fail(
                f"worker {worker_id} replied to query {qid} with "
                f"{num_kmers} k-mers, fanned out {slices[worker_id]}",
                state,
                worker_id,
            )
        replies[worker_id] = num_kmers

    def on_cluster_merged(
        self, scope: Any, qid: int, total_kmers: int
    ) -> None:
        state = self._state(scope)
        self._note(
            state, -1, "MERGE", f"qid={qid} kmers={total_kmers}"
        )
        if qid in state.merged_qids:
            self._fail(f"query {qid} merged twice", state, -1)
        slices = state.fanout.get(qid, {})
        replies = state.replies.get(qid, {})
        missing = sorted(set(slices) - set(replies))
        if missing:
            self._fail(
                f"query {qid} merged with unanswered fan-out to workers "
                f"{missing} (answers would be lost)",
                state,
                -1,
            )
        replied_total = sum(replies.values())
        if replied_total != total_kmers:
            self._fail(
                f"query {qid} merged {total_kmers} k-mers but slices sum "
                f"to {replied_total} (partition mismatch)",
                state,
                -1,
            )
        state.merged_qids.add(qid)
        state.fanout.pop(qid, None)
        state.replies.pop(qid, None)


# --------------------------------------------------------------------------
# Installation
# --------------------------------------------------------------------------


def _subscribed(kind: type) -> Optional[Any]:
    """The subscribed observer of type ``kind``, or ``None``."""
    return next((o for o in hooks.OBSERVERS if isinstance(o, kind)), None)


def _enable(kind: type, sanitizer: Optional[Any]) -> Any:
    """Subscribe ``sanitizer`` (a new ``kind`` when ``None`` and none is
    subscribed) in place of any other ``kind``; other observers stay."""
    current = _subscribed(kind)
    if sanitizer is None:
        if current is not None:
            return current
        sanitizer = kind()
    if current is not None:
        hooks.unsubscribe(current)
    hooks.subscribe(sanitizer)
    return sanitizer


def enable_sanitizer(
    sanitizer: Optional[ProtocolSanitizer] = None,
) -> ProtocolSanitizer:
    """Subscribe (and return) the active sanitizer; idempotent."""
    return _enable(ProtocolSanitizer, sanitizer)


def disable_sanitizer() -> None:
    """Unsubscribe the active sanitizer (no-op when none is subscribed)."""
    hooks.unsubscribe(_subscribed(ProtocolSanitizer))


def active_sanitizer() -> Optional[ProtocolSanitizer]:
    """The subscribed :class:`ProtocolSanitizer`, or ``None``."""
    return _subscribed(ProtocolSanitizer)


def sanitize_requested(environ: Optional[Dict[str, str]] = None) -> bool:
    """Whether ``SIEVE_SANITIZE`` asks for the sanitizer."""
    env = os.environ if environ is None else environ
    return env.get(_ENV_VAR, "").strip().lower() in _TRUTHY


def enable_from_env(
    environ: Optional[Dict[str, str]] = None,
) -> Optional[ProtocolSanitizer]:
    """Enable the sanitizer iff ``SIEVE_SANITIZE`` requests it."""
    if sanitize_requested(environ):
        return enable_sanitizer()
    return None


def enable_schedule_sanitizer(
    sanitizer: Optional[ScheduleSanitizer] = None,
) -> ScheduleSanitizer:
    """Subscribe (and return) the active schedule sanitizer; idempotent."""
    return _enable(ScheduleSanitizer, sanitizer)


def disable_schedule_sanitizer() -> None:
    """Unsubscribe the active schedule sanitizer (no-op when none)."""
    hooks.unsubscribe(_subscribed(ScheduleSanitizer))


def active_schedule_sanitizer() -> Optional[ScheduleSanitizer]:
    """The subscribed :class:`ScheduleSanitizer`, or ``None``."""
    return _subscribed(ScheduleSanitizer)


def enable_schedule_from_env(
    environ: Optional[Dict[str, str]] = None,
) -> Optional[ScheduleSanitizer]:
    """Enable the schedule sanitizer iff ``SIEVE_SANITIZE`` requests it."""
    if sanitize_requested(environ):
        return enable_schedule_sanitizer()
    return None
