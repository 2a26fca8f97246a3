"""Outside-in layer tracing: timers wrapped around public functions.

The benchmark measures layers without touching the program: before a
traced phase, :class:`Tracer` replaces each function in :data:`TARGETS`
with a timing wrapper at the name its caller actually looks up (a class
attribute for methods, the importing module's global for functions a
module imported by name), and restores the originals afterwards.

Each wrapper keeps a per-thread span stack, so every span records the
span that called it.  A span's *self time* is its duration minus the
durations of its direct children; on one thread the self times of all
spans plus the time inside no span add up to the phase's wall time.

Spans stay in memory and are written once, at the end, as Chrome
trace-event JSON (opens in Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: ``(layer.fn metric name, module, owner attribute or None, function
#: attribute)``.  ``owner=None`` patches a module global: the module is
#: the *caller's*, so the wrapper sits where the name is looked up.  The
#: layer prefix is the module that defines the function.
TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("service.server.submit", "repro.service.server", "ClassificationService", "submit"),
    ("service.server.submit_mapping", "repro.service.server", "ClassificationService", "submit_mapping"),
    ("service.cache.plan", "repro.service.cache", "KmerResultCache", "plan"),
    ("service.cache.complete", "repro.service.cache", "KmerResultCache", "complete"),
    ("service.cache.price_batch", "repro.service.cache", "KmerResultCache", "price_batch"),
    ("service.dispatcher.vote", "repro.service.dispatcher", None, "classification_from_results"),
    ("sieve.device.query", "repro.sieve.device", "SieveDevice", "query"),
    ("sieve.functional.load_query_batch", "repro.sieve.functional", "SieveSubarraySim", "load_query_batch"),
    ("sieve.functional.match_all", "repro.sieve.functional", "SieveSubarraySim", "match_all"),
    ("sieve.kernels.pack_bit_columns", "repro.sieve.kernels", None, "pack_bit_columns"),
    ("sieve.kernels.segment_divergence", "repro.sieve.kernels", None, "segment_divergence"),
    ("cluster.backend.query", "repro.cluster.backend", "ClusterBackend", "query"),
    ("cluster.partition.partition_ids", "repro.cluster.backend", None, "partition_ids"),
    ("genomics.encoding.canonical_kmers", "repro.cluster.backend", None, "canonical_kmers"),
    ("mapping.pipeline.extend", "repro.mapping.pipeline", "SeedExtender", "extend"),
    ("mapping.seeds.candidates", "repro.mapping.seeds", "SeedIndex", "candidates"),
    ("mapping.aligner.semiglobal_distance", "repro.mapping.pipeline", None, "semiglobal_distance"),
)

#: Metric names of the traced functions, in :data:`TARGETS` order.
SPAN_NAMES: Tuple[str, ...] = tuple(target[0] for target in TARGETS)


@dataclass(frozen=True)
class Span:
    """One finished call of a wrapped function."""

    name: str
    thread: int
    start: float
    end: float
    span_id: int
    parent_id: int  # 0 = no traced caller on this thread

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs timing wrappers and collects spans (see module doc)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``(request id, sent, done)`` async spans, one per request.
        self.requests: List[Tuple[int, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; :meth:`remove` restores the originals."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for name, module_name, owner_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr] if owner_name else getattr(module, attr)
            setattr(owner, attr, self._wrap(name, original))
            self._patched.append((owner, attr, original))

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn: Any) -> Any:
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent_id = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    Span(name, threading.get_ident(), start, end, span_id, parent_id)
                )

        return traced

    def record_request(self, request_id: int, sent: float, done: float) -> None:
        self.requests.append((request_id, sent, done))

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Self time of every span, keyed by span id."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent_id:
                child_time[span.parent_id] += span.duration
        return {s.span_id: s.duration - child_time[s.span_id] for s in self.spans}

    def layer_table(self, wall_s: float) -> Dict[str, Dict[str, float]]:
        """Per-function calls, self seconds and self share of ``wall_s``.

        ``harness.unattributed`` is the main thread's time inside no
        span (event loop, asyncio, the harness itself).  Worker-thread
        spans have their own clock budget, so their self times are
        reported but excluded from that remainder.
        """
        selfs = self.self_times()
        main = threading.main_thread().ident
        calls: Dict[str, int] = {name: 0 for name in SPAN_NAMES}
        self_s: Dict[str, float] = {name: 0.0 for name in SPAN_NAMES}
        main_self = 0.0
        for span in self.spans:
            calls[span.name] += 1
            self_s[span.name] += selfs[span.span_id]
            if span.thread == main:
                main_self += selfs[span.span_id]
        table = {
            name: {
                "calls": calls[name],
                "self_s": self_s[name],
                "self_share": self_s[name] / wall_s,
            }
            for name in SPAN_NAMES
        }
        rest = wall_s - main_self
        table["harness.unattributed"] = {
            "calls": 0,
            "self_s": rest,
            "self_share": rest / wall_s,
        }
        return table

    def worker_busy_s(self) -> float:
        """Time covered by top-level spans on threads other than main."""
        main = threading.main_thread().ident
        return sum(
            s.duration for s in self.spans if s.thread != main and not s.parent_id
        )

    # -- export -------------------------------------------------------------

    def write_chrome_trace(self, path: str, origin: float) -> None:
        """Chrome trace-event JSON; ``origin`` is the phase start."""
        pid = os.getpid()
        threads: Dict[int, int] = {threading.main_thread().ident: 0}
        for span in self.spans:
            threads.setdefault(span.thread, len(threads))
        events: List[Dict[str, Any]] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": "main" if tid == 0 else f"worker-{tid}"},
            }
            for tid in threads.values()
        ]
        for span in self.spans:
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.rsplit(".", 1)[0],
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": pid,
                    "tid": threads[span.thread],
                    "args": {"span": span.span_id, "parent": span.parent_id},
                }
            )
        for request_id, sent, done in self.requests:
            for phase, stamp in (("b", sent), ("e", done)):
                events.append(
                    {
                        "name": "request",
                        "cat": "harness.request",
                        "ph": phase,
                        "id": request_id,
                        "ts": (stamp - origin) * 1e6,
                        "pid": pid,
                        "tid": 0,
                        "args": {"request": request_id},
                    }
                )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
