"""Deterministic trace replay against an about-to-run service.

:func:`replay_trace` is the replay every regression surface uses (bench
scenarios, goldens): pre-enqueue all requests in arrival
order on a fresh event loop, then start the service, gather, and drain.
With zero linger and a single-threaded loop, batch composition is a
pure function of the trace and the config — replaying the same trace
yields bit-identical classifications at any shard count.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from typing import Any, List, Optional

from .trace import Trace


def classification_digest(responses: List[Any]) -> str:
    """SHA-256 over the canonical JSON of a replay's classifications.

    The trace-replay goldens (``tests/data``, ``docs/TESTING.md``) pin
    this digest: it covers every field classification depends on —
    read id, winning taxon, the full vote table, and the hit counts —
    in response (= trace) order, so any answer drift at any shard
    count or cache mode changes the digest.
    """
    rows = [
        {
            "read_id": r.classification.read_id,
            "taxon": r.classification.taxon,
            "votes": {
                str(taxon): count
                for taxon, count in sorted(r.classification.votes.items())
            },
            "kmers_total": r.classification.kmers_total,
            "kmers_hit": r.classification.kmers_hit,
        }
        for r in responses
    ]
    canon = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def replay_trace(
    service: Any,
    trace: Trace,
    *,
    deadline_s: Optional[float] = None,
) -> List[Any]:
    """Deterministic replay: pre-enqueue, serve, drain, return answers.

    The service must not be started yet and its ``queue_depth`` must
    admit the whole trace.  Responses come back in trace order.
    """

    async def serve() -> List[Any]:
        futures = [
            service.submit(read, deadline_s=deadline_s)
            for read in trace.reads()
        ]
        await service.start()
        responses = await asyncio.gather(*futures)
        await service.stop(drain=True)
        return list(responses)

    return asyncio.run(serve())


__all__ = [
    "classification_digest",
    "replay_trace",
]
