"""In-process client with the retry discipline the server expects.

:meth:`ServiceClient.classify` submits a read and, on a 429-style
:class:`RejectedError`, backs off and resubmits — the cooperative
backoff that lets thousands of concurrent coroutines share bounded
shard queues without dropping work.  ``classify_many`` fans a read
list out concurrently.

The backoff is *jittered capped exponential* with the server's
``retry_after_s`` hint as the floor of the first retry: replaying the
hint verbatim puts every rejected coroutine back on the same tick and
the whole cohort collides again (a retry storm), while undercutting it
guarantees a second rejection.  Attempt 1 jitters upward from the hint;
later sleeps are ``min(hint * BACKOFF_MULTIPLIER**(attempt-1),
BACKOFF_CAP_S)`` scaled by a deterministic per-(request, attempt)
jitter factor, so concurrent
clients decorrelate while any single run replays byte-identically
(the jitter is a content hash, never a global RNG — lint rule SV004).
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Sequence

from ..faults import hash_fraction
from .dispatcher import RejectedError, ServiceResponse
from .server import ClassificationService

#: Multiplier applied to the server's retry hint per attempt.
BACKOFF_MULTIPLIER = 2.0
#: Hard cap on any single backoff sleep (seconds).
BACKOFF_CAP_S = 0.1
#: Jitter fraction: the first retry spreads *up* into
#: ``[hint, hint * (1 + BACKOFF_JITTER)]``; later retries scale down
#: into ``[1 - BACKOFF_JITTER, 1]`` of the exponential delay.
BACKOFF_JITTER = 0.5

class ServiceClient:
    """Thin async facade over an in-process :class:`ClassificationService`."""

    def __init__(
        self,
        service: ClassificationService,
        max_retries: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        self.service = service
        #: None = retry rejections forever (bounded by request deadlines).
        self.max_retries = max_retries
        #: Jitter seed: distinct clients decorrelate even on identical
        #: request keys; the same seed replays identical backoffs.
        self.seed = seed

    def backoff_delay_s(
        self, request_key: str, attempt: int, hint_s: float
    ) -> float:
        """Sleep before retry ``attempt`` (1-based) of ``request_key``.

        Pure function of (client seed, request key, attempt).  The
        server's ``retry_after_s`` hint is a *floor* for the first
        retry: the server promised no room before then, so sleeping
        less just buys a second rejection.  Attempt 1 therefore jitters
        *upward* from the hint into ``[hint, hint * (1 + jitter)]``
        (still decorrelating a rejected cohort, never undercutting the
        hint).  Later attempts grow exponentially from the hint, capped
        at :data:`BACKOFF_CAP_S`, scaled into ``[1 - jitter, 1]`` —
        by then the delay has outgrown the hint and downward jitter
        recovers latency instead of violating the floor.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        u = hash_fraction(self.seed, "backoff", request_key, attempt)
        if attempt == 1:
            spread = min(hint_s * (1.0 + BACKOFF_JITTER * u), BACKOFF_CAP_S)
            # The floor wins over the cap: never sleep less than the
            # server asked, even when its hint exceeds the cap.
            return max(spread, hint_s)
        raw = min(hint_s * BACKOFF_MULTIPLIER ** (attempt - 1), BACKOFF_CAP_S)
        return raw * (1.0 - BACKOFF_JITTER * u)

    async def classify(
        self, read, deadline_s: Optional[float] = None
    ) -> ServiceResponse:
        """Classify one read, backing off on backpressure rejections."""
        attempts = 0
        request_key = str(getattr(read, "seq_id", ""))
        while True:
            try:
                future = self.service.submit(read, deadline_s=deadline_s)
            except RejectedError as exc:
                attempts += 1
                if (
                    self.max_retries is not None
                    and attempts > self.max_retries
                ):
                    raise
                await asyncio.sleep(
                    self.backoff_delay_s(
                        request_key, attempts, exc.retry_after_s
                    )
                )
                continue
            # Bounded by construction: the dispatcher resolves every
            # admitted future via completion, deadline expiry, or crash
            # failover — there is no path that leaves it pending.
            return await future  # lint: disable=SV010 (future resolves via completion/expiry/failover on every path)

    async def classify_many(
        self, reads: Sequence, deadline_s: Optional[float] = None
    ) -> List[ServiceResponse]:
        """Classify a read list concurrently, preserving input order."""
        return list(
            await asyncio.gather(
                *(self.classify(read, deadline_s=deadline_s) for read in reads)
            )
        )
