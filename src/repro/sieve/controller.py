"""Event-driven simulation of a Sieve bank's request pipeline.

The analytic models in :mod:`repro.sieve.perfmodel` use a single
steady-state rule — per-bank time per query = ``max(matching / streams,
bank I/O)`` — to aggregate the two serialized resources of a bank: the
matching engine(s) and the I/O port that carries query-batch writes,
request delivery, and payload returns.  This module cross-checks that
rule with a discrete-event simulation of the actual pipeline
(Section IV-E): requests arrive in PCIe-delivered batches, each batch's
query bits are written over the bank I/O, its queries then match on any
free subarray stream (out-of-order across batches), and hits pay a
payload-fetch visit back on the I/O port.

The tests assert that the event-driven throughput converges to the
analytic steady state, which is what justifies using the closed form at
paper scale.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dram.timing import SIEVE_TIMING, DramTiming
from .layout import SubarrayLayout
from .perfmodel import EspModel, ModelError, WorkloadStats


@dataclass(frozen=True)
class SimRequest:
    """One k-mer request as the bank scheduler sees it."""

    request_id: int
    subarray: int
    pattern_rows: int  # row activations its matching needs
    hit: bool


@dataclass
class BankSimResult:
    """Outcome of one event-driven bank run."""

    total_ns: float
    requests: int
    io_busy_ns: float
    stream_busy_ns: float
    streams: int
    latencies_ns: List[float] = field(default_factory=list)

    @property
    def ns_per_query(self) -> float:
        return self.total_ns / self.requests if self.requests else 0.0

    @property
    def io_utilization(self) -> float:
        return self.io_busy_ns / self.total_ns if self.total_ns else 0.0

    @property
    def stream_utilization(self) -> float:
        if not self.total_ns:
            return 0.0
        return self.stream_busy_ns / (self.total_ns * self.streams)

    @property
    def mean_latency_ns(self) -> float:
        return float(np.mean(self.latencies_ns)) if self.latencies_ns else 0.0

    @property
    def completed_out_of_order(self) -> int:
        """Requests that finished before an earlier-issued request."""
        count = 0
        running_max = -1.0
        for latency_plus_issue in self.latencies_ns:
            if latency_plus_issue < running_max:
                count += 1
            running_max = max(running_max, latency_plus_issue)
        return count


#: Row activations a hit adds for its Region-2/3 payload fetch.
PAYLOAD_ROWS_PER_HIT = 2


class BankEventSim:
    """Discrete-event model of one bank: I/O port + matching streams."""

    def __init__(
        self,
        layout: SubarrayLayout,
        streams: int = 8,
        timing: DramTiming = SIEVE_TIMING,
    ) -> None:
        if streams <= 0:
            raise ModelError("streams must be positive")
        self.layout = layout
        self.streams = streams
        self.timing = timing

    @property
    def batch_write_ns(self) -> float:
        """I/O time to install one query batch (Section IV-A formula)."""
        return self.layout.batch_write_commands * self.timing.tCCD

    def matching_ns(self, request: SimRequest) -> float:
        rows = request.pattern_rows
        if request.hit:
            rows += PAYLOAD_ROWS_PER_HIT
        return rows * self.timing.row_cycle

    def run(
        self,
        requests: Sequence[SimRequest],
        release_ns: Optional[Sequence[float]] = None,
    ) -> BankSimResult:
        """Run the pipeline to completion.

        ``release_ns`` gives each request's arrival time at the bank, in
        ``requests`` order; ``None`` makes every request available at
        t=0.  Batches are formed per subarray in arrival order (up to
        the layout's 64 queries per group).  The I/O port writes one
        batch at a time, each as soon as the port is free and the
        batch's last request has arrived; each query of a written batch
        runs on the earliest free stream; hits then occupy the stream
        for the payload fetch (payload transfer back over I/O is folded
        into the write stream as one burst, negligible at this
        granularity).
        """
        if not requests:
            raise ModelError("no requests to simulate")
        if release_ns is None:
            release_ns = [0.0] * len(requests)
        elif len(release_ns) != len(requests):
            raise ModelError("release_ns needs one time per request")
        batch_size = self.layout.queries_per_group
        per_subarray: Dict[int, List[Tuple[SimRequest, float]]] = {}
        for req, release in zip(requests, release_ns):
            per_subarray.setdefault(req.subarray, []).append((req, release))

        io_free = 0.0
        io_busy = 0.0
        # Streams: min-heap of next-free times.
        free_at = [0.0] * self.streams
        heapq.heapify(free_at)
        stream_busy = 0.0
        finish_times: Dict[int, float] = {}
        for queue in per_subarray.values():
            for lo in range(0, len(queue), batch_size):
                batch = queue[lo : lo + batch_size]
                # The I/O port serializes batch writes; the batch's queries
                # are ready once its write completes.
                last_release = max(release for _, release in batch)
                io_free = max(io_free, last_release) + self.batch_write_ns
                io_busy += self.batch_write_ns
                for req, _ in batch:
                    start = max(heapq.heappop(free_at), io_free)
                    service = self.matching_ns(req)
                    end = start + service
                    stream_busy += service
                    heapq.heappush(free_at, end)
                    finish_times[req.request_id] = end
        total = max(finish_times.values())
        ordered = [finish_times[r.request_id] for r in requests]
        return BankSimResult(
            total_ns=total,
            requests=len(requests),
            io_busy_ns=io_busy,
            stream_busy_ns=stream_busy,
            streams=self.streams,
            latencies_ns=ordered,
        )


def sample_requests(
    workload: WorkloadStats,
    num_requests: int,
    subarrays: int,
    rng: Optional[np.random.Generator] = None,
) -> List[SimRequest]:
    """Draw a request trace from a workload's statistics.

    Subarray destinations are uniform (the sorted index spreads random
    queries evenly); per-miss pattern rows follow the workload's ESP
    distribution; hits scan every row.
    """
    if num_requests <= 0:
        raise ModelError("num_requests must be positive")
    if subarrays <= 0:
        raise ModelError("subarrays must be positive")
    rng = rng or np.random.default_rng(0)
    esp: EspModel = workload.esp
    probs = np.array(esp.probabilities)
    rows_support = np.arange(1, esp.total_rows + 1)
    requests = []
    for i in range(num_requests):
        hit = bool(rng.random() < workload.hit_rate)
        rows = esp.total_rows if hit else int(rng.choice(rows_support, p=probs))
        requests.append(
            SimRequest(
                request_id=i,
                subarray=int(rng.integers(0, subarrays)),
                pattern_rows=rows,
                hit=hit,
            )
        )
    return requests


def validate_steady_state(
    workload: WorkloadStats,
    layout: SubarrayLayout,
    streams: int = 8,
    num_requests: int = 2000,
    timing: DramTiming = SIEVE_TIMING,
    seed: int = 0,
) -> Dict[str, float]:
    """Compare event-driven throughput with the analytic closed form.

    Returns both per-query times and their ratio; the test suite asserts
    the ratio stays near 1.
    """
    sim = BankEventSim(layout, streams=streams, timing=timing)
    rng = np.random.default_rng(seed)
    requests = sample_requests(
        workload, num_requests, subarrays=max(streams * 4, 16), rng=rng
    )
    result = sim.run(requests)
    # Analytic steady state on the same sampled trace.  The closed form
    # assumes full 64-query batches; at small trace sizes the simulator
    # forms partial trailing batches, so charge the I/O for the batches
    # actually formed.
    mean_match = float(np.mean([sim.matching_ns(r) for r in requests]))
    batch_size = layout.queries_per_group
    per_subarray: Dict[int, int] = {}
    for req in requests:
        per_subarray[req.subarray] = per_subarray.get(req.subarray, 0) + 1
    num_batches = sum(-(-count // batch_size) for count in per_subarray.values())
    io_per_query = num_batches * sim.batch_write_ns / len(requests)
    analytic = max(mean_match / streams, io_per_query)
    return {
        "event_ns_per_query": result.ns_per_query,
        "analytic_ns_per_query": analytic,
        "ratio": result.ns_per_query / analytic,
        "io_utilization": result.io_utilization,
        "stream_utilization": result.stream_utilization,
    }
