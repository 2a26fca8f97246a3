"""Device-level discrete-event simulation: PCIe packets to RRQ.

Extends the single-bank pipeline of :mod:`repro.sieve.controller` to the
whole Section IV-C arrangement:

* the host ships requests in PCIe packets (340 x 12-byte requests per
  4 KB payload); the link outruns the device, so packets arrive
  back-to-back and the input queue never runs dry;
* the device unpacks each packet and distributes requests to per-bank
  buffers (64 requests each);
* every bank runs the batch-write + multi-stream matching pipeline of
  :class:`~repro.sieve.controller.BankEventSim`, each request released
  at its packet's arrival;
* finished requests accumulate in the Response-Ready Queue and leave in
  packet-sized bursts.

The simulation measures end-to-end makespan against the zero-latency
dispatch ideal, i.e. the PCIe/queueing overhead the paper reports at
4.6-6.7 % — here produced by an executable model rather than a constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..dram.timing import SIEVE_TIMING, DramTiming
from ..interconnect.pcie import (
    PCIE4_X16,
    REQUEST_BYTES,
    REQUESTS_PER_PACKET,
    PcieLink,
)
from .controller import BankEventSim, SimRequest, sample_requests
from .layout import SubarrayLayout
from .perfmodel import ModelError, WorkloadStats


@dataclass(frozen=True)
class DeviceSimConfig:
    """Scaled-down device for event-driven runs.

    ``banks`` x ``subarrays_per_bank`` subarrays, each bank with
    ``streams_per_bank`` matching streams, fed over ``link`` and timed
    by ``timing``.
    """

    banks: int = 8
    subarrays_per_bank: int = 16
    streams_per_bank: int = 8
    link: PcieLink = PCIE4_X16
    timing: DramTiming = SIEVE_TIMING

    def __post_init__(self) -> None:
        if self.banks <= 0 or self.subarrays_per_bank <= 0:
            raise ModelError("banks and subarrays must be positive")
        if self.streams_per_bank <= 0:
            raise ModelError("streams must be positive")


@dataclass
class DeviceSimResult:
    """Outcome of one device-level run."""

    requests: int
    makespan_ns: float
    ideal_ns: float
    pcie_transfer_ns: float
    packets: int
    per_bank_busy_ns: Dict[int, float]

    @property
    def overhead_fraction(self) -> float:
        """End-to-end time over the zero-latency-dispatch ideal."""
        return self.makespan_ns / self.ideal_ns - 1.0

    @property
    def load_imbalance(self) -> float:
        """Max over mean of per-bank busy time."""
        values = list(self.per_bank_busy_ns.values())
        mean = float(np.mean(values)) if values else 0.0
        return max(values) / mean if mean else 1.0


class DeviceEventSim:
    """Whole-device event-driven model."""

    def __init__(
        self,
        layout: SubarrayLayout,
        config: Optional[DeviceSimConfig] = None,
    ) -> None:
        self.layout = layout
        self.config = config or DeviceSimConfig()

    def packet_transfer_ns(self) -> float:
        """Wire time of one request packet on the link."""
        payload = REQUESTS_PER_PACKET * REQUEST_BYTES
        return payload / (self.config.link.effective_gbs * 1e9) * 1e9

    def run(self, requests: Sequence[SimRequest]) -> DeviceSimResult:
        """Run all requests through packets -> bank buffers -> pipelines.

        Requests carry device-global subarray ids in
        ``[0, banks x subarrays_per_bank)``; bank = subarray // per_bank.
        """
        if not requests:
            raise ModelError("no requests to simulate")
        cfg = self.config
        per_bank: Dict[int, List[SimRequest]] = {b: [] for b in range(cfg.banks)}
        arrival: Dict[int, List[float]] = {b: [] for b in range(cfg.banks)}
        # 1. PCIe delivery: each packet's requests become available at
        #    its arrival time.  With the device slower than the link,
        #    packets arrive back-to-back, so arrival = i*T.
        packet_ns = self.packet_transfer_ns()
        packets = [
            requests[i : i + REQUESTS_PER_PACKET]
            for i in range(0, len(requests), REQUESTS_PER_PACKET)
        ]
        for i, packet in enumerate(packets):
            t = (i + 1) * packet_ns
            for req in packet:
                bank = req.subarray // cfg.subarrays_per_bank
                if bank >= cfg.banks:
                    raise ModelError(
                        f"request {req.request_id} targets bank {bank} "
                        f">= {cfg.banks}"
                    )
                per_bank[bank].append(req)
                arrival[bank].append(t)
        # 2. Per-bank pipelines (batch write + streams), released at each
        #    request's arrival; the ideal releases every request at t=0.
        bank_sim = BankEventSim(
            self.layout, streams=cfg.streams_per_bank, timing=cfg.timing
        )
        makespan = 0.0
        ideal = 0.0
        busy: Dict[int, float] = {}
        for bank, queue in per_bank.items():
            if not queue:
                busy[bank] = 0.0
                continue
            result = bank_sim.run(queue, release_ns=arrival[bank])
            busy[bank] = result.stream_busy_ns
            makespan = max(makespan, result.total_ns)
            ideal = max(ideal, bank_sim.run(queue).total_ns)
        # 3. RRQ: responses leave in packet bursts; the final partial
        #    packet adds one transfer on the return path (full duplex, so
        #    only the trailing packet extends the makespan).
        makespan += packet_ns
        return DeviceSimResult(
            requests=len(requests),
            makespan_ns=makespan,
            ideal_ns=ideal,
            pcie_transfer_ns=len(packets) * packet_ns,
            packets=len(packets),
            per_bank_busy_ns=busy,
        )


def simulate_device(
    workload: WorkloadStats,
    num_requests: int = 20_000,
    config: Optional[DeviceSimConfig] = None,
    layout: Optional[SubarrayLayout] = None,
    seed: int = 0,
) -> DeviceSimResult:
    """Sample a request trace from a workload and run the device sim."""
    config = config or DeviceSimConfig()
    layout = layout or SubarrayLayout(k=workload.k)
    rng = np.random.default_rng(seed)
    requests = sample_requests(
        workload,
        num_requests,
        subarrays=config.banks * config.subarrays_per_bank,
        rng=rng,
    )
    return DeviceEventSim(layout, config).run(requests)
