"""Replayable workload traces for the classification service.

ROADMAP item 4's traffic-realism layer: the service's headline numbers
used to come from synthetic uniform streams; this package generates the
skewed, bursty traffic metagenomic serving actually sees and freezes it
into content-addressed artifacts the whole toolchain can replay:

* :mod:`~repro.workloads.trace` — the :class:`Trace` artifact: reads
  in arrival order + the ``build_dataset`` parameters that rebuild the
  reference, JSON-serialized, identified by a SHA-256 content hash.
* :mod:`~repro.workloads.generator` — :func:`generate_trace`: seeded
  zipfian taxon abundance, geometric bursts with exponential gaps,
  configurable read-length/error/novel profiles.
* :mod:`~repro.workloads.replay` — :func:`replay_trace`, the
  deterministic pre-enqueue replay every bench scenario and golden
  drives through.

Consumers: ``repro.bench`` (``service_load`` / ``service_cached``), the
``python -m repro.service`` demo (``--trace``), and the trace-replay
golden tests (``docs/TESTING.md``), which pin the content hash.
"""

from .generator import generate_trace, zipfian_weights
from .replay import classification_digest, replay_trace
from .trace import TRACE_FORMAT, Trace, TraceError, TraceRequest

__all__ = [
    "TRACE_FORMAT",
    "Trace",
    "TraceError",
    "TraceRequest",
    "classification_digest",
    "generate_trace",
    "replay_trace",
    "zipfian_weights",
]
