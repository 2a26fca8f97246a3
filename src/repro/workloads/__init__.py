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
  deterministic pre-enqueue replay every bench scenario, fleet job,
  and golden drives through (plus a paced live mode for demos).

Consumers: ``repro.bench`` (``service_load`` / ``service_cached``),
``repro.fleet.jobs.ReplayJob`` (keyed on the content hash), the
``python -m repro.service`` demo (``--trace``), and the trace-replay
golden tests (``docs/TESTING.md``).
"""

from .generator import generate_trace, zipfian_weights
from .replay import classification_digest, replay, replay_trace, submit_trace
from .trace import TRACE_FORMAT, Trace, TraceError, TraceRequest

__all__ = [
    "TRACE_FORMAT",
    "Trace",
    "TraceError",
    "TraceRequest",
    "classification_digest",
    "generate_trace",
    "replay",
    "replay_trace",
    "submit_trace",
    "zipfian_weights",
]
