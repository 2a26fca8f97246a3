"""Replayable workload traces: the service's traffic as an artifact.

A :class:`Trace` is a frozen, JSON-serializable recording of one
request stream: the reads in arrival order, each with its ground-truth
taxon and an arrival timestamp, plus the ``build_dataset`` parameters
of the reference the stream was generated against.  Two properties make
it the unit the bench/fleet layers key on:

* **replayable** — :func:`replay_trace` drives a service with the
  trace in the deterministic pre-enqueue mode, so batch composition
  (and with it every counter) is a pure function of the trace and the
  service config; the same trace replays bit-identically at any shard
  count (classification goldens enforce this).
* **content-addressed** — :meth:`Trace.content_hash` is a SHA-256 over
  the canonical JSON payload, so the fleet cache and the goldens key
  on what the trace *contains*, not where it lives or when it was
  generated (the :class:`~repro.fleet.jobs.ReplayJob` pattern).

Traces are deliberately plain data: no live model objects, no numpy
arrays, nothing the golden differ or the on-disk cache cannot diff.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

#: Payload format tag; bump on any incompatible schema change.
TRACE_FORMAT = "sieve-repro-trace-v1"


class TraceError(ValueError):
    """Raised on malformed trace payloads or parameters."""


@dataclass(frozen=True)
class TraceRequest:
    """One request of a trace: a read plus its arrival offset."""

    seq_id: str
    bases: str
    #: Ground-truth source taxon (``None`` for novel reads).
    taxon_id: Optional[int]
    #: Arrival time in seconds from trace start (non-decreasing; equal
    #: values mark requests of the same burst).
    arrival_s: float

    def to_payload(self) -> Dict[str, Any]:
        return {
            "seq_id": self.seq_id,
            "bases": self.bases,
            "taxon_id": self.taxon_id,
            "arrival_s": self.arrival_s,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "TraceRequest":
        try:
            return cls(
                seq_id=str(payload["seq_id"]),
                bases=str(payload["bases"]),
                taxon_id=(
                    None
                    if payload["taxon_id"] is None
                    else int(payload["taxon_id"])
                ),
                arrival_s=float(payload["arrival_s"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"malformed trace request: {exc}") from None


@dataclass(frozen=True)
class Trace:
    """A replayable request stream against a rebuildable reference."""

    k: int
    seed: int
    label: str
    requests: Tuple[TraceRequest, ...]
    #: ``build_dataset`` keyword arguments that rebuild the reference
    #: this trace was generated against (empty when the trace is bound
    #: to an externally supplied database).
    dataset_params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        last = 0.0
        for req in self.requests:
            if req.arrival_s < last:
                raise TraceError(
                    f"arrival times must be non-decreasing; "
                    f"{req.seq_id} arrives at {req.arrival_s} after {last}"
                )
            last = req.arrival_s

    def __len__(self) -> int:
        return len(self.requests)

    def reads(self) -> List[Any]:
        """The trace's reads in arrival order, as live sequences."""
        from ..genomics import DnaSequence

        return [
            DnaSequence(
                seq_id=req.seq_id, bases=req.bases, taxon_id=req.taxon_id
            )
            for req in self.requests
        ]

    def rebuild_dataset(self) -> Any:
        """Rebuild the reference dataset this trace was generated from."""
        from ..genomics import build_dataset

        if not self.dataset_params:
            raise TraceError(
                f"trace {self.label!r} carries no dataset parameters"
            )
        return build_dataset(**self.dataset_params)

    # -- serialization -----------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        return {
            "format": TRACE_FORMAT,
            "k": self.k,
            "seed": self.seed,
            "label": self.label,
            "dataset": dict(self.dataset_params),
            "requests": [req.to_payload() for req in self.requests],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Trace":
        if not isinstance(payload, dict):
            raise TraceError("trace payload must be a JSON object")
        fmt = payload.get("format")
        if fmt != TRACE_FORMAT:
            raise TraceError(
                f"unsupported trace format {fmt!r} (expected {TRACE_FORMAT})"
            )
        try:
            requests = tuple(
                TraceRequest.from_payload(entry)
                for entry in payload["requests"]
            )
            return cls(
                k=int(payload["k"]),
                seed=int(payload["seed"]),
                label=str(payload["label"]),
                requests=requests,
                dataset_params=dict(payload.get("dataset", {})),
            )
        except (KeyError, TypeError) as exc:
            raise TraceError(f"malformed trace payload: {exc}") from None

    def content_hash(self) -> str:
        """SHA-256 of the canonical JSON payload (content identity)."""
        canon = json.dumps(
            self.to_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def save(self, path: Union[str, Path]) -> Path:
        """Write the trace as pretty-printed JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_payload(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise TraceError(f"cannot read trace {path}: {exc}") from None
        return cls.from_payload(payload)


__all__ = ["TRACE_FORMAT", "Trace", "TraceError", "TraceRequest"]
