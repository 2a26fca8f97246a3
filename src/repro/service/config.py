"""Service tuning knobs, validated once at construction.

Since PR 9 the config is *declarative*: :meth:`ServiceConfig.from_file`
loads a TOML file (the same schema :meth:`ServiceConfig.to_toml`
writes), :meth:`ServiceConfig.from_dict` / :meth:`ServiceConfig.to_dict`
round-trip the payload, and unknown keys fail loudly instead of being
silently dropped.  Cluster topology (the worker process count) lives
in the same schema as a nested ``[cluster]`` table
(:class:`ClusterConfig`), so one file describes the whole deployment
and CLI flags become *overrides* on top of it (see
``python -m repro.service --config``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, Optional, Union


class ServiceConfigError(ValueError):
    """Raised on invalid service configuration."""


@dataclass(frozen=True)
class ClusterConfig:
    """Multi-process shard-cluster topology (:mod:`repro.cluster`).

    ``workers`` forked OS processes each serve one partition of the
    k-mer space: a k-mer belongs to the worker its cache key hashes to,
    so every worker holds about 1/``workers`` of the reference.
    """

    #: Forked worker processes, one k-mer partition each.
    workers: int = 2

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ServiceConfigError("cluster.workers must be positive")


@dataclass(frozen=True)
class ServiceConfig:
    """Policy for the sharded micro-batching dispatcher.

    ``max_batch_kmers`` is the coalescing target: a dispatch closes as
    soon as the k-mers gathered reach it (the device's natural width is
    ``SubarrayLayout.queries_per_group`` = 64).  A single request larger
    than the target still dispatches alone — requests are never split
    across batches, so per-request response slicing stays trivial.

    ``max_linger_s = 0`` means *no waiting*: a dispatch takes whatever
    is already queued and goes.  With requests pre-enqueued on a
    single-threaded loop this makes batch composition fully
    deterministic — the mode the bench/fleet regression jobs run in.
    """

    #: Backend replicas / worker tasks.
    num_shards: int = 2
    #: Coalescing target in k-mers per dispatched batch.
    max_batch_kmers: int = 64
    #: How long a non-full batch waits for more requests (seconds).
    max_linger_s: float = 0.0
    #: Bounded per-shard queue; a full queue rejects (backpressure).
    queue_depth: int = 64
    #: Default per-request deadline (None = no deadline).
    default_deadline_s: Optional[float] = None
    #: Hint returned with 429-style rejections.
    retry_after_s: float = 0.005
    #: Executor seam: worker threads for the blocking backend
    #: ``query()``.  0 (the default) runs the query inline on the event
    #: loop's thread — fully deterministic, the mode every regression
    #: job uses.  > 0 moves the CPU-heavy call off the loop via
    #: ``run_in_executor`` (shards still serialize their own batches,
    #: but cross-shard completion order may vary run to run).
    executor_threads: int = 0
    #: Pipelined dispatch: while batch N simulates on the executor, the
    #: shard's loop already accepts, coalesces, and host-side prepares
    #: batch N+1 — the UPMEM-style transfer/compute overlap.  Batches
    #: still launch strictly one at a time per shard, in admission
    #: order (:class:`~repro.analysiskit.ScheduleSanitizer`-verified),
    #: so responses stay bit-identical to the serial schedule.  Requires
    #: ``executor_threads > 0`` (without the executor seam there is no
    #: device-side concurrency to overlap with).
    pipelined: bool = False
    #: Cross-request k-mer dedup inside the coalescing stage: each
    #: micro-batch sends every unique k-mer (cache key) to the device
    #: at most once and fans the answer back out to every requesting
    #: future.  Answers are bit-identical to the undeduped path
    #: (test- and self-check-enforced); only device work changes.
    dedup: bool = False
    #: Hot-k-mer result cache capacity in entries (0 = no cache).  A
    #: cached k-mer skips the device entirely; keys canonicalize when
    #: the backends do (``BackendCapabilities.canonical``).  Implies
    #: dedup — a cache without dedup would re-answer duplicates it
    #: just looked up.  See :class:`repro.service.cache.KmerResultCache`.
    cache_capacity: int = 0
    #: Shadow-mode verification: the device still executes every full
    #: batch, and every cached/deduped answer is compared against the
    #: fresh device answer — a divergence raises
    #: :class:`~repro.service.cache.CacheCoherencyError` instead of
    #: serving it.  Costs the full uncached device work; for tests,
    #: demos, and canary deployments.
    cache_self_check: bool = False
    #: Multi-process shard-cluster topology; ``None`` (the default)
    #: keeps the single-process asyncio deployment.
    cluster: Optional[ClusterConfig] = None

    @property
    def cache_enabled(self) -> bool:
        """Whether the dispatcher runs the dedup/cache planning stage."""
        return self.dedup or self.cache_capacity > 0

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ServiceConfigError("num_shards must be positive")
        if self.max_batch_kmers <= 0:
            raise ServiceConfigError("max_batch_kmers must be positive")
        if self.max_linger_s < 0:
            raise ServiceConfigError("max_linger_s must be >= 0")
        if self.queue_depth <= 0:
            raise ServiceConfigError("queue_depth must be positive")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ServiceConfigError("default_deadline_s must be positive")
        if self.retry_after_s <= 0:
            raise ServiceConfigError("retry_after_s must be positive")
        if self.executor_threads < 0:
            raise ServiceConfigError("executor_threads must be >= 0")
        if self.pipelined and self.executor_threads <= 0:
            raise ServiceConfigError(
                "pipelined dispatch requires executor_threads > 0 "
                "(there is no device-side concurrency to overlap with)"
            )
        if self.cache_capacity < 0:
            raise ServiceConfigError("cache_capacity must be >= 0")
        if self.cache_self_check and not self.cache_enabled:
            raise ServiceConfigError(
                "cache_self_check requires dedup or a cache_capacity > 0 "
                "(there is nothing to verify otherwise)"
            )
        if self.cluster is not None and not isinstance(
            self.cluster, ClusterConfig
        ):
            raise ServiceConfigError(
                "cluster must be a ClusterConfig (or None); use "
                "ServiceConfig.from_dict for plain-dict payloads"
            )

    # -- declarative round trip ---------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON/TOML-shaped payload; exact inverse of :meth:`from_dict`.

        ``None``-valued optionals are omitted (TOML has no null), and
        the cluster topology nests under ``"cluster"``.
        """
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.name == "cluster":
                out["cluster"] = {
                    cf.name: getattr(value, cf.name)
                    for cf in fields(ClusterConfig)
                }
            else:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServiceConfig":
        """Build a config from a plain dict, rejecting unknown keys."""
        if not isinstance(data, dict):
            raise ServiceConfigError(
                f"service config payload must be a table/dict, got "
                f"{type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ServiceConfigError(
                f"unknown service config key(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        kwargs = dict(data)
        cluster = kwargs.pop("cluster", None)
        if cluster is not None and not isinstance(cluster, ClusterConfig):
            if not isinstance(cluster, dict):
                raise ServiceConfigError(
                    "cluster must be a table of topology keys"
                )
            cluster_known = {f.name for f in fields(ClusterConfig)}
            cluster_unknown = sorted(set(cluster) - cluster_known)
            if cluster_unknown:
                raise ServiceConfigError(
                    f"unknown cluster config key(s): "
                    f"{', '.join(cluster_unknown)} "
                    f"(known: {', '.join(sorted(cluster_known))})"
                )
            cluster = ClusterConfig(**cluster)
        try:
            return cls(cluster=cluster, **kwargs)
        except TypeError as exc:
            raise ServiceConfigError(f"invalid service config: {exc}") from None

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ServiceConfig":
        """Load a TOML config file (the :meth:`to_toml` schema)."""
        p = Path(path)
        try:
            text = p.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ServiceConfigError(f"{p}: no such config file") from None
        try:
            import tomllib
        except ImportError:  # Python < 3.11: stdlib has no TOML reader.
            data = _parse_simple_toml(text, source=str(p))
        else:
            try:
                data = tomllib.loads(text)
            except tomllib.TOMLDecodeError as exc:
                raise ServiceConfigError(
                    f"{p}: invalid TOML ({exc})"
                ) from None
        return cls.from_dict(data)

    def to_toml(self) -> str:
        """Render this config as TOML (the :meth:`from_file` schema).

        Hand-rolled on purpose: the stdlib ships a TOML reader
        (``tomllib``) but no writer, and the schema is a flat table
        plus one optional ``[cluster]`` sub-table.
        """
        lines = []
        payload = self.to_dict()
        cluster = payload.pop("cluster", None)
        for key in sorted(payload):
            lines.append(f"{key} = {_toml_value(payload[key])}")
        if cluster is not None:
            lines.append("")
            lines.append("[cluster]")
            for key in sorted(cluster):
                lines.append(f"{key} = {_toml_value(cluster[key])}")
        return "\n".join(lines) + "\n"

    def save(self, path: Union[str, Path]) -> Path:
        """Write :meth:`to_toml` to ``path``; returns the path."""
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(self.to_toml(), encoding="utf-8")
        return p


def _parse_simple_toml(text: str, *, source: str) -> Dict[str, Any]:
    """Minimal TOML reader for the flat :meth:`ServiceConfig.to_toml`
    schema (scalar ``key = value`` lines plus ``[table]`` headers), used
    only on Python < 3.11 where the stdlib ships no ``tomllib``.
    """
    root: Dict[str, Any] = {}
    table = root
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name or "." in name:
                raise ServiceConfigError(
                    f"{source}:{lineno}: unsupported table header {line!r}"
                )
            table = root.setdefault(name, {})
            continue
        if "=" not in line:
            raise ServiceConfigError(
                f"{source}:{lineno}: expected 'key = value', got {raw!r}"
            )
        key, _, value = line.partition("=")
        table[key.strip()] = _parse_simple_toml_value(
            value.strip(), source=source, lineno=lineno
        )
    return root


def _parse_simple_toml_value(token: str, *, source: str, lineno: int) -> Any:
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    if token == "true":
        return True
    if token == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        raise ServiceConfigError(
            f"{source}:{lineno}: unsupported TOML value {token!r}"
        ) from None


def _toml_value(value: Any) -> str:
    """Render one scalar as TOML (bool/int/float/str are the schema)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise ServiceConfigError(
        f"cannot render {type(value).__name__} value {value!r} as TOML"
    )
