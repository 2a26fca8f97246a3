"""Versioned ``stats()`` payload (schema ``sieve-stats-v2``).

PR 4 grew the service stats payload organically: config, health,
clock, cache, and deployment facts all sat as flat top-level keys.
PR 9 versions the schema — the payload is stamped with
``schema = "sieve-stats-v2"`` and groups related facts under stable
section keys:

``service``
    ``config`` (the full :class:`ServiceConfig` dict) and ``k``.
``health``
    ``shards`` (the per-shard rows), ``healthy_shards``, ``degraded``.
``clocks``
    ``sim_time_ns`` and ``sim_energy_nj`` (the simulated-device clock
    pair; host-wall timings stay under ``metrics``).
``metrics``
    Unchanged: the :class:`ServiceMetrics` snapshot.
``cache`` / ``observed`` / ``deployment`` / ``cluster``
    Optional sections, present only when the corresponding subsystem
    is active (cache counters, chaos observations, deployment ledger,
    :class:`repro.cluster.ClusterBackend` topology).
"""

from __future__ import annotations

#: Version stamp carried in every payload under ``stats["schema"]``.
STATS_SCHEMA = "sieve-stats-v2"
