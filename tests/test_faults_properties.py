"""Property tests for the deterministic fault-injection layer.

Two properties anchor the whole :mod:`repro.faults` design:

1. **Replay** — the same :class:`FaultModel` seed produces a
   byte-identical fault schedule and identical counters, in any
   process, against any load order of the same units.
2. **Zero-rate transparency** — an installed injector whose model has
   every rate at zero must be indistinguishable from no injector at
   all: identical query answers, identical functional counters, and
   byte-identical golden payloads for registry experiments.

Everything runs under the session-scoped DRAM protocol sanitizer
(tests/conftest.py), so the injector seam is also audited for protocol
and latency-accounting violations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import hooks
from repro.dram.memsys import MemorySystem
from repro.dram.subarray import Subarray
from repro.faults import (
    FaultError,
    FaultInjector,
    FaultModel,
    StuckCell,
    fault_injection,
    faulted_database,
    hash_fraction,
    hash_seed,
)
from repro.fleet.golden import (
    DEFAULT_GOLDEN_DIR,
    canonical_json,
    figure_payload,
    load_golden,
)
from repro.sieve import SieveDevice


# ---------------------------------------------------------------------------
# Hash primitives
# ---------------------------------------------------------------------------


@given(st.integers(), st.text(max_size=20), st.integers(0, 2**32))
def test_hash_fraction_in_unit_interval(seed, tag, index):
    u = hash_fraction(seed, tag, index)
    assert 0.0 <= u < 1.0
    assert u == hash_fraction(seed, tag, index)


@given(st.integers(), st.text(max_size=20))
def test_hash_seed_is_63_bit_and_stable(seed, tag):
    value = hash_seed(seed, tag)
    assert 0 <= value < 2**63
    assert value == hash_seed(seed, tag)


def test_hash_parts_are_order_sensitive():
    assert hash_fraction(1, "a", 2) != hash_fraction(2, "a", 1)


# ---------------------------------------------------------------------------
# Model validation
# ---------------------------------------------------------------------------


def test_model_rejects_bad_rates():
    with pytest.raises(FaultError):
        FaultModel(bit_flip_rate=-0.1)
    with pytest.raises(FaultError):
        FaultModel(command_drop_rate=1.5)
    with pytest.raises(FaultError):
        StuckCell(unit="u", row=-1, col=0, value=1)


def test_seeded_models_differ_by_tag():
    assert FaultModel.seeded("a").seed != FaultModel.seeded("b").seed
    assert FaultModel.seeded("a").seed == FaultModel.seeded("a").seed


def test_inactive_model_is_inactive():
    assert not FaultModel().active
    assert FaultModel(bit_flip_rate=1e-6).active
    assert FaultModel(stuck_cells=(StuckCell("u", 0, 0, 1),)).active
    assert FaultModel(command_delay_rate=0.1).active


# ---------------------------------------------------------------------------
# Replay: same seed => byte-identical schedule + counters
# ---------------------------------------------------------------------------


def _load_pattern(injector, rows=24, cols=96, seed=5):
    """Deterministic load sequence through the injector seam."""
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, size=(rows, cols)).astype(np.uint8)
    array = Subarray(rows, cols)
    array._fault_unit = "prop-unit"
    with fault_injection(injector):
        for row in range(rows):
            array.load_row(row, data[row])
        # Reload half the rows: weak cells must corrupt identically.
        for row in range(0, rows, 2):
            array.load_row(row, data[row])
    return array


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    rate=st.sampled_from([0.0, 1e-3, 5e-3, 2e-2]),
)
def test_same_seed_replays_byte_identically(seed, rate):
    model = FaultModel(bit_flip_rate=rate, seed=seed)
    first = FaultInjector(model)
    second = FaultInjector(model)
    cells_a = _load_pattern(first).peek_rows(0, 24)
    cells_b = _load_pattern(second).peek_rows(0, 24)
    assert np.array_equal(cells_a, cells_b)
    assert first.schedule_digest() == second.schedule_digest()
    assert first.stats.as_dict() == second.stats.as_dict()


def test_weak_cells_corrupt_reloads_identically():
    """A reloaded row flips in exactly the same positions (weak cells
    are positional, not per-event)."""
    injector = FaultInjector(FaultModel(bit_flip_rate=5e-2, seed=77))
    array = _load_pattern(injector)
    reference = FaultInjector(FaultModel(bit_flip_rate=5e-2, seed=77))
    rng = np.random.default_rng(5)
    data = rng.integers(0, 2, size=(24, 96)).astype(np.uint8)
    other = Subarray(24, 96)
    other._fault_unit = "prop-unit"
    with fault_injection(reference):
        for row in range(24):
            other.load_row(row, data[row])
    assert np.array_equal(array.peek_rows(0, 24), other.peek_rows(0, 24))


def test_stuck_cells_override_data():
    stuck = (StuckCell("prop-unit", 3, 7, 1), StuckCell("prop-unit", 4, 2, 0))
    injector = FaultInjector(FaultModel(stuck_cells=stuck))
    array = Subarray(8, 16)
    array._fault_unit = "prop-unit"
    with fault_injection(injector):
        for row in range(8):
            array.load_row(row, np.zeros(16, dtype=np.uint8))
        array.load_row(4, np.ones(16, dtype=np.uint8))
    cells = array.peek_rows(0, 8)
    assert cells[3, 7] == 1
    assert cells[4, 2] == 0
    assert injector.stats.stuck_applied > 0


def test_unit_labels_reset_for_replica_builds():
    """reset_units() restarts the first-seen counter so two replicas
    built from the same injector corrupt identically."""
    injector = FaultInjector(FaultModel(bit_flip_rate=2e-2, seed=9))

    def build():
        injector.reset_units()
        array = Subarray(8, 64)
        with fault_injection(injector):
            for row in range(8):
                array.load_row(row, np.zeros(64, dtype=np.uint8))
        return array.peek_rows(0, 8)

    assert np.array_equal(build(), build())


# ---------------------------------------------------------------------------
# Command-level faults (memory system)
# ---------------------------------------------------------------------------


def test_memsys_command_faults_replay_and_account():
    addresses = [i * 64 for i in range(400)] + [0, 8192 * 4, 64]

    def replay(seed):
        injector = FaultInjector(
            FaultModel(
                command_drop_rate=0.05,
                command_delay_rate=0.05,
                command_delay_ns=7.5,
                seed=seed,
            )
        )
        system = MemorySystem()
        with fault_injection(injector):
            system.replay(addresses)
        return system.stats, injector

    stats_a, inj_a = replay(31)
    stats_b, inj_b = replay(31)
    assert stats_a.total_latency_ns == stats_b.total_latency_ns
    assert inj_a.schedule_digest() == inj_b.schedule_digest()
    assert stats_a.faulted_commands > 0
    assert stats_a.fault_delay_ns > 0
    clean = MemorySystem()
    clean.replay(addresses)
    # Fault extras are additive on top of the protocol-exact base.
    assert stats_a.total_latency_ns == pytest.approx(
        clean.stats.total_latency_ns + stats_a.fault_delay_ns
    )
    assert stats_a.accesses == clean.stats.accesses


# ---------------------------------------------------------------------------
# Zero-rate transparency
# ---------------------------------------------------------------------------


def test_zero_rate_injector_is_transparent(small_dataset, small_layout):
    db = small_dataset.database
    queries = [kmer for kmer, _ in db.items()][:20] + [0, 1, 2]

    def run(install):
        if install:
            with fault_injection(FaultInjector(FaultModel())):
                device = SieveDevice.from_database(db, layout=small_layout)
                results = device.query(queries)
        else:
            device = SieveDevice.from_database(db, layout=small_layout)
            results = device.query(queries)
        return (
            [(r.hit, r.payload, r.rows_activated) for r in results],
            device.stats.row_activations,
            device.stats.write_commands,
            device.capabilities().degraded,
        )

    with_injector = run(install=True)
    without = run(install=False)
    assert with_injector == without
    assert without[-1] is False


@pytest.mark.parametrize("name", ["fig13", "abl-type1", "tab2"])
def test_zero_rate_golden_replay(name):
    """Registry experiments replay byte-identically under a zero-rate
    injector — the acceptance check that the seam itself is free."""
    from repro.experiments.registry import run_experiment

    golden = load_golden(name, DEFAULT_GOLDEN_DIR)
    with fault_injection(FaultInjector(FaultModel())):
        payload = figure_payload(run_experiment(name))
    assert canonical_json(payload) == canonical_json(golden)


def test_injector_never_leaks():
    with fault_injection(FaultInjector(FaultModel(bit_flip_rate=0.5))):
        assert hooks.get_injector() is not None
    assert hooks.get_injector() is None
    with pytest.raises(RuntimeError):
        with fault_injection(FaultInjector(FaultModel())):
            raise RuntimeError("boom")
    assert hooks.get_injector() is None


# ---------------------------------------------------------------------------
# Fault x cache interaction (PR-8)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bit_flip_rate", [1e-4, 2e-3])
def test_cached_service_matches_uncached_under_faults(
    small_dataset, small_layout, bit_flip_rate
):
    """The hot-k-mer cache must be an identity layer even on a
    *corrupted* device: with a nonzero bit-flip rate, a cached service
    built from identically-faulted replicas (reset_units between
    builds) classifies bit-identically to the uncached service on the
    same replicas — the cache memoizes whatever the faulted device
    answers, it never launders faults in or out."""
    import asyncio

    from repro.service import ClassificationService, ServiceConfig

    injector = FaultInjector(
        FaultModel.seeded("cache-fault-prop", bit_flip_rate=bit_flip_rate)
    )

    def classify(**cache_overrides):
        config = ServiceConfig(
            num_shards=2,
            max_batch_kmers=96,
            max_linger_s=0.0,
            queue_depth=256,
            **cache_overrides,
        )

        def build_replica():
            injector.reset_units()
            with fault_injection(injector):
                return SieveDevice.from_database(
                    small_dataset.database, layout=small_layout
                )

        service = ClassificationService(
            [build_replica() for _ in range(config.num_shards)], config
        )

        async def serve():
            futures = [service.submit(r) for r in small_dataset.reads]
            await service.start()
            responses = await asyncio.gather(*futures)
            await service.stop(drain=True)
            return responses

        responses = asyncio.run(serve())
        return [r.classification for r in responses], service

    uncached, _ = classify()
    cached, service = classify(dedup=True, cache_capacity=512)
    assert cached == uncached
    assert service.stats()["cache"]["saved_kmers"] > 0
    shadow, _ = classify(cache_capacity=512, cache_self_check=True)
    assert shadow == uncached


# ---------------------------------------------------------------------------
# Record corruption (host databases)
# ---------------------------------------------------------------------------


def test_faulted_database_deterministic_and_flagged(small_dataset):
    db = small_dataset.database

    def corrupt():
        injector = FaultInjector(
            FaultModel(bit_flip_rate=2e-3, seed=hash_seed("db-prop"))
        )
        out = faulted_database(db, injector)
        return sorted(out.items()), out.capabilities().degraded

    records_a, degraded_a = corrupt()
    records_b, degraded_b = corrupt()
    assert records_a == records_b
    assert degraded_a and degraded_b
    assert records_a != sorted(db.items())
    assert db.capabilities().degraded is False


def test_faulted_database_zero_rate_is_identity_copy(small_dataset):
    db = small_dataset.database
    out = faulted_database(db, FaultInjector(FaultModel()))
    assert sorted(out.items()) == sorted(db.items())
