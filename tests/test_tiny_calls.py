"""Tiny device calls on the ``serve_zipf_open`` geometry.

``SieveDevice.query`` without a fault injector stores the query blocks
of every subarray a call touches in one store per subarray and matches
every destination in one ``match_all`` pass; ``query_scalar`` loads
each batch of up to 64 on its own and replays ``match_slot`` after it,
the reference.  On the benchmark's open-loop layout (1,152-bit rows,
256 rows, ``with_max_layers()``: two layers per subarray), calls of 1,
2, 8 and 46 k-mers — calls whose every k-mer
lands in a different destination among them, on a plain and a canonical
device — must agree on the answers, ``DeviceStats``, every subarray's
cells and ``SubarrayStats``, the matcher and ETM state, and the
``match_slot`` replay of each subarray's last batch.  Under a seeded
fault injector they must also agree on the injector's ``loads`` and
``bits_flipped`` counters, its schedule, and how many answers diverge
from a clean device.

The store guard pins the shape of the fast path: with or without an
injector a call makes one query-block store per subarray it touches;
with an injector, the ``(subarray, row, col_start)`` stores the injector
sees are the per-batch reference's, call for call.  Destinations are
served in (subarray, layer) order, so a subarray's last batch is that of
its highest touched layer.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro.api import key_array
from repro.dram.subarray import Subarray
from repro.faults import FaultInjector, FaultModel, fault_injection
from repro.genomics import KmerDatabase, build_dataset
from repro.sieve import SieveDevice, SubarrayLayout

from .test_query_load import per_batch_query

#: The ``serve_zipf_open`` device layout.
LAYOUT = SubarrayLayout(k=31, row_bits=1152, rows_per_subarray=256).with_max_layers()

#: Call sizes: one k-mer, a pair, a few, and the workload's mean call.
SIZES = (1, 2, 8, 46)


@pytest.fixture(scope="module")
def dataset():
    # 8 x 1.2 kbp keeps the fault-injected builds quick while still
    # filling several subarrays, each on both layers.
    return build_dataset(k=31, num_reads=0, seed=1, num_species=8, genome_length=1200)


def _database(dataset, canonical):
    if not canonical:
        return dataset.database
    return KmerDatabase.from_genomes(
        ((g, g.taxon_id) for g in dataset.genomes), dataset.k, canonical=True
    )


def _destinations(device):
    """Stored k-mers of every (subarray, layer) destination."""
    out = {}
    for sid, sim in device.subarrays.items():
        for layer, chunk in enumerate(sim._layer_records):
            out[sid, layer] = key_array([kmer for kmer, _ in chunk])
    return out


def _calls(device, seed):
    """Mixed calls of every size (stored k-mers, near misses, uniform
    misses), then calls of 1, 2 and 8 k-mers and one of every
    destination whose k-mers all land in different destinations."""
    rng = np.random.default_rng(seed)
    by_destination = _destinations(device)
    keys = sorted(by_destination)
    stored = np.concatenate(list(by_destination.values()))
    calls = []
    for size in SIZES:
        for _ in range(3):
            hits = rng.choice(stored, size - size // 2)
            misses = rng.integers(0, 1 << (2 * LAYOUT.k), size // 2, dtype=np.uint64)
            call = np.concatenate([hits, misses[: size // 4], hits[: size // 2 - size // 4] ^ np.uint64(1)])
            calls.append(call[rng.permutation(call.size)][:size].tolist())
    for size in (1, 2, 8, len(keys)):
        chosen = rng.permutation(len(keys))[:size]
        calls.append([int(rng.choice(by_destination[keys[i]])) for i in chosen])
    return calls


def _state(sim):
    """Everything a load and a match leave on one subarray."""
    return (
        sim.array.peek_rows(0, sim.array.rows).tobytes(),
        sim.array.stats,
        sim.matchers._enable.tolist(),
        sim.matchers.latches.tolist(),
        sim.matchers.compare_count,
        sim.etm.cycles,
        sim.etm._segment_or.tolist(),
        sim.etm.bsr.tolist(),
        sim.etm._sr.tolist(),
        sim._batch,
        sim._batch_layer,
    )


def _columns(batch):
    return (
        batch.queries.tolist(),
        batch.hit.tolist(),
        batch.payload.tolist(),
        batch.subarray_id.tolist(),
        batch.rows_activated.tolist(),
        batch.etm_flush_cycles.tolist(),
    )


def _run(database, calls, query, flip_rate, seed):
    injector = FaultInjector(FaultModel(bit_flip_rate=flip_rate, seed=seed))
    with fault_injection(injector) if flip_rate else nullcontext():
        device = SieveDevice.from_database(database, layout=LAYOUT)
        answers = [query(device, call) for call in calls]
    return device, answers, injector


def _assert_same(fused, reference):
    (device, answers, _), (twin, expected, _) = fused, reference
    assert [_columns(a) for a in answers] == [_columns(a) for a in expected]
    assert device.stats == twin.stats
    for sid, sim in device.subarrays.items():
        other = twin.subarrays[sid]
        assert _state(sim) == _state(other), sid
        replay = [sim.match_slot(s) for s in range(len(sim._batch))]
        assert replay == [other.match_slot(s) for s in range(len(other._batch))]
        assert _state(sim) == _state(other), sid


@pytest.mark.parametrize("canonical", [False, True], ids=["plain", "canonical"])
def test_tiny_calls_match_per_batch_replay(dataset, canonical):
    database = _database(dataset, canonical)
    probe = SieveDevice.from_database(database, layout=LAYOUT)
    assert LAYOUT.layers == 2 and len(probe.subarrays) >= 4
    calls = _calls(probe, seed=11 + canonical)
    _assert_same(
        _run(database, calls, SieveDevice.query, 0.0, 0),
        _run(database, calls, SieveDevice.query_scalar, 0.0, 0),
    )


def test_tiny_calls_match_per_batch_replay_under_faults(dataset):
    database = dataset.database
    calls = _calls(SieveDevice.from_database(database, layout=LAYOUT), seed=5)
    fused = _run(database, calls, SieveDevice.query, 2e-3, 7)
    reference = _run(database, calls, SieveDevice.query_scalar, 2e-3, 7)
    _assert_same(fused, reference)
    (_, answers, injector), (_, expected, twin) = fused, reference
    assert injector.stats.bits_flipped > 0
    assert (injector.stats.loads, injector.stats.bits_flipped) == (
        twin.stats.loads,
        twin.stats.bits_flipped,
    )
    assert injector.schedule == twin.schedule
    clean = SieveDevice.from_database(database, layout=LAYOUT)
    truth = [_columns(clean.query(call))[1:3] for call in calls]

    def diverged(results):
        return sum(
            h != th or p != tp
            for result, (hits, payloads) in zip(results, truth)
            for h, p, th, tp in zip(*_columns(result)[1:3], hits, payloads)
        )

    assert diverged(answers) == diverged(expected) > 0


class TestStoreGuard:
    """How many stores a call makes, and which ones the injector sees."""

    @staticmethod
    def _spy(monkeypatch, device, name):
        owner = {id(sim.array): sid for sid, sim in device.subarrays.items()}
        seen = []
        original = getattr(Subarray, name)

        def spy(self, row, col_start, bits):
            seen.append((owner.get(id(self)), row, col_start))
            return original(self, row, col_start, bits)

        monkeypatch.setattr(Subarray, name, spy)
        return seen

    def test_one_store_per_touched_subarray(self, dataset, monkeypatch):
        for model in (None, FaultModel(bit_flip_rate=1e-3, seed=2)):
            with fault_injection(FaultInjector(model)) if model else nullcontext():
                device = SieveDevice.from_database(dataset.database, layout=LAYOUT)
                with monkeypatch.context() as patch:
                    stores = self._spy(patch, device, "load_bit_block")
                    for call in _calls(device, seed=3):
                        stores.clear()
                        result = device.query(call)
                        touched = set(result.subarray_id[result.subarray_id >= 0].tolist())
                        assert sorted(sid for sid, _, _ in stores) == sorted(touched)

    def test_injector_sees_the_per_batch_stores(self, dataset, monkeypatch):
        model = FaultModel(bit_flip_rate=1e-3, seed=2)
        devices = []
        for _ in range(2):
            with fault_injection(FaultInjector(model)):
                devices.append(SieveDevice.from_database(dataset.database, layout=LAYOUT))
        fused, reference = devices
        calls = _calls(fused, seed=4)
        for call in calls:
            logs = []
            for device, query in ((fused, SieveDevice.query), (reference, per_batch_query)):
                with monkeypatch.context() as patch, fault_injection(FaultInjector(model)):
                    seen = self._spy(patch, device, "load_bits")
                    query(device, call)
                logs.append(seen)
            assert logs[0] == logs[1]
            assert logs[0] or not call


@pytest.mark.parametrize(
    "query", [SieveDevice.query, SieveDevice.query_scalar], ids=["batched", "per_batch"]
)
def test_layers_served_in_index_order(dataset, query):
    """A call reaching a subarray's layer 1 before its layer 0 serves
    layer 0 first: the subarray's last batch is layer 1's last one."""
    device = SieveDevice.from_database(dataset.database, layout=LAYOUT)
    by_destination = _destinations(device)
    sid = min(sid for sid, layer in by_destination if layer == 1)
    rng = np.random.default_rng(13)
    size = LAYOUT.queries_per_group
    upper = rng.choice(by_destination[sid, 1], size + 6).tolist()
    lower = rng.choice(by_destination[sid, 0], 5).tolist()
    result = query(device, upper + lower)
    assert result.hit.all() and set(result.subarray_id.tolist()) == {sid}
    sim = device.subarrays[sid]
    assert sim._batch_layer == 1
    assert sim._batch == upper[size:]
