"""Microbenchmarks of the bit-accurate functional stack itself:
throughput of the matcher array, ETM pipeline, and full device lookups.

These do not correspond to a paper table; they exist so performance
regressions in the simulator (which gates how large the functional
experiments can run) are caught.
"""

import numpy as np
import pytest

from repro.genomics import build_dataset
from repro.sieve import EtmPipeline, MatcherArray, SieveDevice, SubarrayLayout


@pytest.fixture(scope="module")
def loaded_device():
    ds = build_dataset(
        k=15, num_species=4, genome_length=600, num_reads=40,
        read_length=80, novel_fraction=0.5, seed=5,
    )
    layout = SubarrayLayout(k=15, row_bits=1152, rows_per_subarray=256, layers=2)
    device = SieveDevice.from_database(ds.database, layout=layout)
    queries = [k for r in ds.reads for k in r.kmers(15)]
    return device, queries


def test_matcher_compare_throughput(benchmark):
    ma = MatcherArray(8192)
    ma.reset()
    row = np.random.default_rng(0).integers(0, 2, size=8192).astype(np.uint8)

    def step():
        ma.compare(row, 1)

    benchmark(step)


def test_etm_step_throughput(benchmark):
    etm = EtmPipeline(8192)
    latches = np.zeros(8192, dtype=np.uint8)
    latches[4000] = 1
    benchmark(etm.step, latches)


def test_device_lookup_throughput(benchmark, loaded_device):
    device, queries = loaded_device
    pool = queries[:64]
    state = {"i": 0}

    def lookup():
        q = pool[state["i"] % len(pool)]
        state["i"] += 1
        return device.query_scalar([q])[0]

    benchmark(lookup)


def test_device_batch_throughput(benchmark, loaded_device):
    device, queries = loaded_device
    batch = queries[:128]
    benchmark.pedantic(device.query, args=(batch,), rounds=3, iterations=1)
