"""End-to-end determinism: same seed, same bytes — at any worker count.

Two angles on the same invariant the golden suite pins per-experiment:

* the metagenomic-classification example produces byte-identical stdout
  across repeated runs (all randomness flows from fixed seeds);
* a sensitivity sweep and the benchmark harness serialize byte-identically
  at ``--jobs 1`` and ``--jobs 4``.
"""

from __future__ import annotations

import pytest

from repro.experiments.sensitivity import sensitivity_hit_rate
from repro.fleet import canonical_json, configure, figure_payload

from .test_examples import run_example


@pytest.mark.slow
def test_metagenomic_example_stdout_is_reproducible():
    first = run_example("metagenomic_classification.py")
    second = run_example("metagenomic_classification.py")
    assert first == second


def _sweep_bytes(jobs: int) -> str:
    configure(jobs=jobs)
    try:
        return canonical_json(figure_payload(sensitivity_hit_rate()))
    finally:
        configure()


def test_sensitivity_sweep_identical_across_worker_counts():
    assert _sweep_bytes(1) == _sweep_bytes(4)


def test_bench_counters_identical_across_worker_counts():
    from repro.bench import run_benchmarks

    serial = run_benchmarks(quick=True, only=["host_lookup", "figure_regen"],
                            jobs=1)
    parallel = run_benchmarks(quick=True,
                              only=["host_lookup", "figure_regen"], jobs=2)
    assert [r.name for r in serial] == [r.name for r in parallel]
    assert [r.counters for r in serial] == [r.counters for r in parallel]
