"""The process-parallel fleet: determinism, caching, sanitizer
propagation, and the fork-safety of shared caches.

Pool-backed tests use two-job batches at ``max_workers=2`` so the
ProcessPoolExecutor path actually runs (single pending jobs execute
inline by design).
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
from pathlib import Path
from typing import Any, ClassVar, Dict

import numpy as np
import pytest

from repro.analysiskit import SanitizerError
from repro.fleet import (
    FleetError,
    Job,
    ResultCache,
    SanitizerProbeJob,
    configure,
    default_jobs,
    derive_seed,
    job_digest,
    run_jobs,
)
from repro.fleet import core as fleet_core
from repro.fleet.jobs import PerfPointJob


@dataclasses.dataclass(frozen=True)
class EchoJob(Job):
    """Returns its fields plus the derived seed (pure, cacheable)."""

    tag: str
    value: int = 0

    def run(self, seed: int) -> Dict[str, Any]:
        EXECUTIONS.append(self.key())
        return {"tag": self.tag, "value": self.value, "seed": seed}


@dataclasses.dataclass(frozen=True)
class FileDigestJob(Job):
    """Keyed by the *content* of the file at ``path``, not by the path
    (the pattern ``ReplayJob`` uses for its trace)."""

    path: str
    scale: int = 1

    def key(self) -> str:
        return (
            f"{type(self).__name__}(path=<content:{self.cache_token()}>,"
            f"scale={self.scale!r})"
        )

    def cache_token(self) -> str:
        return hashlib.sha256(Path(self.path).read_bytes()).hexdigest()

    def run(self, seed: int) -> Dict[str, Any]:
        EXECUTIONS.append(self.key())
        data = Path(self.path).read_bytes()
        return {"bytes": len(data), "sum": sum(data) * self.scale, "seed": seed}


@dataclasses.dataclass(frozen=True)
class UncachedJob(EchoJob):
    cacheable: ClassVar[bool] = False


@dataclasses.dataclass(frozen=True)
class NestedJob(Job):
    """Calls run_jobs from inside a job: must run inline (no nested pools)."""

    count: int

    def run(self, seed: int) -> Any:
        inner = run_jobs(
            [EchoJob(tag=f"inner{i}") for i in range(self.count)],
            max_workers=4,
        )
        return {"in_worker": fleet_core._in_worker, "inner": inner}


@dataclasses.dataclass(frozen=True)
class MutateSharedJob(Job):
    """Worker-side attack on the parent's pre-fork database cache."""

    kmer: int

    def run(self, seed: int) -> Dict[str, Any]:
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


class TestSeedDerivation:
    def test_seed_is_stable_content_hash(self):
        key = EchoJob(tag="a", value=3).key()
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        assert derive_seed(key) == int.from_bytes(digest[:8], "big") >> 1

    def test_seed_fits_numpy_and_differs_by_key(self):
        seeds = {derive_seed(EchoJob(tag=t).key()) for t in "abcdef"}
        assert len(seeds) == 6
        for seed in seeds:
            assert 0 <= seed < 2**63
            np.random.default_rng(seed)  # accepted as a seed

    def test_key_covers_every_field(self):
        key = EchoJob(tag="x", value=7).key()
        assert "tag='x'" in key and "value=7" in key
        assert key.startswith("EchoJob(")
        assert EchoJob(tag="x", value=8).key() != key


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


class TestResultCache:
    def test_round_trip_and_reuse(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [EchoJob(tag="c1"), EchoJob(tag="c2")]
        EXECUTIONS.clear()
        first = run_jobs(jobs, max_workers=1, cache=cache)
        assert len(EXECUTIONS) == 2
        again = run_jobs(jobs, max_workers=1, cache=cache)
        assert again == first
        assert len(EXECUTIONS) == 2  # served from cache, not re-run

    def test_digest_covers_version_and_fields(self):
        job = EchoJob(tag="d", value=1)
        assert job_digest(job, "1.0") != job_digest(job, "2.0")
        assert job_digest(job, "1.0") != job_digest(
            EchoJob(tag="d", value=2), "1.0"
        )

    def test_uncacheable_jobs_always_rerun(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [UncachedJob(tag="u1"), UncachedJob(tag="u2")]
        EXECUTIONS.clear()
        run_jobs(jobs, max_workers=1, cache=cache)
        run_jobs(jobs, max_workers=1, cache=cache)
        assert len(EXECUTIONS) == 4

    def test_corrupt_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = EchoJob(tag="corrupt")
        digest = job_digest(job, "v")
        cache.put(digest, job, {"ok": 1}, "v")
        path = cache._path(digest)
        path.write_text("{not json")
        assert cache.get(digest) is None

    def test_truncated_entries_are_misses_then_repaired(self, tmp_path):
        """Crash-truncated entries (the failure mode ``put``'s
        fsync-before-rename now prevents for new writes) must read as
        misses, and a subsequent ``put`` must repair the slot."""
        cache = ResultCache(tmp_path)
        job = EchoJob(tag="truncated")
        digest = job_digest(job, "v")
        cache.put(digest, job, {"ok": 1}, "v")
        path = cache._path(digest)
        full = path.read_text(encoding="utf-8")
        for cut in (0, 1, len(full) // 2, len(full) - 1):
            path.write_text(full[:cut], encoding="utf-8")
            assert cache.get(digest) is None, f"cut={cut} must be a miss"
        cache.put(digest, job, {"ok": 2}, "v")
        assert cache.get(digest)["payload"] == {"ok": 2}

    def test_put_leaves_no_tmp_litter(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = EchoJob(tag="clean")
        digest = job_digest(job, "v")
        cache.put(digest, job, {"ok": 1}, "v")
        leftovers = [
            p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_cache_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(fleet_core.CACHE_ENV_VAR, str(tmp_path))
        EXECUTIONS.clear()
        run_jobs([EchoJob(tag="env1"), EchoJob(tag="env2")], max_workers=1)
        run_jobs([EchoJob(tag="env1"), EchoJob(tag="env2")], max_workers=1)
        assert len(EXECUTIONS) == 2


class TestContentKeyedCache:
    """``Job.cache_token()`` folds external content identity into the
    cache digest, so results key by file content instead of path."""

    def _file(self, tmp_path, name, bump=0):
        path = tmp_path / name
        path.write_bytes(bytes((7 + i * 91 + bump) % 256 for i in range(40)))
        return str(path)

    def test_empty_token_leaves_digest_unchanged(self):
        """Historical digests must not shift: the token is only folded
        in when non-empty, and the base Job token is empty."""
        job = EchoJob(tag="stable")
        assert job.cache_token() == ""
        assert "token=" not in job.key()

    def test_same_content_different_path_shares_identity(self, tmp_path):
        a = FileDigestJob(path=self._file(tmp_path, "a"))
        b = FileDigestJob(path=self._file(tmp_path, "b"))
        assert a.key() == b.key()
        assert job_digest(a, "v") == job_digest(b, "v")
        assert derive_seed(a.key()) == derive_seed(b.key())

    def test_different_content_changes_identity(self, tmp_path):
        a = FileDigestJob(path=self._file(tmp_path, "a"))
        c = FileDigestJob(path=self._file(tmp_path, "c", bump=1))
        assert a.key() != c.key()
        assert job_digest(a, "v") != job_digest(c, "v")

    def test_cache_hit_across_paths(self, tmp_path):
        """A result computed for one directory serves a byte-identical
        copy at another path straight from the cache."""
        cache = ResultCache(tmp_path / "cache")
        EXECUTIONS.clear()
        job_a = FileDigestJob(path=self._file(tmp_path, "a"))
        (first,) = run_jobs([job_a], max_workers=1, cache=cache)
        job_b = FileDigestJob(path=self._file(tmp_path, "b"))
        (second,) = run_jobs([job_b], max_workers=1, cache=cache)
        assert second == first
        assert EXECUTIONS == [job_a.key()]

    def test_payloads_identical_across_worker_counts(self, tmp_path):
        jobs = [
            FileDigestJob(path=self._file(tmp_path, "a"), scale=2),
            FileDigestJob(path=self._file(tmp_path, "a"), scale=3),
        ]
        inline = run_jobs(jobs, max_workers=1, use_cache=False)
        pooled = run_jobs(jobs, max_workers=2, use_cache=False)
        assert inline == pooled


class TestSanitizerPropagation:
    def test_probe_sees_sanitizer_in_workers(self):
        results = run_jobs(
            [SanitizerProbeJob(violate=False),
             SanitizerProbeJob(violate=False)],
            max_workers=2, use_cache=False,
        )
        assert all(r["sanitizer_active"] for r in results)

    def test_violation_in_worker_surfaces_in_parent(self):
        with pytest.raises(SanitizerError) as excinfo:
            run_jobs(
                [SanitizerProbeJob(violate=False),
                 SanitizerProbeJob(violate=True)],
                max_workers=2, use_cache=False,
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
                max_workers=2, use_cache=False,
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
