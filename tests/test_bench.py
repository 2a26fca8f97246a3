"""Tests for the benchmark-regression harness (``repro.bench``)."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    BENCHMARKS,
    BenchError,
    BenchResult,
    compare_to_baseline,
    format_results,
    load_baseline,
    run_benchmarks,
    to_payload,
)
from repro.bench.__main__ import main as bench_main


def result(name, wall_s=1.0, counters=None):
    return BenchResult(
        name=name, wall_s=wall_s, counters=counters or {"queries": 10}
    )


def baseline_for(results, quick=True):
    return json.loads(json.dumps(to_payload(results, quick=quick)))


class TestCompare:
    def test_identical_run_passes(self):
        results = [result("database_build"), result("host_lookup")]
        assert compare_to_baseline(results, baseline_for(results)) == []

    def test_wall_regression_past_threshold_fails(self):
        base = [result("database_build", wall_s=1.0)]
        current = [result("database_build", wall_s=1.6)]
        failures = compare_to_baseline(
            current, baseline_for(base), threshold=1.5
        )
        assert len(failures) == 1
        assert "wall" in failures[0]

    def test_wall_within_threshold_passes(self):
        base = [result("database_build", wall_s=1.0)]
        current = [result("database_build", wall_s=1.4)]
        assert compare_to_baseline(current, baseline_for(base)) == []

    def test_millisecond_jitter_absorbed_by_grace(self):
        # A 3x ratio on a sub-millisecond benchmark is scheduler noise,
        # not a regression; the absolute grace term must absorb it.
        base = [result("host_lookup", wall_s=0.0005)]
        current = [result("host_lookup", wall_s=0.0015)]
        assert compare_to_baseline(current, baseline_for(base)) == []

    def test_counter_drift_fails_even_when_faster(self):
        base = [result("device_lookup_packed", counters={"hits": 5})]
        current = [
            result("device_lookup_packed", wall_s=0.1, counters={"hits": 6})
        ]
        failures = compare_to_baseline(current, baseline_for(base))
        assert len(failures) == 1
        assert "counters" in failures[0]

    def test_benchmark_missing_from_baseline_fails(self):
        base = [result("database_build")]
        current = [result("database_build"), result("figure_regen")]
        failures = compare_to_baseline(current, baseline_for(base))
        assert any("missing from baseline" in f for f in failures)

    def test_stale_baseline_entry_fails(self):
        """A baseline row naming no registered benchmark (a deleted
        scenario) is reported; a registered row the run skipped is not."""
        base = [
            result("database_build"),
            result("host_lookup"),
            result("retired_scenario"),
        ]
        current = [result("database_build")]
        failures = compare_to_baseline(current, baseline_for(base))
        assert len(failures) == 1
        assert failures[0].startswith("retired_scenario: stale")

    def test_threshold_must_exceed_one(self):
        with pytest.raises(BenchError):
            compare_to_baseline([], baseline_for([]), threshold=1.0)


class TestRegistry:
    def test_unknown_benchmark_rejected(self):
        with pytest.raises(BenchError):
            run_benchmarks(only=["nope"])

    def test_quick_run_is_deterministic_and_complete(self):
        names = ["host_lookup", "figure_regen"]
        first = run_benchmarks(quick=True, only=names)
        second = run_benchmarks(quick=True, only=names)
        assert [r.name for r in first] == names
        assert [r.counters for r in first] == [r.counters for r in second]

    def test_batched_and_scalar_counters_agree(self):
        results = run_benchmarks(
            quick=True,
            only=["device_lookup_packed", "device_lookup_scalar"],
        )
        assert results[0].counters == results[1].counters

    def test_payload_shape(self):
        results = run_benchmarks(quick=True, only=["host_lookup"])
        payload = to_payload(results, quick=True)
        assert payload["schema"] == 1
        assert payload["quick"] is True
        entry = payload["benchmarks"]["host_lookup"]
        assert entry["wall_s"] > 0.0
        assert entry["counters"]["queries"] > 0

    def test_format_lists_every_benchmark(self):
        results = [result(name) for name in BENCHMARKS]
        text = format_results(results)
        for name in BENCHMARKS:
            assert name in text


class TestExtras:
    """``BenchResult.extras`` round-trip: reported in the payload,
    reconstructed on load, and *never* baseline-compared (they carry
    machine-noise-prone host figures, unlike ``counters``)."""

    def test_payload_includes_extras_only_when_present(self):
        with_extras = BenchResult(
            name="service_cached",
            wall_s=0.5,
            counters={"requests": 60},
            extras={"hit_rate": 0.75, "wall_saved_s": 0.01},
        )
        payload = baseline_for([with_extras, result("host_lookup")])
        entry = payload["benchmarks"]["service_cached"]
        assert entry["extras"] == {"hit_rate": 0.75, "wall_saved_s": 0.01}
        assert "extras" not in payload["benchmarks"]["host_lookup"]

    def test_extras_drift_never_fails_comparison(self):
        base = [
            BenchResult(
                name="service_cached",
                wall_s=0.5,
                counters={"requests": 60},
                extras={"hit_rate": 0.9},
            )
        ]
        current = [
            BenchResult(
                name="service_cached",
                wall_s=0.5,
                counters={"requests": 60},
                extras={"hit_rate": 0.1, "wall_saved_s": -5.0},
            )
        ]
        assert compare_to_baseline(current, baseline_for(base)) == []

    def test_baseline_file_round_trip_preserves_extras(self, tmp_path):
        results = [
            BenchResult(
                name="service_cached",
                wall_s=0.5,
                counters={"requests": 60},
                extras={"hit_rate": 0.75},
            )
        ]
        path = tmp_path / "BENCH_test.json"
        path.write_text(json.dumps(to_payload(results, quick=True)))
        baseline = load_baseline(path)
        entry = baseline["benchmarks"]["service_cached"]
        assert entry["extras"] == {"hit_rate": 0.75}
        assert compare_to_baseline(results, baseline) == []

    def test_scenario_extras_survive_the_fleet_path(self):
        # service_cached is the registry's extras-producing scenario;
        # run_benchmarks routes it through the run_benchmark fleet job,
        # which must not drop the third tuple element.
        (r,) = run_benchmarks(quick=True, only=["service_cached"])
        assert r.extras
        assert "hit_rate" in r.extras
        entry = to_payload([r], quick=True)["benchmarks"]["service_cached"]
        assert entry["extras"] == r.extras

    def test_committed_baseline_records_extras(self):
        from pathlib import Path

        baseline = load_baseline(
            Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "BENCH_baseline.json"
        )
        assert "extras" in baseline["benchmarks"]["service_cached"]


class TestCli:
    def test_writes_output_and_passes_against_own_baseline(self, tmp_path):
        out = tmp_path / "bench.json"
        code = bench_main(
            ["--quick", "--only", "host_lookup", "--output", str(out)]
        )
        assert code == 0
        code = bench_main(
            [
                "--quick",
                "--only",
                "host_lookup",
                "--output",
                str(tmp_path / "again.json"),
                "--baseline",
                str(out),
            ]
        )
        assert code == 0

    def test_counter_drift_fails_cli(self, tmp_path):
        out = tmp_path / "bench.json"
        assert (
            bench_main(
                ["--quick", "--only", "host_lookup", "--output", str(out)]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        payload["benchmarks"]["host_lookup"]["counters"]["queries"] += 1
        out.write_text(json.dumps(payload))
        code = bench_main(
            [
                "--quick",
                "--only",
                "host_lookup",
                "--output",
                str(tmp_path / "again.json"),
                "--baseline",
                str(out),
            ]
        )
        assert code == 1

    def test_malformed_baseline_is_an_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        code = bench_main(
            [
                "--quick",
                "--only",
                "host_lookup",
                "--output",
                str(tmp_path / "out.json"),
                "--baseline",
                str(bad),
            ]
        )
        assert code == 2
        with pytest.raises(BenchError):
            load_baseline(bad)

    def test_unknown_name_is_an_error(self, tmp_path):
        assert (
            bench_main(
                ["--only", "nope", "--output", str(tmp_path / "out.json")]
            )
            == 2
        )


def test_committed_baseline_matches_current_counters():
    """The committed CI baseline must stay in sync with the code: a
    functional change that shifts counters has to refresh it."""
    from pathlib import Path

    baseline_path = (
        Path(__file__).resolve().parent.parent
        / "benchmarks"
        / "BENCH_baseline.json"
    )
    baseline = load_baseline(baseline_path)
    results = run_benchmarks(quick=True)
    failures = [
        f
        for f in compare_to_baseline(results, baseline)
        if "counters" in f or "missing" in f or "stale" in f
    ]
    assert failures == []


def test_trajectory_tabulates_history(tmp_path, capsys):
    """One row per scenario, one column per history file (numeric
    order), wall seconds with a counter check against the baseline."""
    history = tmp_path / "history"
    history.mkdir()
    base = [result("database_build", counters={"kmers": 5}), result("host_lookup")]
    (tmp_path / "BENCH_baseline.json").write_text(json.dumps(baseline_for(base)))
    runs = {
        "run10": [
            result("database_build", wall_s=0.25, counters={"kmers": 6}),
            result("host_lookup", wall_s=0.5),
        ],
        "run9": [result("database_build", wall_s=0.125, counters={"kmers": 5})],
    }
    for stem, results in runs.items():
        (history / f"{stem}.json").write_text(json.dumps(baseline_for(results)))
    # The newest payload (run10) has drifted counters: exit 1.
    assert bench_main(["--trajectory", str(history)]) == 1
    out, err = capsys.readouterr()
    header, *rows = out.splitlines()
    assert header.split() == ["scenario", "run9", "run10"]
    assert [row.split() for row in rows] == [
        ["database_build", "0.125", "✓", "0.250", "✗"],
        ["host_lookup", "-", "0.500", "✓"],
    ]
    assert "database_build" in err
    assert bench_main(["--trajectory", str(tmp_path / "missing")]) == 2


def test_trajectory_exit_status_reads_only_the_newest_payload(tmp_path, capsys):
    """A ``✗`` in an older payload is history; one in the newest fails."""
    history = tmp_path / "history"
    history.mkdir()
    base = [result("database_build", counters={"kmers": 5})]
    (tmp_path / "BENCH_baseline.json").write_text(json.dumps(baseline_for(base)))
    old = [result("database_build", counters={"kmers": 6})]
    (history / "run1.json").write_text(json.dumps(baseline_for(old)))
    (history / "run2.json").write_text(json.dumps(baseline_for(base)))
    assert bench_main(["--trajectory", str(history)]) == 0
    (history / "run3.json").write_text(
        json.dumps(baseline_for([result("host_lookup")]))
    )
    assert bench_main(["--trajectory", str(history)]) == 1
    assert "host_lookup" in capsys.readouterr().err
