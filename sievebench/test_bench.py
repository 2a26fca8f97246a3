"""Tests of the benchmark itself, on tiny workloads.

    PYTHONPATH=src python -m pytest sievebench -q

Workloads run in this process (``workloads.run``) so a test can wrap a
program function first; ``run.py`` would start a fresh process.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import re
import time

import pytest

import compare
import inputs
import run
import tracing
import workloads

# lint: disable=SV012 (the stall and slowdown fixtures time themselves)

SPEC = json.loads(run.SPEC_PATH.read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SECONDS = 0.4

TINY = {
    "DATASETS": {
        "lookup_bulk": dict(num_species=2, genome_length=2000),
        "serve_zipf_open": dict(num_species=2, genome_length=2000),
        "cluster_uniform": dict(num_species=4, genome_length=2000, canonical=True),
        "map_reads": dict(num_species=2, genome_length=3000, phylogenetic=True),
    },
    "LOOKUP_CALL_KMERS": 256,
    "LOOKUP_POOL_CALLS": 8,
    "POOL_READS": {"cluster_uniform": 200, "map_reads": 16},
    "WARMUP_READS": {"serve_zipf_open": 10, "cluster_uniform": 50, "map_reads": 8},
    "ROUND_READS": {"cluster_uniform": 50, "map_reads": 8},
}


@pytest.fixture(scope="module")
def tiny():
    with pytest.MonkeyPatch.context() as patch:
        for name, value in TINY.items():
            patch.setattr(inputs, name, value)
        patch.setattr(workloads, "SETUP_REPEATS", 1)
        yield


def run_tiny(name, tmp, trace=False, seed=3, seconds=SECONDS):
    data = inputs.make_inputs(name, seed, seconds, trace)
    trace_path = str(tmp / f"{name}.trace.json") if trace else None
    return workloads.run(name, data, str(tmp), trace_path)


@pytest.fixture(scope="module")
def results(tiny, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runs")
    runs = {(name, trace): run_tiny(name, tmp, trace) for name in NAMES for trace in (False, True)}
    return runs, tmp


def test_spec_respects_the_benchmark_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = NAMES + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(name) for name in names), names
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT_RE.fullmatch(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for span in tracing.SPAN_NAMES:
        assert {f"{span}.calls", f"{span}.self_share"} <= per_layer
    for path in SPEC["paths"]:
        assert (run.ROOT / path).is_dir()


def test_each_workload_emits_exactly_the_declared_metrics(results):
    runs, _ = results
    for (name, trace), result in runs.items():
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in declared}, (name, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        if not trace:
            assert all(value > 0 for value in result["metrics"].values()), name


def test_deterministic_layer_counts_repeat_exactly(tiny, tmp_path):
    timed = ("self_share", "harness.", "reported_to_measured_latency", "peak_rss_mb")
    for name in ("cluster_uniform", "map_reads"):
        first = run_tiny(name, tmp_path, trace=True)["metrics"]
        second = run_tiny(name, tmp_path, trace=True)["metrics"]
        counts = [m for m in first if not any(t in m for t in timed)]
        assert [m for m in counts if first[m] != second[m]] == [], name


def test_trace_nests_children_inside_parents(results):
    _, tmp = results
    for name in NAMES:
        events = json.loads((tmp / f"{name}.trace.json").read_text())["traceEvents"]
        spans = {e["args"]["span"]: e for e in events if e["ph"] == "X"}
        assert spans, name
        for event in spans.values():
            parent_id = event["args"]["parent"]
            if not parent_id:
                continue
            parent = spans[parent_id]
            assert parent["tid"] == event["tid"]
            assert parent["ts"] <= event["ts"] + 1e-3
            assert event["ts"] + event["dur"] <= parent["ts"] + parent["dur"] + 1e-3
        begins = [e["id"] for e in events if e["ph"] == "b"]
        ends = [e["id"] for e in events if e["ph"] == "e"]
        assert begins and sorted(begins) == sorted(ends)


def test_self_times_plus_unattributed_equal_the_traced_wall(results):
    runs, tmp = results
    for name in ("lookup_bulk", "cluster_uniform", "map_reads"):  # single-threaded
        metrics = runs[(name, True)]["metrics"]
        layers = runs[(name, True)]["layers"]
        wall = metrics["harness.traced_wall_s"]
        self_s = sum(layers[span]["self_s"] for span in tracing.SPAN_NAMES)
        # Independent of the self-time arithmetic: the top-level spans
        # cover exactly the time the self times account for.
        events = json.loads((tmp / f"{name}.trace.json").read_text())["traceEvents"]
        top = sum(e["dur"] for e in events if e["ph"] == "X" and not e["args"]["parent"]) / 1e6
        assert self_s == pytest.approx(top, rel=1e-6)
        total = self_s + layers["harness.unattributed"]["self_s"]
        assert total == pytest.approx(wall, rel=0.01)
        assert 0 <= metrics["harness.unattributed.self_share"] <= 1
        assert metrics["harness.worker_threads_busy_share"] == 0


def test_open_loop_latency_counts_queueing_behind_a_stall(tiny, tmp_path, monkeypatch):
    from repro.sieve import SieveDevice

    data = inputs.make_inputs("serve_zipf_open", 3, 2.0, False)
    spec = {"traced": False, "offsets": [0.05 * i for i in range(20)]}
    workload = workloads.ServeZipfOpen(data, str(tmp_path))
    workload.setup()
    workload.warm_up()
    workload.compute_references()
    original = SieveDevice.query
    calls = itertools.count()
    stall = {}

    def stalled(self, kmers, **kwargs):
        if next(calls) == 4:
            stall["start"] = time.perf_counter()
            time.sleep(0.2)
            stall["end"] = time.perf_counter()
        return original(self, kmers, **kwargs)

    monkeypatch.setattr(SieveDevice, "query", stalled)
    try:
        phase = workload.run_phase(spec)
    finally:
        workload.teardown()
    due_in_stall = [r for r in phase.requests if stall["start"] <= r.due < stall["end"]]
    assert due_in_stall
    # Requests due during the stall that queued behind it are charged
    # the wait from their due time, not from when they got service.
    # (Raw times: the stall is a sleep, which host speed does not scale.)
    worst = max(r.done - r.due for r in due_in_stall)
    assert worst >= 0.1
    assert max(phase.latencies_ms(raw=True)) >= 100
    assert workloads.percentile(phase.latencies_ms(raw=True), 50) < 100


def test_a_wrong_answer_fails_the_run(tiny, tmp_path, monkeypatch, capsys):
    from repro.sieve import SieveDevice

    original = SieveDevice.query
    calls = itertools.count()
    flipped = []

    def flip_one_payload(self, kmers, **kwargs):
        results = original(self, kmers, **kwargs)
        if next(calls) == inputs.LOOKUP_WARMUP_CALLS:  # first timed call
            index = next(i for i, r in enumerate(results) if r.hit)
            results[index] = dataclasses.replace(results[index], payload=results[index].payload + 1)
            flipped.append(index)
        return results

    monkeypatch.setattr(SieveDevice, "query", flip_one_payload)
    monkeypatch.setattr(
        run,
        "run_workload",
        lambda name, data, work_dir, trace_path: workloads.run(name, data, str(work_dir), trace_path),
    )
    environ = dict(os.environ)
    status = run.main(["--workload", "lookup_bulk", "--seconds", "0.3", "--out", str(tmp_path / "r.json")])
    assert dict(os.environ) == environ  # the forced environment is the child's only
    assert flipped
    assert status == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is False and last["failed"] == 1


def test_doubling_match_all_is_caught_only_where_it_runs(tiny, tmp_path, monkeypatch):
    """ROADMAP item 1's sensitivity check: a 2x slower ``match_all``
    must read as worse on lookup_bulk and unchanged on cluster_uniform,
    which never calls it."""
    from repro.sieve.functional import SieveSubarraySim

    original = SieveSubarraySim.match_all

    def doubled(self, *args, **kwargs):
        start = time.perf_counter()
        out = original(self, *args, **kwargs)
        time.sleep(time.perf_counter() - start)
        return out

    # Parent and change phases alternate on one warm instance, so both
    # sides see the same host speed: on a shared machine that speed
    # drifts by tens of percent between runs.
    pairs = 6
    sides = {"parent": [{} for _ in range(pairs)], "change": [{} for _ in range(pairs)]}
    for name, seconds in (("lookup_bulk", SECONDS), ("cluster_uniform", 0.6)):
        data = inputs.make_inputs(name, 3, seconds, False)
        workload = workloads.WORKLOADS[name](data, str(tmp_path))
        workload.setup()
        try:
            workload.warm_up()
            workload.compute_references()
            for pair in range(pairs):
                for side, reports in sides.items():
                    with monkeypatch.context() as patch:
                        if side == "change":
                            patch.setattr(SieveSubarraySim, "match_all", doubled)
                        phase = workload.run_phase(data["phases"][0])
                    assert phase.wrong == 0
                    reports[pair][name] = {
                        "attempted": phase.attempted,
                        "failed": phase.failed,
                        "metrics": {"throughput_kmers_per_s": {"value": phase.throughput()}},
                    }
        finally:
            workload.teardown()
    rows = compare.compare(sides["parent"], sides["change"], SPEC)
    verdicts = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
    assert verdicts[("lookup_bulk", "throughput_kmers_per_s")] == "worse"
    assert verdicts[("cluster_uniform", "throughput_kmers_per_s")] == "unchanged"


def test_reference_seconds_scale_each_sample_by_its_probe():
    assert 0 < workloads.speed_probe() < 1
    phase = workloads.Phase(traced=False, start=0.0, items=300)
    # Two closed-loop samples of 1 s: one on a host at reference speed,
    # one on a host running at half speed (probe took twice as long).
    phase.samples = [(1.0, 1.0), (1.0, 0.5)]
    phase.requests = [
        workloads.Request(due=0.0, sent=0.0, done=1.0, scale=1.0),
        workloads.Request(due=1.0, sent=1.0, done=2.0, scale=0.5),
    ]
    assert phase.throughput() == pytest.approx(200.0)
    assert phase.latencies_ms() == pytest.approx([1000.0, 500.0])
    assert phase.latencies_ms(raw=True) == pytest.approx([1000.0, 1000.0])
    open_loop = workloads.Phase(traced=False, start=0.0, items=300, requests=phase.requests)
    assert open_loop.throughput() == pytest.approx(150.0)  # paced by its schedule


def test_compare_verdicts_and_claim_rule():
    assert compare.verdict([100, 101, 99], [80, 81, 79], "higher", 0.1) == "worse"
    assert compare.verdict([100, 101, 99], [98, 99, 97], "higher", 0.1) == "unchanged"
    assert compare.verdict([10, 10.5, 9.5], [8, 8.1, 7.9], "lower", 0.1) == "better"
    assert compare.verdict([100, 150, 60], [98, 99, 97], "higher", 0.1) == "unresolved"
    assert compare.verdict([100, 150, 60], [40, 45, 50], "higher", 0.1) == "worse"
    assert compare.error_verdict((0, 200), (1, 200)) == "worse"
    assert compare.error_verdict((2, 200), (1, 200)) == "unchanged"
    parent = [100.0 + i % 3 for i in range(10)]
    met, _ = compare.claim(parent, [110.0] * 10, "higher")
    assert met
    met, _ = compare.claim(parent, [110.0] * 10, "higher", failed_more=True)
    assert not met
    met, _ = compare.claim(parent[:5], [110.0] * 5, "higher")  # too few pairs
    assert not met
    met, _ = compare.claim(parent, [101.5] * 10, "higher")  # gap inside parent's IQR
    assert not met


def test_failures_in_a_minority_of_runs_are_worse_and_void_a_claim(tmp_path, capsys):
    def report(latency_ms, failed):
        result = {"attempted": 100, "failed": failed, "metrics": {"latency_p50_ms": {"value": latency_ms}}}
        return {"workloads": {"serve_zipf_open": result}}

    # 4 of 10 change runs fail a request: their median failure rate is
    # still 0, and their latency (over the requests that did not fail)
    # is lower.
    paths = {"a": [], "b": []}
    for i in range(10):
        for side, latency, failed in (("a", 30.0 + i % 3, 0), ("b", 20.0 + i % 3, int(i < 4))):
            path = tmp_path / f"{side}{i}.json"
            path.write_text(json.dumps(report(latency, failed)))
            paths[side].append(str(path))
    rows = compare.compare(compare.load_runs(paths["a"]), compare.load_runs(paths["b"]), SPEC)
    verdicts = {r["metric"]: r["verdict"] for r in rows}
    assert verdicts == {"latency_p50_ms": "better", "error_rate": "worse"}
    status = compare.main([*paths["a"], "--", *paths["b"], "--claim", "latency_p50_ms@serve_zipf_open"])
    assert status == 1
    assert "claim latency_p50_ms@serve_zipf_open: not met" in capsys.readouterr().out
