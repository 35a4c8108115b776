"""Observability layer: tracing, metrics, exports, and the perf gate."""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.observability import metrics as metrics_mod
from repro.observability.metrics import MetricsRegistry, get_registry
from repro.observability.trace import (
    NULL_SPAN,
    TRACE_SCHEMA_VERSION,
    Span,
    Tracer,
    activate,
    active_tracer,
    event,
    span,
)
from repro.service import (
    ExecutorConfig,
    MapperConfig,
    MappingEngine,
    MappingJob,
    TopologySpec,
    WorkloadSpec,
)

REPO = Path(__file__).resolve().parent.parent


def _job(workload: str) -> MappingJob:
    return MappingJob(TopologySpec((4, 4)), WorkloadSpec(workload),
                      MapperConfig.make("dimorder", order="ABT"))


# -- span recording -------------------------------------------------------------------
def test_span_nesting_builds_tree():
    tracer = Tracer(run_id="t")
    with activate(tracer):
        with span("outer", k=1):
            with span("inner.a"):
                pass
            with span("inner.b") as sp:
                sp.set(extra="x")
        with span("second"):
            pass
    assert [r.name for r in tracer.roots] == ["outer", "second"]
    outer = tracer.roots[0]
    assert [c.name for c in outer.children] == ["inner.a", "inner.b"]
    assert outer.attrs == {"k": 1}
    assert outer.children[1].attrs == {"extra": "x"}
    assert outer.wall_s >= outer.children[0].wall_s >= 0.0


def test_span_exception_safety():
    tracer = Tracer()
    with activate(tracer):
        with pytest.raises(ValueError):
            with span("outer"):
                with span("failing"):
                    raise ValueError("boom")
        # The stack unwound fully: new spans are roots again.
        with span("after"):
            pass
    assert [r.name for r in tracer.roots] == ["outer", "after"]
    failing = tracer.roots[0].children[0]
    assert failing.attrs["error"] == "ValueError"
    assert tracer.roots[0].attrs["error"] == "ValueError"
    assert failing.wall_s >= 0.0


def test_events_attach_under_open_span():
    tracer = Tracer()
    with activate(tracer):
        with span("phase"):
            event("degradation", reason="budget")
    (root,) = tracer.roots
    (ev,) = root.children
    assert ev.is_event and ev.name == "degradation"
    assert ev.attrs == {"reason": "budget"}


def test_disabled_tracer_is_noop():
    assert active_tracer() is None
    handle = span("anything", big=list(range(10)))
    assert handle is NULL_SPAN  # shared singleton: no allocation
    with handle as sp:
        assert sp.set(x=1) is sp
    event("ignored")  # must not raise


def test_disabled_span_overhead_is_small():
    def plain():
        return 1 + 1

    def traced():
        with span("x"):
            return 1 + 1

    n = 20_000
    t0 = time.perf_counter()
    for _ in range(n):
        plain()
    base = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        traced()
    cost = time.perf_counter() - t0
    # Disabled span is one global load + identity check + with-block;
    # allow generous CI jitter but catch accidental allocation storms.
    assert cost < base * 20 + 0.05


# -- export ---------------------------------------------------------------------------
def _fixed_tracer() -> Tracer:
    """A deterministic tree (no handles entered, so timings stay 0)."""
    tracer = Tracer(run_id="golden")
    root = Span("rahtm.map", {"tasks": 64})
    root.start_unix = 100.0
    root.wall_s, root.cpu_s = 2.5, 2.0
    child = Span("rahtm.merge", {"beam_width": 8})
    child.start_unix = 101.0
    child.wall_s, child.cpu_s = 1.0, 0.9
    ev = Span("degradation", {"reason": "budget"}, is_event=True)
    ev.start_unix = 101.5
    child.children.append(ev)
    root.children.append(child)
    tracer.roots.append(root)
    return tracer


def test_jsonl_export_golden(tmp_path):
    path = _fixed_tracer().write_jsonl(tmp_path / "t.jsonl")
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0] == {"trace_schema": TRACE_SCHEMA_VERSION,
                        "run_id": "golden", "spans": 3}
    assert lines[1] == {
        "id": 1, "parent": None, "depth": 0, "name": "rahtm.map",
        "attrs": {"tasks": 64}, "start_unix": 100.0, "wall_s": 2.5,
        "cpu_s": 2.0, "event": False,
    }
    assert lines[2]["id"] == 2 and lines[2]["parent"] == 1
    assert lines[3] == {
        "id": 3, "parent": 2, "depth": 2, "name": "degradation",
        "attrs": {"reason": "budget"}, "start_unix": 101.5, "wall_s": 0.0,
        "cpu_s": 0.0, "event": True,
    }


def test_chrome_export_golden(tmp_path):
    path = _fixed_tracer().write_chrome(tmp_path / "t.json")
    doc = json.loads(path.read_text())
    assert doc["otherData"] == {"run_id": "golden",
                                "trace_schema": TRACE_SCHEMA_VERSION}
    events = doc["traceEvents"]
    assert [e["name"] for e in events] == ["rahtm.map", "rahtm.merge",
                                           "degradation"]
    complete, child, instant = events
    assert complete["ph"] == "X" and complete["ts"] == 0.0
    assert complete["dur"] == pytest.approx(2.5e6)
    assert complete["args"] == {"tasks": 64, "cpu_s": 2.0}
    assert child["ts"] == pytest.approx(1e6)
    assert instant["ph"] == "i" and instant["s"] == "t"
    assert "dur" not in instant


def test_graft_and_unique_ids():
    worker = Tracer()
    with activate(worker):
        with span("job.execute"):
            with span("job.map"):
                pass
    parent = Tracer(run_id="batch")
    with activate(parent):
        with span("engine.batch"):
            parent.graft(worker.to_dicts(), job_index=0, job_key="abc")
            parent.graft(worker.to_dicts(), job_index=1, job_key="def")
    rows = parent.rows()
    ids = [r["id"] for r in rows]
    assert len(ids) == len(set(ids)) == 5  # batch + 2 x (execute, map)
    grafted = [r for r in rows if r["name"] == "job.execute"]
    assert {r["attrs"]["job_key"] for r in grafted} == {"abc", "def"}
    assert all(r["parent"] == 1 for r in grafted)


def test_span_roundtrip_and_find():
    tracer = _fixed_tracer()
    doc = tracer.roots[0].to_dict()
    clone = Span.from_dict(doc)
    assert clone.to_dict() == doc
    assert [s.name for s in clone.find("degradation")] == ["degradation"]


# -- metrics --------------------------------------------------------------------------
def test_registry_counter_gauge():
    reg = MetricsRegistry()
    reg.counter("a").inc()
    reg.counter("a").inc(2)
    reg.gauge("g").set(5.0)
    reg.gauge("g").add(-1.5)
    snap = reg.snapshot()
    assert snap["a"] == {"type": "counter", "value": 3.0}
    assert snap["g"] == {"type": "gauge", "value": 3.5}
    with pytest.raises(TypeError):
        reg.gauge("a")


def test_histogram_bucketing():
    reg = MetricsRegistry()
    h = reg.histogram("h")
    for v in (0.0, -1.0, 0.75, 1.0, 1.5, 3.0, 1024.0):
        h.record(v)
    snap = h.snapshot()
    assert snap["count"] == 7
    assert snap["min"] == -1.0 and snap["max"] == 1024.0
    # zero bucket: 0.0 and -1.0; 2^-1: [0.5, 1); 2^0: [1, 2); 2^1: [2, 4)
    assert snap["buckets"] == {"zero": 2, "2^-1": 1, "2^0": 2,
                               "2^1": 1, "2^10": 1}


def test_histogram_exponent_clamp():
    h = MetricsRegistry().histogram("h")
    h.record(1e-300)
    h.record(1e300)
    assert h.snapshot()["buckets"] == {"2^-30": 1, "2^63": 1}


def test_process_registry_is_shared():
    assert get_registry() is metrics_mod._REGISTRY
    before = get_registry().counter("test.obs.shared").value
    get_registry().counter("test.obs.shared").inc()
    assert get_registry().counter("test.obs.shared").value == before + 1


# -- pipeline integration -------------------------------------------------------------
def test_engine_cache_hit_telemetry(tmp_path):
    saved = get_registry().gauge("engine.cache_hit_saved_seconds")
    engine = MappingEngine(cache_dir=tmp_path / "cache")
    engine.run([_job("halo2d:4x4")])
    base = saved.value
    warm = MappingEngine(cache_dir=tmp_path / "cache")
    (outcome,) = warm.run([_job("halo2d:4x4")])
    assert outcome.ok and outcome.result.from_cache
    # A hit does zero mapping work and banks the original map_seconds.
    assert outcome.wall_seconds == 0.0
    assert saved.value == pytest.approx(
        base + outcome.result.map_seconds, abs=1e-9
    )


def test_engine_batch_traced_in_process(tmp_path):
    tracer = Tracer(run_id="test")
    with activate(tracer):
        engine = MappingEngine(cache_dir=tmp_path / "cache")
        engine.run([_job("halo2d:4x4"), _job("ring:16")])
    (batch,) = tracer.roots
    assert batch.name == "engine.batch"
    assert batch.attrs["executed"] == 2
    # jobs=1 runs in-process: job spans record directly under the batch.
    assert len(batch.find("job.execute")) == 2
    assert len(batch.find("job.map")) == 2


def test_engine_cache_hits_become_trace_events(tmp_path):
    engine = MappingEngine(cache_dir=tmp_path / "cache")
    engine.run([_job("halo2d:4x4")])
    tracer = Tracer()
    with activate(tracer):
        MappingEngine(cache_dir=tmp_path / "cache").run([_job("halo2d:4x4")])
    (batch,) = tracer.roots
    (hit,) = batch.find("engine.cache_hit")
    assert hit.is_event and hit.attrs["index"] == 0


def test_pooled_worker_traces_merge_without_collisions(tmp_path):
    jobs = [_job("halo2d:4x4"), _job("ring:16"), _job("transpose:4")]
    tracer = Tracer(run_id="pooled")
    with activate(tracer):
        engine = MappingEngine(cache_dir=tmp_path / "cache",
                               executor_config=ExecutorConfig(jobs=2))
        outcomes = engine.run(jobs)
    assert all(o.ok for o in outcomes)
    rows = tracer.rows()
    ids = [r["id"] for r in rows]
    assert len(ids) == len(set(ids))
    executes = [r for r in rows if r["name"] == "job.execute"]
    assert len(executes) == 3
    assert {r["attrs"]["job_index"] for r in executes} == {0, 1, 2}
    # Grafted worker roots hang off the engine batch span.
    batch_id = next(r["id"] for r in rows if r["name"] == "engine.batch")
    assert all(r["parent"] == batch_id for r in executes)
    # Traces never leak into cached artifacts.
    for payload_file in (tmp_path / "cache").glob("*/*.json"):
        assert "trace" not in json.loads(payload_file.read_text())


def test_cli_trace_writes_jsonl_and_chrome(tmp_path):
    from repro.cli import main

    trace_path = tmp_path / "run.jsonl"
    rc = main([
        "map", "--topology", "4x4", "--workload", "halo2d:4x4",
        "--mapper", "default", "--no-cache", "--jobs", "1",
        "--trace", str(trace_path),
    ])
    assert rc == 0
    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert lines[0]["trace_schema"] == TRACE_SCHEMA_VERSION
    assert lines[0]["run_id"] == "map"
    assert any(r["name"] == "engine.batch" for r in lines[1:])
    chrome = json.loads(
        (tmp_path / "run.chrome.json").read_text()
    )
    assert {e["name"] for e in chrome["traceEvents"]} >= {"engine.batch",
                                                          "job.map"}


def test_rahtm_pipeline_spans(tmp_path):
    from repro.core.rahtm import RAHTMConfig, RAHTMMapper
    from repro.topology.cartesian import CartesianTopology
    from repro.workloads.registry import parse_workload

    topology = CartesianTopology((4, 4))
    mapper = RAHTMMapper(topology, RAHTMConfig(
        beam_width=4, max_orientations=4, milp_time_limit=5.0,
    ))
    graph = parse_workload("halo2d:8x8")
    tracer = Tracer()
    with activate(tracer):
        mapper.map(graph)
    (root,) = tracer.roots
    assert root.name == "rahtm.map"
    for phase in ("rahtm.cluster", "rahtm.pseudo_pin", "rahtm.merge"):
        assert root.find(phase), f"missing {phase} span"
    levels = root.find("rahtm.pseudo_pin.level")
    assert levels and all("level" in s.attrs for s in levels)


def test_rahtm_refine_span_reports_batches():
    """The refine span carries the walk's batch counts, and the registry
    counters grow by the same amounts."""
    from repro.core.rahtm import RAHTMConfig, RAHTMMapper
    from repro.topology.cartesian import CartesianTopology
    from repro.workloads.registry import parse_workload

    mapper = RAHTMMapper(CartesianTopology((4, 4)), RAHTMConfig(
        beam_width=4, max_orientations=4, milp_time_limit=5.0,
        refine_iterations=300,
    ))
    registry = get_registry()
    before = {name: registry.counter(f"refine.{name}").value
              for name in ("batches", "discarded")}
    tracer = Tracer()
    with activate(tracer):
        mapper.map(parse_workload("halo2d:8x8"))
    (refine,) = tracer.roots[0].find("rahtm.refine")
    attrs = refine.attrs
    assert attrs["iterations"] == 300
    assert 0 < attrs["batches"] <= 300
    assert attrs["speculated"] > 0
    assert 0 <= attrs["discarded"] < attrs["speculated"]
    for name, value in before.items():
        assert registry.counter(f"refine.{name}").value == value + attrs[name]


# -- bench snapshot gate --------------------------------------------------------------
GATE = REPO / "benchmarks" / "compare_snapshots.py"


def _gate(*argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(GATE), *argv],
        capture_output=True, text=True,
    )


def _snapshot(phases=None, mcl=100.0, map_seconds=1.0) -> dict:
    return {
        "schema": 1,
        "scale": "tiny",
        "repeats": 1,
        "phases": dict(phases or {"phase2-milp": 1.0, "phase3-merge": 2.0}),
        "cells": {"BT": {"RAHTM": {"mcl": mcl, "map_seconds": map_seconds}}},
    }


def test_compare_snapshots_passes_identical(tmp_path):
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(_snapshot()))
    proc = _gate(str(path), str(path))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_compare_snapshots_fails_on_2x_slowdown(tmp_path):
    base, cur = tmp_path / "base.json", tmp_path / "cur.json"
    base.write_text(json.dumps(_snapshot()))
    slow = _snapshot(phases={"phase2-milp": 2.0, "phase3-merge": 4.0},
                     map_seconds=2.0)
    cur.write_text(json.dumps(slow))
    proc = _gate(str(base), str(cur))
    assert proc.returncode == 1
    assert "phase2-milp" in proc.stdout


def test_compare_snapshots_fails_on_mcl_drift(tmp_path):
    base, cur = tmp_path / "base.json", tmp_path / "cur.json"
    base.write_text(json.dumps(_snapshot(mcl=100.0)))
    cur.write_text(json.dumps(_snapshot(mcl=90.0)))
    proc = _gate(str(base), str(cur))
    assert proc.returncode == 1
    assert "MCL changed" in proc.stdout


def test_compare_snapshots_fails_when_rahtm_ties_a_baseline(tmp_path):
    snap = _snapshot(mcl=100.0)
    snap["cells"]["BT"]["Hilbert"] = {"mcl": 100.0, "map_seconds": 0.001}
    snap["cells"]["BT"]["ABCDET"] = {"mcl": 150.0, "map_seconds": 0.001}
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(snap))
    proc = _gate(str(path), str(path))
    assert proc.returncode == 1
    assert "claim BT/Hilbert" in proc.stdout
    assert "ABCDET" not in proc.stdout


def test_compare_snapshots_noise_floor(tmp_path):
    base, cur = tmp_path / "base.json", tmp_path / "cur.json"
    base.write_text(json.dumps(_snapshot(
        phases={"fast": 0.001}, map_seconds=0.0001)))
    cur.write_text(json.dumps(_snapshot(
        phases={"fast": 0.01}, map_seconds=0.001)))
    proc = _gate(str(base), str(cur))
    assert proc.returncode == 0, proc.stdout


def test_compare_snapshots_skips_missing_baseline(tmp_path):
    cur = tmp_path / "cur.json"
    cur.write_text(json.dumps(_snapshot()))
    proc = _gate(str(tmp_path / "nope.json"), str(cur))
    assert proc.returncode == 0
    assert "NOTICE" in proc.stdout


def test_committed_baseline_is_valid():
    baseline = json.loads((REPO / "benchmarks" / "BENCH_PR3.json").read_text())
    assert baseline["schema"] == 1
    assert baseline["scale"] == "tiny"
    assert baseline["phases"]
    assert set(baseline["cells"]) == {"BT", "SP", "CG"}


def test_compare_snapshots_explains_mcl_drift_with_hotspots(tmp_path):
    base, cur = tmp_path / "base.json", tmp_path / "cur.json"
    a = _snapshot(mcl=100.0)
    a["cells"]["BT"]["RAHTM"]["hotspot"] = {
        "slot": 3, "label": "(0,0) dim0+", "load": 100.0}
    b = _snapshot(mcl=90.0)
    b["cells"]["BT"]["RAHTM"]["hotspot"] = {
        "slot": 17, "label": "(2,1) dim1-", "load": 90.0}
    base.write_text(json.dumps(a))
    cur.write_text(json.dumps(b))
    proc = _gate(str(base), str(cur))
    assert proc.returncode == 1
    assert "hotspot moved (0,0) dim0+ -> (2,1) dim1-" in proc.stdout


def test_compare_snapshots_drift_on_same_hotspot(tmp_path):
    base, cur = tmp_path / "base.json", tmp_path / "cur.json"
    a = _snapshot(mcl=100.0)
    a["cells"]["BT"]["RAHTM"]["hotspot"] = {
        "slot": 3, "label": "(0,0) dim0+", "load": 100.0}
    b = _snapshot(mcl=90.0)
    b["cells"]["BT"]["RAHTM"]["hotspot"] = {
        "slot": 3, "label": "(0,0) dim0+", "load": 90.0}
    base.write_text(json.dumps(a))
    cur.write_text(json.dumps(b))
    proc = _gate(str(base), str(cur))
    assert proc.returncode == 1
    assert "hotspot stayed at (0,0) dim0+" in proc.stdout


def test_compare_snapshots_latest_discovers_newest_pr():
    """'latest' resolves to the newest repo-root BENCH_PR<N>.json."""
    # Track the trajectory: compare the newest committed baseline against
    # itself, whichever PR that is, so landing BENCH_PR<N+1>.json never
    # invalidates this test.
    newest = max(
        REPO.glob("BENCH_PR*.json"),
        key=lambda p: int(re.search(r"BENCH_PR(\d+)", p.name).group(1)),
    )
    proc = _gate("latest", str(newest), "--trend")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert newest.name in proc.stdout.splitlines()[0]
    assert "bench trajectory:" in proc.stdout
    # the trend table walks the whole trajectory, oldest first, and
    # carries the daemon latency (blank before PR 6) and fleet latency
    # (blank before PR 7) columns.
    lines = proc.stdout.splitlines()
    pr3 = next(i for i, line in enumerate(lines)
               if line.startswith("BENCH_PR3"))
    pr4 = next(i for i, line in enumerate(lines)
               if line.startswith("BENCH_PR4"))
    pr6 = next(i for i, line in enumerate(lines)
               if line.startswith("BENCH_PR6"))
    pr7 = next(i for i, line in enumerate(lines)
               if line.startswith("BENCH_PR7"))
    assert pr3 < pr4 < pr6 < pr7
    assert "serve_ms" in lines[pr3 - 2] and "fleet_ms" in lines[pr3 - 2]
    assert lines[pr3].rstrip().endswith("-")
    assert lines[pr6].rstrip().endswith("-")  # serve yes, fleet not yet
    assert not lines[pr7].rstrip().endswith("-")


def test_committed_pr6_baseline_carries_the_serve_bench():
    baseline = json.loads((REPO / "BENCH_PR6.json").read_text())
    assert baseline["schema"] == 1
    assert baseline["pr"] == "PR6"
    serve = baseline["serve"]
    assert serve["submit_to_done_seconds"] > 0.0
    assert serve["cache_hit_submit_seconds"] > 0.0
    # the warm path is one HTTP round trip; it must beat cold execution
    assert serve["cache_hit_submit_seconds"] < serve["submit_to_done_seconds"]


def test_committed_pr4_baseline_is_valid():
    baseline = json.loads((REPO / "BENCH_PR4.json").read_text())
    assert baseline["schema"] == 1
    assert baseline["scale"] == "tiny"
    assert baseline["pr"] == "PR4"
    for row in baseline["cells"].values():
        for cell in row.values():
            assert cell["hotspot"]["load"] <= cell["mcl"] + 1e-9
