"""The live telemetry plane: time-series sampling, Prometheus
exposition, streaming spans, SLO alerts, and the ``repro top`` frames.

Unit layers (recorder, sink, renderer/parser, evaluator) are driven
with injected clocks and registries — no sleeps. The daemon integration
tests run a real daemon on a background thread and scrape it over real
HTTP.
"""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.errors import ConfigError, ServiceError
from repro.observability import (
    MetricsRegistry,
    TelemetrySink,
    TimeSeriesRecorder,
    Tracer,
    parse_prometheus,
    quantile_from_cumulative,
    render_prometheus,
)
from repro.serve import DaemonConfig, MappingDaemon, ServeClient, SloEvaluator, SloPolicy
from repro.serve.top import render, run_top, sparkline
from repro.service import MappingJob
from repro.service.jobs import MapperConfig, TopologySpec, WorkloadSpec


def job_spec(workload="ring:4", shape=(2, 2), mapper="dimorder",
             seed=0, **params):
    return MappingJob(
        topology=TopologySpec(shape),
        workload=WorkloadSpec(workload, seed=seed),
        mapper=MapperConfig.make(mapper, **params),
    ).payload()


# ===================== TimeSeriesRecorder =============================================
def test_recorder_counter_rates_from_deltas():
    reg = MetricsRegistry()
    rec = TimeSeriesRecorder(reg)
    reg.counter("jobs").inc(10)
    first = rec.sample(now=100.0)
    assert first["schema"] == 1
    assert first["metrics"]["jobs"] == {"type": "counter", "value": 10}
    reg.counter("jobs").inc(10)
    second = rec.sample(now=102.0)
    assert second["metrics"]["jobs"]["rate"] == pytest.approx(5.0)
    # A counter reset (registry cleared mid-flight) clamps to zero,
    # never reports a negative rate.
    reg.reset()
    reg.counter("jobs").inc(1)
    third = rec.sample(now=104.0)
    assert third["metrics"]["jobs"]["rate"] == 0.0


def test_recorder_histogram_quantiles_and_ring_bound():
    reg = MetricsRegistry()
    rec = TimeSeriesRecorder(reg, capacity=3)
    hist = reg.histogram("wait")
    for v in (0.3, 0.6, 1.2, 2.5):
        hist.record(v)
    reg.gauge("depth").set(7)
    row = rec.sample(now=10.0)
    cell = row["metrics"]["wait"]
    assert cell["type"] == "histogram"
    assert cell["count"] == 4
    assert cell["sum"] == pytest.approx(4.6)
    snap = hist.snapshot()
    for q, label in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
        assert cell[label] == quantile_from_cumulative(snap["cumulative"], q)
    assert row["metrics"]["depth"] == {"type": "gauge", "value": 7}
    # The ring holds exactly `capacity` samples; rates keep flowing.
    for i in range(5):
        hist.record(0.1)
        rec.sample(now=11.0 + i)
    assert len(rec) == 3
    assert rec.capacity == 3
    assert rec.latest()["metrics"]["wait"]["rate"] == pytest.approx(1.0)
    times = [t for t, _ in rec.series("wait", field="count")]
    assert times == [13.0, 14.0, 15.0]
    # series() skips samples that predate the metric
    reg.counter("late").inc()
    rec.sample(now=16.0)
    assert rec.series("late") == [(16.0, 1)]


def test_recorder_capacity_validation():
    with pytest.raises(ValueError):
        TimeSeriesRecorder(MetricsRegistry(), capacity=0)


# ===================== TelemetrySink ==================================================
def test_sink_meta_row_and_rotation(tmp_path):
    sink = TelemetrySink(tmp_path / "telemetry", rotate_bytes=1024, keep=2)
    pad = "x" * 600  # two rows exceed rotate_bytes
    sink.append({"n": 1, "pad": pad})
    sink.append({"n": 2, "pad": pad})
    # third append sees size >= rotate_bytes -> rotate, fresh meta row
    sink.append({"n": 3, "pad": pad})
    live = [json.loads(line) for line in sink.path.read_text().splitlines()]
    assert live[0]["kind"] == "telemetry_meta"
    assert live[0]["telemetry_schema"] == 1
    assert [row.get("n") for row in live[1:]] == [3]
    gen1 = [json.loads(line)
            for line in (tmp_path / "telemetry" / "metrics.jsonl.1")
            .read_text().splitlines()]
    assert gen1[0]["kind"] == "telemetry_meta"
    assert [row.get("n") for row in gen1[1:]] == [1, 2]
    # keep=2: generation 3 is dropped, not created
    sink.append({"n": 4, "pad": pad})
    sink.append({"n": 5, "pad": pad})
    sink.append({"n": 6, "pad": pad})
    names = sorted(p.name for p in (tmp_path / "telemetry").iterdir())
    assert names == ["metrics.jsonl", "metrics.jsonl.1", "metrics.jsonl.2"]


def test_sink_validation():
    with pytest.raises(ValueError):
        TelemetrySink("x", rotate_bytes=10)
    with pytest.raises(ValueError):
        TelemetrySink("x", keep=0)


# ===================== cumulative buckets =============================================
def test_histogram_cumulative_matches_quantile():
    reg = MetricsRegistry()
    hist = reg.histogram("h")
    for v in (0.0, -1.0, 0.3, 0.4, 0.9, 1.5, 3.0, 3.5):
        hist.record(v)
    snap = hist.snapshot()
    cumulative = snap["cumulative"]
    # monotone, ends at +Inf == count, zero bucket first
    assert cumulative[0] == [0.0, 2]
    assert cumulative[-1] == ["+Inf", snap["count"]]
    cums = [c for _, c in cumulative]
    assert cums == sorted(cums)
    for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
        assert quantile_from_cumulative(cumulative, q) == hist.quantile(q)
    assert quantile_from_cumulative([], 0.5) is None


# ===================== Prometheus exposition ==========================================
def test_prometheus_round_trip_with_tenant_labels():
    reg = MetricsRegistry()
    reg.counter("serve.http_requests").inc(3)
    reg.gauge("serve.queue_depth").set(2)
    reg.histogram("serve.wait_seconds").record(0.7)
    reg.counter("serve.tenant.alice.submitted").inc(5)
    reg.counter("serve.tenant.bob.submitted").inc(1)
    reg.histogram("serve.tenant.alice.e2e_seconds").record(1.5)
    text = render_prometheus(reg.snapshot())
    families = parse_prometheus(text)
    assert families["serve_http_requests"]["type"] == "counter"
    assert families["serve_http_requests"]["samples"] == [
        ("serve_http_requests", {}, 3.0)]
    # tenant instruments fold into one family with a tenant label
    submitted = families["serve_tenant_submitted"]
    assert submitted["type"] == "counter"
    assert sorted(labels["tenant"] for _, labels, _ in submitted["samples"]) \
        == ["alice", "bob"]
    hist = families["serve_tenant_e2e_seconds"]
    assert hist["type"] == "histogram"
    counts = [v for name, labels, v in hist["samples"]
              if name.endswith("_count")]
    assert counts == [1.0]
    # the one # TYPE line per family survives double-tenancy
    assert text.count("# TYPE serve_tenant_submitted counter") == 1


def test_prometheus_parser_rejects_bad_exposition():
    with pytest.raises(ValueError, match="no # TYPE"):
        parse_prometheus("mystery_metric 1\n")
    with pytest.raises(ValueError, match="unparseable"):
        parse_prometheus("# TYPE a counter\na{ 1\n")
    with pytest.raises(ValueError, match="missing \\+Inf"):
        parse_prometheus(
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 1\nh_sum 1\nh_count 1\n')
    with pytest.raises(ValueError, match="buckets decrease"):
        parse_prometheus(
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 3\nh_bucket{le="+Inf"} 2\n'
            "h_sum 1\nh_count 2\n")
    with pytest.raises(ValueError, match="!= _count"):
        parse_prometheus(
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 2\nh_sum 1\nh_count 3\n')
    with pytest.raises(ValueError, match="re-typed"):
        parse_prometheus("# TYPE a counter\n# TYPE a gauge\na 1\n")


# ===================== streaming span sink ============================================
def test_tracer_streams_roots_and_bounds_retention(tmp_path):
    sink = tmp_path / "spans.jsonl"
    tracer = Tracer(run_id="r1", sink=sink, max_roots=2)
    for i in range(5):
        with tracer.span(f"root-{i}"):
            with tracer.span("child"):
                pass
    # every completed root streamed out, memory capped at max_roots
    assert len(tracer.roots) == 2
    assert [s.name for s in tracer.roots] == ["root-3", "root-4"]
    rows = [json.loads(line) for line in sink.read_text().splitlines()]
    assert rows[0] == {"trace_schema": rows[0]["trace_schema"],
                       "run_id": "r1", "streaming": True}
    spans = rows[1:]
    assert [r["id"] for r in spans] == list(range(1, 11))
    assert [r["name"] for r in spans if r["parent"] is None] \
        == [f"root-{i}" for i in range(5)]
    with pytest.raises(ValueError):
        Tracer(max_roots=0)


def test_tracer_sink_unwritable_is_swallowed(tmp_path):
    # The sink is diagnostics: a bad path must not break the traced run.
    tracer = Tracer(sink=tmp_path / "missing" / "x" / "spans.jsonl")
    with tracer.span("ok"):
        pass
    assert [s.name for s in tracer.roots] == ["ok"]


# ===================== SLO evaluation =================================================
def test_slo_policy_validation():
    with pytest.raises(ValueError):
        SloPolicy(p99_latency_seconds=0.0)
    assert not SloPolicy().active
    assert SloPolicy(reject_rate=0.5).active


def test_slo_p99_and_reject_rules_fire_with_stable_onset():
    reg = MetricsRegistry()
    ev = SloEvaluator(reg, SloPolicy(p99_latency_seconds=0.5,
                                     reject_rate=0.25))
    hist = reg.histogram("serve.tenant.alice.e2e_seconds")
    assert ev.evaluate(["alice"], now=100.0) == []  # no samples yet
    hist.record(10.0)
    hist.record(12.0)
    reg.counter("serve.tenant.alice.submitted").inc(4)
    reg.counter("serve.tenant.alice.rejected").inc(2)
    alerts = ev.evaluate(["alice"], now=101.0)
    assert [(a["rule"], a["tenant"]) for a in alerts] == [
        ("p99_latency", "alice"), ("reject_rate", "alice")]
    assert all(a["since_unix"] == 101.0 for a in alerts)
    assert alerts[1]["value"] == pytest.approx(0.5)
    # still firing two ticks later: onset time is preserved, not reset
    again = ev.evaluate(["alice"], now=109.0)
    assert [a["since_unix"] for a in again] == [101.0, 101.0]
    # healthy tenant alongside: no alerts of its own
    reg.counter("serve.tenant.bob.submitted").inc(10)
    assert {a["tenant"] for a in ev.evaluate(["alice", "bob"], now=110.0)} \
        == {"alice"}


# ===================== repro top ======================================================
def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert sparkline([3, 3, 3]) == "▁▁▁"
    line = sparkline([0, 1, 2, 3], width=4)
    assert line[0] == "▁" and line[-1] == "█" and len(line) == 4
    assert len(sparkline(range(100), width=8)) == 8


def test_top_render_frame_is_pure():
    health = {
        "status": "serving", "pid": 42, "uptime_seconds": 90.0,
        "jobs": {"done": 3, "queued": 1},
        "queue": {"alice": {"queued": 1, "weight": 2.0}},
        "wait_seconds": {"p50": 0.01, "p95": 0.2},
        "alerts": [{"rule": "p99_latency", "tenant": "alice",
                    "detail": "e2e p99 3s > 1s", "since_unix": 0.0}],
        "telemetry": {"samples": 7},
    }
    metrics = {
        "serve.http_requests": {"type": "counter", "value": 9},
        "serve.queue_depth": {"type": "gauge", "value": 1},
        "serve.tenant.alice.completed": {"type": "counter", "value": 3},
        "serve.tenant.alice.e2e_seconds": {
            "type": "histogram", "count": 3, "sum": 9.0,
            "cumulative": [[4.0, 3], ["+Inf", 3]]},
    }
    history = [(i, {"serve.queue_depth": {"value": i % 4},
                    "serve.wait_seconds": {
                        "cumulative": [[1.0, i + 1], ["+Inf", i + 1]]}})
               for i in range(6)]
    frame = render(health, metrics, history=history, width=100)
    assert "repro top — pid 42" in frame
    assert "alerts 1" in frame
    assert "alice" in frame and "tenant" in frame
    assert "queue depth" in frame and "wait p95" in frame
    assert "! p99_latency tenant=alice" in frame
    assert all(len(line) <= 100 for line in frame.splitlines())


def test_run_top_polls_and_renders_once():
    class FakeClient:
        def __init__(self):
            self.calls = 0

        def healthz(self):
            self.calls += 1
            return 200, {"status": "serving", "pid": 1, "jobs": {}}

        def metrics(self):
            return 200, {"serve.http_requests":
                         {"type": "counter", "value": 1}}

    out = io.StringIO()
    assert run_top(FakeClient(), iterations=1, clear=False, out=out) == 0
    assert "repro top" in out.getvalue()
    assert "\x1b" not in out.getvalue()  # clear=False: no ANSI codes

    class Unhealthy(FakeClient):
        def metrics(self):
            return 503, {}

    with pytest.raises(ServiceError):
        run_top(Unhealthy(), iterations=1, clear=False, out=io.StringIO())


# ===================== daemon integration =============================================
@pytest.fixture
def daemon_factory(tmp_path):
    running = []

    def start(**overrides):
        overrides.setdefault("cache_dir", str(tmp_path / "cache"))
        overrides.setdefault("janitor_interval", 0.0)
        overrides.setdefault("telemetry_interval", 0.0)
        daemon = MappingDaemon(DaemonConfig(**overrides))
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        assert daemon.ready.wait(15), "daemon did not become ready"
        running.append((daemon, thread))
        return daemon, ServeClient(daemon.url, timeout=15)

    yield start
    for daemon, thread in running:
        daemon.stop("test teardown")
        thread.join(15)
        assert not thread.is_alive()


def test_daemon_prometheus_scrape_and_telemetry(daemon_factory):
    daemon, client = daemon_factory(slo_p99_seconds=1e-6)
    code, doc = client.submit(job_spec(), tenant="alice")
    assert code == 202
    client.wait(doc["id"], timeout=30)

    # JSON stays the default /metrics answer
    code, metrics = client.metrics()
    assert code == 200
    assert metrics["serve.tenant.alice.submitted"]["value"] == 1
    assert metrics["serve.tenant.alice.completed"]["value"] == 1
    assert "cumulative" in metrics["serve.tenant.alice.e2e_seconds"]

    # Prometheus exposition parses strictly, with the tenant folded
    code, text = client.metrics_text("prometheus")
    assert code == 200
    families = parse_prometheus(text)
    samples = families["serve_tenant_completed"]["samples"]
    assert samples == [("serve_tenant_completed", {"tenant": "alice"}, 1.0)]
    assert families["serve_tenant_e2e_seconds"]["type"] == "histogram"
    code, _ = client.metrics_text("graphite")
    assert code == 400

    # One manual telemetry tick: the sample lands in the ring + sink,
    # and the (absurd) p99 SLO fires into /healthz.
    daemon._sample_telemetry()
    code, health = client.healthz()
    assert code == 200
    assert health["telemetry"]["samples"] == len(daemon.telemetry) >= 1
    assert health["telemetry"]["last_sample_unix"] is not None
    rules = {(a["rule"], a["tenant"]) for a in health["alerts"]}
    assert ("p99_latency", "alice") in rules
    sink_rows = daemon._telemetry_sink.path.read_text().splitlines()
    assert json.loads(sink_rows[0])["kind"] == "telemetry_meta"
    assert json.loads(sink_rows[1])["schema"] == 1

    # and `repro top` renders a frame off the same two endpoints
    out = io.StringIO()
    assert run_top(client, iterations=1, clear=False, out=out) == 0
    frame = out.getvalue()
    assert "alice" in frame and "p99_latency" in frame


def test_daemon_telemetry_loop_samples_on_interval(daemon_factory):
    daemon, client = daemon_factory(telemetry_interval=0.1)
    client.submit(job_spec(workload="ring:8"))
    deadline = threading.Event()
    for _ in range(100):
        if len(daemon.telemetry) >= 2:
            break
        deadline.wait(0.1)
    assert len(daemon.telemetry) >= 2
    assert daemon._telemetry_sink.path.exists()


def test_daemon_span_log_streams_spans(daemon_factory, tmp_path):
    cache = tmp_path / "spancache"
    daemon, client = daemon_factory(cache_dir=str(cache), span_log=True)
    code, doc = client.submit(job_spec(workload="transpose:4"))
    assert code == 202
    client.wait(doc["id"], timeout=30)
    daemon.stop("done")
    sink = cache / "telemetry" / "spans.jsonl"
    for _ in range(50):
        if sink.exists():
            break
        threading.Event().wait(0.1)
    rows = [json.loads(line) for line in sink.read_text().splitlines()]
    assert rows[0]["streaming"] is True
    assert rows[0]["run_id"].startswith("serve-")
    assert len(rows) > 1


def test_daemon_config_validates_telemetry_fields(tmp_path):
    with pytest.raises(ConfigError):
        DaemonConfig(cache_dir=str(tmp_path), telemetry_interval=-1.0)
    with pytest.raises(ConfigError):
        DaemonConfig(cache_dir=str(tmp_path), slo_p99_seconds=0.0)
