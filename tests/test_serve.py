"""The mapping daemon: queueing, deadlines, and the HTTP state machine.

The scheduler/HTTP plumbing is exercised against a real daemon running
on a background thread (port 0, real sockets, real ``ServeClient``);
queue arithmetic and batch formation are tested directly, with injected
clocks where time matters — no sleeps, no flakiness.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace

import pytest

from repro.errors import ConfigError, ServiceError
from repro.experiments.config import get_scale
from repro.observability import get_registry
from repro.serve import (
    DaemonConfig,
    FairQueue,
    MappingDaemon,
    QuotaExceeded,
    ServeClient,
    discover_url,
)
from repro.serve.daemon import RETRY_AFTER_SECONDS
from repro.service import ExecutorConfig, MappingJob, mapping_job_from_payload
from repro.service.jobs import MapperConfig, TopologySpec, WorkloadSpec


def job_spec(workload="ring:4", shape=(2, 2), mapper="dimorder",
             seed=0, **params):
    return MappingJob(
        topology=TopologySpec(shape),
        workload=WorkloadSpec(workload, seed=seed),
        mapper=MapperConfig.make(mapper, **params),
    ).payload()


# ===================== FairQueue ======================================================
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_fair_queue_aging_prevents_starvation():
    clock = FakeClock()
    q = FairQueue(aging_rate=0.05, clock=clock)
    q.push("noisy", "n0")
    q.charge("noisy", 0.0)
    q.push("starved", "s0")
    # noisy has consumed a mountain of service...
    q.charge("noisy", 1000.0)
    q.push("noisy", "n1")
    # ...so starved wins immediately; but even if starved had *more*
    # service, waiting long enough must flip the order.
    assert q.pop() == "s0"
    q.push("starved", "s1")
    q.charge("starved", 2000.0)
    assert q.pop() == "n0"
    assert q.pop() == "n1"  # less service: noisy legitimately wins now
    # Starved's head keeps aging; a *freshly pushed* noisy job (zero
    # wait, 1000s less service) must still lose once the backlog has
    # waited past the service gap / aging_rate.
    clock.now += (2000.0 - 1000.0) / 0.05 + 1.0
    q.push("noisy", "n2")
    assert q.pop() == "s1"


def test_fair_queue_new_tenant_joins_at_peer_service():
    """A late joiner must not get a catch-up burst."""
    clock = FakeClock()
    q = FairQueue(aging_rate=0.0, clock=clock)
    q.push("old", "o0")
    q.charge("old", 100.0)
    q.push("new", "n0")
    # Alphabetical tie-break at equal virtual service: "new" < "old".
    assert q.snapshot()["new"]["virtual_service"] == 100.0
    assert q.pop() == "n0"


def test_fair_queue_quota_and_force():
    q = FairQueue(quota=2)
    q.push("t", "a")
    q.push("t", "b")
    with pytest.raises(QuotaExceeded):
        q.push("t", "c")
    q.push("t", "c", force=True)  # requeue path bypasses the quota
    assert q.depth() == 3
    assert q.depth_by_tenant() == {"t": 3}


def test_fair_queue_remove_and_drain():
    q = FairQueue()
    for item in ("a", "b", "c"):
        q.push("t", item)
    assert q.remove(lambda item: item == "b") == ["b"]
    assert sorted(q.drain()) == ["a", "c"]
    assert q.depth() == 0
    assert q.pop() is None


def test_tenant_policy_validation():
    with pytest.raises(ConfigError):
        FairQueue(quota=0)
    with pytest.raises(ConfigError):
        FairQueue(aging_rate=-0.1)


# ===================== job payload round-trip =========================================
def test_mapping_job_payload_round_trip():
    spec = job_spec(workload="halo2d:4x4", shape=(2, 2, 2), mapper="rcb",
                    seed=3)
    job = mapping_job_from_payload(spec)
    assert job.payload() == spec
    assert job.cache_key() == mapping_job_from_payload(spec).cache_key()


def test_mapping_job_payload_rejects_digest_and_garbage():
    spec = job_spec()
    spec["workload"]["digest"] = "ab" * 32
    with pytest.raises(ServiceError):
        mapping_job_from_payload(spec)
    with pytest.raises(ServiceError):
        mapping_job_from_payload({"topology": {}})


# ===================== the daemon over real HTTP ======================================
def test_submit_executes_and_serves_result(daemon_factory):
    _, client = daemon_factory()
    code, doc = client.submit(job_spec(), tenant="alice")
    assert code == 202
    assert doc["state"] == "queued"
    assert doc["tenant"] == "alice"
    final = client.wait(doc["id"], timeout=30)
    assert final["state"] == "done"
    assert final["mcl"] is not None
    code, payload = client.result(doc["id"])
    assert code == 200
    assert payload["key"] == doc["id"]
    assert payload["report"]["mcl"] == final["mcl"]


def test_resubmit_joins_and_mapper_runs_exactly_once(daemon_factory):
    """Concurrent identical submits must execute the mapper once."""
    daemon, client = daemon_factory()
    spec = job_spec(workload="ring:8", shape=(2, 2))
    codes, docs = [], []
    errors = []

    def submit():
        try:
            code, doc = client.submit(spec)
            codes.append(code)
            docs.append(doc)
        except Exception as exc:  # pragma: no cover - debugging aid
            errors.append(exc)

    threads = [threading.Thread(target=submit) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(15)
    assert not errors
    assert len({d["id"] for d in docs}) == 1
    client.wait(docs[0]["id"], timeout=30)
    assert daemon.engine.stats.executed == 1
    assert daemon.engine.stats.submitted == 1


def test_stored_result_completes_at_submit_time(daemon_factory, tmp_path):
    """A spec whose cache key is already stored is done on arrival."""
    cache = str(tmp_path / "warm")
    daemon1, client1 = daemon_factory(cache_dir=cache)
    code, doc = client1.submit(job_spec())
    client1.wait(doc["id"], timeout=30)
    daemon1.stop("warming done")
    daemon1_thread_wall = doc["id"]

    daemon2, client2 = daemon_factory(cache_dir=cache)
    code, hit = client2.submit(job_spec())
    assert code == 200
    assert hit["id"] == daemon1_thread_wall
    assert hit["state"] == "done"
    assert hit["from_cache"] is True
    assert hit["wall_seconds"] == 0.0
    assert daemon2.engine.stats.executed == 0
    code, payload = client2.result(hit["id"])
    assert code == 200
    assert payload["report"]["mcl"] == hit["mcl"]


def test_submitted_deadline_is_the_jobs_budget(daemon_factory):
    """``deadline_seconds`` reaches the mapper as it is, under the
    degrade policy."""
    _, client = daemon_factory()
    spec = job_spec("ring:16", (4, 4), "rahtm", beam_width=4,
                    max_orientations=4)
    code, doc = client.submit(spec, deadline_seconds=45.0)
    assert code == 202
    assert doc["requested_deadline_seconds"] == 45.0
    assert "admission" not in doc
    assert client.wait(doc["id"], timeout=60)["state"] == "done"
    code, payload = client.result(doc["id"])
    assert code == 200
    budget = payload["resilience"]["budget"]
    assert budget["wall_seconds"] == 45.0
    assert budget["on_exhausted"] == "degrade"


def test_jobs_with_different_deadlines_never_share_a_batch(tmp_path):
    """A job whose deadline differs from the batch head's is carried to
    the next batch as its head, so queue order is kept."""
    daemon = MappingDaemon(DaemonConfig(cache_dir=str(tmp_path / "cache"),
                                        batch_size=4, janitor_interval=0.0))
    try:
        deadlines = [5.0, 5.0, 9.0, 5.0, None, None]
        keys = []
        for n, deadline in zip((4, 8, 12, 16, 20, 24), deadlines):
            doc = {"spec": job_spec(workload=f"ring:{n}")}
            if deadline is not None:
                doc["deadline_seconds"] = deadline
            code, body = daemon.submit(doc)
            assert code == 202
            keys.append(body["id"])
        batches = []
        while batch := daemon._take_batch():
            batches.append(batch)
        assert [[r.key for r in b] for b in batches] == \
            [keys[0:2], keys[2:3], keys[3:4], keys[4:6]]
        for batch in batches:
            assert len({r.requested_deadline for r in batch}) == 1
        runtime = daemon._runtime_for(batches[1][0].requested_deadline)
        assert (runtime.deadline_seconds, runtime.on_deadline) == \
            (9.0, "degrade")
        assert daemon._runtime_for(None) is None
    finally:
        daemon.engine.close()


def test_requeued_pending_jobs_bypass_a_full_tenant_quota(daemon_factory,
                                                         tmp_path):
    """Drained jobs were accepted once already: the startup requeue
    queues all of them even past the tenant's quota."""
    from repro.service.store import ResultStore

    cache = tmp_path / "drained"
    jobs = [mapping_job_from_payload(job_spec(workload=f"ring:{n}"))
            for n in (4, 8, 12)]
    ResultStore(cache).write_pending([
        {"index": i, "key": job.cache_key(), "describe": job.describe(),
         "spec": job.payload(), "tenant": "bob", "deadline_seconds": None}
        for i, job in enumerate(jobs)
    ])
    quota_rejected = get_registry().counter("serve.quota_rejected")
    before = quota_rejected.value
    daemon, client = daemon_factory(cache_dir=str(cache), tenant_quota=1,
                                    batch_size=1)
    keys = [job.cache_key() for job in jobs]
    assert sorted(daemon.records) == sorted(keys)
    for key in keys:
        final = client.wait(key, timeout=60)
        assert final["state"] == "done"
        assert final["requeued"] is True and final["tenant"] == "bob"
    assert quota_rejected.value == before
    assert not (cache / "pending.json").exists()


def test_cancel_queued_job_and_conflicts(daemon_factory):
    _, client = daemon_factory(batch_size=1)
    # A deep queue: the annealer keeps the worker busy long enough for
    # the tail job to still be queued when we cancel it.
    slow = job_spec(workload="ring:16", shape=(4, 4), mapper="anneal-mcl",
                    iterations=1200)
    tail = job_spec(workload="ring:12", shape=(2, 2))
    code, first = client.submit(slow)
    assert code == 202
    code, victim = client.submit(tail)
    assert code == 202
    code, cancelled = client.cancel(victim["id"])
    assert code == 200
    assert cancelled["state"] == "cancelled"
    # Cancelling again is idempotent; cancelling a finished job conflicts.
    assert client.cancel(victim["id"])[0] == 200
    final = client.wait(first["id"], timeout=60)
    assert final["state"] == "done"
    assert client.cancel(first["id"])[0] == 409
    code, doc = client.result(victim["id"])
    assert code == 409
    assert doc["state"] == "cancelled"


def test_quota_bounds_queued_jobs_per_tenant(daemon_factory):
    # retries=0: a quota 429 now invites a delayed retry via Retry-After;
    # here we pin the immediate policy answer, not the retry dance.
    daemon, _ = daemon_factory(tenant_quota=1, batch_size=1)
    client = ServeClient(daemon.url, timeout=15, retries=0)
    slow = job_spec(workload="ring:16", shape=(4, 4), mapper="anneal-mcl",
                    iterations=1200)
    q1 = job_spec(workload="ring:4")
    q2 = job_spec(workload="ring:6")
    assert client.submit(slow, tenant="bob")[0] == 202
    assert client.submit(q1, tenant="bob")[0] == 202  # 1 queued = at quota
    code, doc = client.submit(q2, tenant="bob")
    assert code == 429
    assert "quota" in doc["error"]
    assert doc["retry_after_seconds"] == RETRY_AFTER_SECONDS == 10.0
    # Another tenant is unaffected.
    assert client.submit(q2, tenant="carol")[0] == 202


def test_rejections_carry_a_retry_after_header(daemon_factory):
    """The body-level retry hint doubles as a real HTTP header, so
    clients that never parse JSON still learn when to come back."""
    daemon, _ = daemon_factory(tenant_quota=1, batch_size=1)
    client = ServeClient(daemon.url, timeout=15, retries=0)
    slow = job_spec(workload="ring:16", shape=(4, 4), mapper="anneal-mcl",
                    iterations=1200)
    assert client.submit(slow, tenant="bob")[0] == 202
    assert client.submit(job_spec(workload="ring:4"), tenant="bob")[0] == 202
    body = json.dumps({"spec": job_spec(workload="ring:6"),
                       "tenant": "bob"}).encode()
    req = urllib.request.Request(
        daemon.url + "/jobs", data=body,
        headers={"Content-Type": "application/json"}, method="POST")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(req, timeout=15)
    assert excinfo.value.code == 429
    assert excinfo.value.headers["Retry-After"] == "10"


def test_http_api_errors(daemon_factory):
    _, client = daemon_factory()
    code, doc = client.status("no-such-job")
    assert code == 404
    code, doc = client.submit({"spec": {"topology": "nope"}})
    assert code == 400
    assert "malformed" in doc["error"]
    code, doc = client._request("GET", "/nowhere")
    assert code == 404
    code, doc = client._request("PUT", "/jobs")
    assert code == 405
    code, doc = client._request("POST", "/jobs", {"no": "spec"})
    assert code == 400


@pytest.mark.parametrize("spec", [
    job_spec("ring:16", (4, 4), "rahtm", beam_width=0),
    job_spec("ring:16", (4, 4), "rahtm", beam_widht=4),
    job_spec("ring:16", (4, 4), "no-such-mapper"),
    job_spec("ring:36", (6, 6), "rahtm"),
    job_spec("ring:16", (4, 4), "rahtm", fix_first=False),
], ids=["beam-width-0", "misspelled-param", "unknown-kind", "6x6-torus",
        "removed-field"])
def test_unbuildable_mapper_is_refused_at_submit(daemon_factory, spec):
    """A spec whose mapper can never be built gets a 400 and no job
    record, instead of a queued job that fails in the pool."""
    daemon, client = daemon_factory()
    bad_requests = get_registry().counter("serve.bad_requests")
    before = bad_requests.value
    code, doc = client.submit(spec)
    assert code == 400
    assert "unbuildable mapper" in doc["error"]
    assert daemon.records == {}
    assert bad_requests.value == before + 1


def test_healthz_and_metrics_reflect_traffic(daemon_factory):
    _, client = daemon_factory()
    code, doc = client.submit(job_spec())
    client.wait(doc["id"], timeout=30)
    code, health = client.healthz()
    assert code == 200
    assert health["status"] == "ok"
    assert health["jobs"]["done"] == 1
    assert health["wait_seconds"]["p50"] is not None
    assert "admission" not in health
    code, metrics = client.metrics()
    assert code == 200
    assert metrics["serve.submitted"]["value"] == 1
    assert metrics["serve.completed"]["value"] == 1
    assert metrics["serve.wait_seconds"]["count"] == 1
    assert metrics["engine.executed"]["value"] == 1


def test_discover_url_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_SERVE_URL", raising=False)
    assert discover_url("http://explicit:1/") == "http://explicit:1"
    monkeypatch.setenv("REPRO_SERVE_URL", "http://fromenv:2")
    assert discover_url(None) == "http://fromenv:2"
    monkeypatch.delenv("REPRO_SERVE_URL")
    with pytest.raises(ServiceError):
        discover_url(None, cache_dir=str(tmp_path))
    (tmp_path / "serve.json").write_text('{"url": "http://fromfile:3"}')
    assert discover_url(None, cache_dir=str(tmp_path)) == "http://fromfile:3"


def test_daemon_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        DaemonConfig(cache_dir="")
    with pytest.raises(ConfigError):
        DaemonConfig(cache_dir=str(tmp_path), batch_size=0)
    with pytest.raises(ConfigError):
        DaemonConfig(cache_dir=str(tmp_path), janitor_interval=-1.0)


def _served_config(monkeypatch, tmp_path, *flags) -> DaemonConfig:
    """The DaemonConfig ``repro serve FLAGS`` builds (the daemon not run)."""
    import repro.serve
    from repro.cli import main as cli_main

    seen = []

    class CapturingDaemon:
        def __init__(self, config):
            seen.append(config)

        def run(self):
            return 0

    monkeypatch.setattr(repro.serve, "MappingDaemon", CapturingDaemon)
    assert cli_main(["serve", "--cache-dir", str(tmp_path), *flags]) == 0
    (config,) = seen
    return config


def test_serve_flags_build_a_local_executor_config(monkeypatch, tmp_path):
    assert _served_config(monkeypatch, tmp_path).executor_config == \
        ExecutorConfig()
    config = _served_config(monkeypatch, tmp_path, "--backend", "local",
                            "--jobs", "3", "--job-timeout", "7.5")
    assert config.executor_config == ExecutorConfig(jobs=3, timeout=7.5)


@pytest.mark.parametrize("jobs", [1, 2])
def test_pooled_daemon_counts_worker_milp_solves_and_closes_its_pool(
        daemon_factory, jobs):
    """A daemon maps every batch in the executor's long-lived pool, also
    at the default ``--jobs 1``: the workers' MILP counters reach
    ``/metrics``, and shutdown leaves no worker process behind."""
    daemon, client = daemon_factory(
        executor_config=ExecutorConfig(jobs=jobs))
    config = get_scale("tiny").rahtm
    ids = []
    for seed in (1, 2):
        spec = MappingJob(
            topology=TopologySpec((4, 4)),
            workload=WorkloadSpec("halo2d:8x8"),
            mapper=MapperConfig.from_rahtm(replace(config, seed=seed)),
        ).payload()
        code, doc = client.submit(spec)
        assert code == 202
        assert client.wait(doc["id"], timeout=60)["state"] == "done"
        ids.append(doc["id"])
    code, registry = client.metrics()
    assert code == 200
    calls = sum((registry.get(name) or {}).get("value", 0.0)
                for name in ("milp.solves", "milp.memo_hits"))
    assert calls >= 2 and registry["milp.solves"]["value"] >= 1
    pids = list(daemon.engine.executor._pool._processes)
    assert 0 < len(pids) <= jobs and os.getpid() not in pids
    daemon.stop("test")
    deadline = time.monotonic() + 15
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not any(_alive(pid) for pid in pids)
    assert daemon.engine.executor._pool is None


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


# -- ServeClient retries --------------------------------------------------------------
class _Resp:
    def __init__(self, doc, status=200):
        self._doc = doc
        self.status = status

    def read(self):
        return json.dumps(self._doc).encode()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_client_retries_connection_errors_then_succeeds():
    client = ServeClient("http://daemon.test", retries=2, backoff=0.0)
    calls = []

    def fake_urlopen(req, timeout=None):
        calls.append(req.full_url)
        if len(calls) < 3:
            raise urllib.error.URLError("connection refused")
        return _Resp({"status": "ok"})

    client._urlopen = fake_urlopen
    code, doc = client.healthz()
    assert (code, doc) == (200, {"status": "ok"})
    assert len(calls) == 3
    assert get_registry().counter("serve.client_retries").value == 2


def test_client_gives_up_after_the_retry_budget():
    client = ServeClient("http://daemon.test", retries=1, backoff=0.0)
    calls = []

    def fake_urlopen(req, timeout=None):
        calls.append(1)
        raise urllib.error.URLError("still down")

    client._urlopen = fake_urlopen
    with pytest.raises(ServiceError, match="after 2 attempt"):
        client.status("someid")
    assert len(calls) == 2


def test_client_retries_503_but_respects_429():
    client = ServeClient("http://daemon.test", retries=3, backoff=0.0)
    script = [503, 200]

    def fake_urlopen(req, timeout=None):
        code = script.pop(0)
        if code == 200:
            return _Resp({"id": "x"})
        raise urllib.error.HTTPError(
            req.full_url, code, "draining", None,
            io.BytesIO(b'{"error": "draining"}'))

    client._urlopen = fake_urlopen
    code, doc = client.submit({"spec": 1})
    assert (code, doc["id"]) == (200, "x")

    calls = []

    def always_429(req, timeout=None):
        calls.append(1)
        raise urllib.error.HTTPError(
            req.full_url, 429, "quota", None,
            io.BytesIO(b'{"error": "tenant quota"}'))

    client._urlopen = always_429
    code, doc = client.submit({"spec": 1})
    assert code == 429 and "quota" in doc["error"]
    assert len(calls) == 1  # policy answers are never hammered


def test_client_rejects_bad_retry_config():
    with pytest.raises(ConfigError):
        ServeClient("http://x", retries=-1)
    with pytest.raises(ConfigError):
        ServeClient("http://x", backoff=-0.1)


def test_client_honors_server_retry_after_on_429():
    """A 429 *with* Retry-After is the server naming its price: the
    client pays it (once per retry budget) instead of treating the
    rejection as final."""
    client = ServeClient("http://daemon.test", retries=2, backoff=0.0)
    script = [429, 200]
    calls = []

    def fake_urlopen(req, timeout=None):
        calls.append(1)
        code = script.pop(0)
        if code == 200:
            return _Resp({"id": "x"})
        raise urllib.error.HTTPError(
            req.full_url, code, "busy", {"Retry-After": "0"},
            io.BytesIO(b'{"error": "admission"}'))

    client._urlopen = fake_urlopen
    code, doc = client.submit({"spec": 1})
    assert (code, doc["id"]) == (200, "x")
    assert len(calls) == 2
    registry = get_registry()
    assert registry.counter("serve.client_retry_after_honored").value == 1


def test_client_ignores_unparseable_retry_after():
    client = ServeClient("http://daemon.test", retries=3, backoff=0.0)
    calls = []

    def fake_urlopen(req, timeout=None):
        calls.append(1)
        raise urllib.error.HTTPError(
            req.full_url, 429, "busy",
            {"Retry-After": "Fri, 31 Dec 1999 23:59:59 GMT"},
            io.BytesIO(b'{"error": "admission"}'))

    client._urlopen = fake_urlopen
    code, doc = client.submit({"spec": 1})
    # HTTP-date form is ignored, so the 429 stays a final policy answer
    assert code == 429 and len(calls) == 1


def test_client_clamps_retry_after():
    class _Exc:
        def __init__(self, headers):
            self.headers = headers

    of = ServeClient._retry_after_of
    assert of(_Exc({"Retry-After": "9999"}), 429) == 30.0
    assert of(_Exc({"Retry-After": "5"}), 404) is None  # wrong status
    assert of(_Exc(None), 429) is None  # no headers at all
    assert of(_Exc({"Retry-After": "-5"}), 503) is None
