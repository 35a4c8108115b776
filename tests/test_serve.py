"""The mapping daemon: queueing, admission, and the HTTP state machine.

The scheduler/HTTP plumbing is exercised against a real daemon running
on a background thread (port 0, real sockets, real ``ServeClient``);
queue and admission arithmetic is tested directly with injected clocks —
no sleeps, no flakiness.
"""

from __future__ import annotations

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
    AdmissionController,
    DaemonConfig,
    FairQueue,
    MappingDaemon,
    QuotaExceeded,
    ServeClient,
    TenantPolicy,
    discover_url,
)
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


def test_fair_queue_weighted_share():
    """Weight 2 gets served twice as often once service is charged."""
    clock = FakeClock()
    q = FairQueue(aging_rate=0.0, clock=clock)
    q.configure_tenant("heavy", weight=2.0)
    q.configure_tenant("light", weight=1.0)
    for i in range(12):
        q.push("heavy", f"h{i}")
        q.push("light", f"l{i}")
    served = {"heavy": 0, "light": 0}
    for _ in range(9):
        item = q.pop()
        tenant = "heavy" if item.startswith("h") else "light"
        served[tenant] += 1
        q.charge(tenant, 1.0)
    assert served["heavy"] == 6
    assert served["light"] == 3


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
    q = FairQueue(default_policy=TenantPolicy(quota=2))
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
        TenantPolicy(weight=0.0)
    with pytest.raises(ConfigError):
        TenantPolicy(quota=0)


# ===================== AdmissionController ============================================
def test_admission_admit_degrade_reject_ladder():
    ctl = AdmissionController(capacity_seconds=10.0, min_grant_seconds=0.5)
    first = ctl.admit(4.0)
    second = ctl.admit(4.0)
    assert (first.action, second.action) == ("admit", "admit")
    assert first.granted_seconds == 4.0
    # 2s of capacity left: a 4s ask degrades to a 2s grant...
    third = ctl.admit(4.0)
    assert third.action == "degrade"
    assert third.granted_seconds == pytest.approx(2.0)
    # ...and with the ledger dry, the next ask is rejected.
    fourth = ctl.admit(4.0)
    assert fourth.action == "reject"
    assert not fourth.admitted
    # Completion returns capacity; admission works again.
    ctl.release(first)
    assert ctl.admit(4.0).action == "admit"


def test_admission_default_cost_and_force():
    ctl = AdmissionController(capacity_seconds=5.0, default_cost_seconds=3.0)
    none_requested = ctl.admit(None)
    assert none_requested.action == "admit"
    assert none_requested.cost_seconds == 3.0
    assert none_requested.granted_seconds is None  # no imposed deadline
    forced = ctl.admit(100.0, force=True)
    assert forced.action == "admit"
    assert ctl.remaining() < 0  # force may overcommit, never bounce


def test_admission_disabled_admits_everything():
    ctl = AdmissionController(capacity_seconds=None)
    for _ in range(100):
        assert ctl.admit(1e6).admitted
    assert ctl.remaining() == float("inf")


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
@pytest.fixture
def daemon_factory(tmp_path):
    """Start daemons on background threads; always stopped on teardown."""
    running = []

    def start(**overrides):
        overrides.setdefault("cache_dir", str(tmp_path / "cache"))
        overrides.setdefault("janitor_interval", 0.0)
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


def test_admission_rejects_over_capacity_submits(daemon_factory):
    # retries=0: a 429 now carries Retry-After (a server-invited retry a
    # default client would honor); this test asserts the one-shot answer.
    daemon, _ = daemon_factory(capacity_seconds=4.0, min_grant_seconds=1.0,
                               batch_size=1)
    client = ServeClient(daemon.url, timeout=15, retries=0)
    specs = [job_spec(workload=f"ring:{n}") for n in (4, 6, 8, 10)]
    results = [client.submit(s, deadline_seconds=3.0) for s in specs]
    actions = [d["admission"]["action"] if c in (200, 202) else "reject"
               for c, d in results]
    assert actions[0] == "admit"
    assert "reject" in actions
    rejected = [d for c, d in results if c == 429]
    assert rejected and "capacity" in rejected[0]["error"]
    # the rejection names its price: when to come back
    assert rejected[0]["retry_after_seconds"] >= 1.0


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
    assert doc["retry_after_seconds"] >= 1.0
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
    assert int(excinfo.value.headers["Retry-After"]) >= 1


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
    assert health["admission"]["outstanding_seconds"] == 0.0
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


def test_serve_flags_build_a_distributed_config(monkeypatch, tmp_path):
    from repro.distributed import DistributedConfig

    config = _served_config(monkeypatch, tmp_path, "--backend",
                            "distributed", "--jobs", "2")
    assert config.executor_config == DistributedConfig(
        spawn_workers=2, lease_seconds=15.0)
    config = _served_config(
        monkeypatch, tmp_path, "--backend", "distributed", "--jobs", "2",
        "--job-timeout", "9", "--lease", "4", "--fleet-host", "local*2",
        "--fleet-host", "ssh:node7*4")
    assert config.executor_config == DistributedConfig(
        spawn_workers=0, hosts=("local*2", "ssh:node7*4"), timeout=9.0,
        lease_seconds=4.0)


def test_entry_modules_do_not_load_the_fleet_package():
    import subprocess
    import sys

    code = ("import sys, repro.cli, repro.serve.daemon, "
            "repro.service.engine; "
            "sys.exit('repro.distributed' in sys.modules)")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode \
        == 0


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
