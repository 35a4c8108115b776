#!/usr/bin/env python
"""CI smoke test for the mapping daemon (`repro serve`).

Boots a real daemon subprocess on a temp cache, then proves the whole
client lifecycle over actual HTTP:

1. submit a small torus mapping job and poll it to completion;
2. fetch the result payload and sanity-check the report;
3. resubmit the identical spec and assert a submit-time cache hit
   (``from_cache`` + ``wall_seconds == 0.0`` + no second execution);
4. submit a spec whose mapper cannot be built (RAHTM with beam width 0)
   and assert a 400 that leaves ``/healthz``'s job counts unchanged;
5. scrape ``/metrics?format=prometheus`` and run it through the strict
   exposition parser — unparseable output fails the build;
6. wait for a telemetry tick and assert the (absurdly tight) p99 SLO
   configured on the daemon fires an alert into ``/healthz``;
7. render one ``repro top --once`` frame against the live daemon;
8. SIGTERM the daemon and assert a clean drain: exit code 0, ready
   file removed, no pending.json (the queue was empty).

Exits 0 on success, 1 with a diagnosis on any failure — no pytest
dependency, so it doubles as an operator's post-deploy check:

    PYTHONPATH=src python scripts/serve_smoke.py [cache-dir]
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)

from repro.observability import parse_prometheus  # noqa: E402
from repro.serve import READY_NAME, ServeClient  # noqa: E402
from repro.service import MappingJob  # noqa: E402
from repro.service.jobs import (  # noqa: E402
    MapperConfig,
    TopologySpec,
    WorkloadSpec,
)

# telemetry_interval is cranked down so the SLO evaluator runs within
# the smoke's patience; slo_p99 is absurdly tight so the one mapped job
# is guaranteed to breach it.
SERVER = """
import sys
from repro.serve import DaemonConfig, MappingDaemon

sys.exit(MappingDaemon(DaemonConfig(
    cache_dir=sys.argv[1], port=0, janitor_interval=0.0,
    telemetry_interval=0.2, slo_p99_seconds=1e-6)).run())
"""


def fail(message: str) -> None:
    print(f"serve-smoke: FAIL — {message}", file=sys.stderr)
    sys.exit(1)


def main() -> int:
    cache = Path(sys.argv[1] if len(sys.argv) > 1
                 else tempfile.mkdtemp(prefix="serve-smoke-"))
    cache.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen([sys.executable, "-c", SERVER, str(cache)],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        # -- wait for the ready file -------------------------------------------
        ready = cache / READY_NAME
        deadline = time.monotonic() + 30
        url = None
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                fail(f"daemon died on startup:\n{proc.communicate()[1]}")
            try:
                url = json.loads(ready.read_text())["url"]
                break
            except (FileNotFoundError, ValueError, KeyError):
                time.sleep(0.05)
        if url is None:
            fail("daemon never wrote its ready file")
        print(f"serve-smoke: daemon up at {url}")
        client = ServeClient(url, timeout=15)

        # -- submit a small torus mapping and poll to completion ---------------
        spec = MappingJob(
            topology=TopologySpec((4, 4)),
            workload=WorkloadSpec("halo2d:4x4", seed=0),
            mapper=MapperConfig.make("dimorder"),
        ).payload()
        code, doc = client.submit(spec, tenant="smoke")
        if code != 202:
            fail(f"submit returned {code}: {doc}")
        job_id = doc["id"]
        final = client.wait(job_id, timeout=60)
        if final["state"] != "done":
            fail(f"job finished {final['state']}: {final.get('error')}")
        print(f"serve-smoke: job {job_id[:12]} done "
              f"(wall {final['wall_seconds']:.3f}s, mcl {final['mcl']})")

        code, payload = client.result(job_id)
        if code != 200 or payload.get("report", {}).get("mcl") is None:
            fail(f"result fetch returned {code}: {payload}")

        # -- resubmit: must be a submit-time cache hit -------------------------
        code, hit = client.submit(spec, tenant="smoke")
        if code != 200 or hit["state"] != "done":
            fail(f"resubmit not a hit: {code} {hit}")
        if hit["id"] != job_id:
            fail("resubmit minted a new job id — idempotency broken")
        code, metrics = client.metrics()
        if metrics["engine.executed"]["value"] != 1:
            fail(f"mapper executed "
                 f"{metrics['engine.executed']['value']} times, wanted 1")
        print("serve-smoke: resubmit joined the done job; "
              "mapper executed exactly once")

        # -- an unbuildable mapper is refused at submit ------------------------
        _, before = client.healthz()
        bad = MappingJob(
            topology=TopologySpec((4, 4)),
            workload=WorkloadSpec("halo2d:4x4", seed=0),
            mapper=MapperConfig.make("rahtm", beam_width=0),
        ).payload()
        code, doc = client.submit(bad, tenant="smoke")
        if code != 400:
            fail(f"unbuildable spec got {code}, wanted 400: {doc}")
        _, after = client.healthz()
        if after.get("jobs") != before.get("jobs"):
            fail(f"refused spec left a job behind: {before.get('jobs')} -> "
                 f"{after.get('jobs')}")
        print(f"serve-smoke: unbuildable spec refused (400: {doc['error']})")

        # -- Prometheus exposition must parse strictly -------------------------
        code, text = client.metrics_text("prometheus")
        if code != 200:
            fail(f"/metrics?format=prometheus returned {code}")
        try:
            families = parse_prometheus(text)
        except ValueError as exc:
            fail(f"prometheus exposition unparseable: {exc}")
        if "serve_tenant_completed" not in families:
            fail(f"serve_tenant_completed family missing from scrape "
                 f"({sorted(families)[:8]}...)")
        print(f"serve-smoke: prometheus scrape parsed "
              f"({len(families)} families)")

        # -- telemetry tick fires the (absurd) p99 SLO into /healthz -----------
        alerts = []
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            code, health = client.healthz()
            if code != 200:
                fail(f"/healthz returned {code}")
            alerts = health.get("alerts") or []
            if alerts and health.get("telemetry", {}).get("samples", 0) > 0:
                break
            time.sleep(0.2)
        rules = {(a.get("rule"), a.get("tenant")) for a in alerts}
        if ("p99_latency", "smoke") not in rules:
            fail(f"p99 SLO breach never fired into /healthz "
                 f"(alerts: {alerts})")
        print(f"serve-smoke: SLO alert firing "
              f"({alerts[0]['rule']}: {alerts[0]['detail']})")

        # -- repro top renders one full refresh --------------------------------
        top = subprocess.run(
            [sys.executable, "-m", "repro.cli", "top", "--once",
             "--url", url],
            env=env, capture_output=True, text=True, timeout=60)
        if top.returncode != 0:
            fail(f"repro top --once exited {top.returncode}:\n{top.stderr}")
        if "repro top" not in top.stdout or "smoke" not in top.stdout:
            fail(f"repro top frame incomplete:\n{top.stdout}")
        print("serve-smoke: repro top rendered one frame")

        # -- SIGTERM: clean drain ----------------------------------------------
        proc.send_signal(signal.SIGTERM)
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            fail("daemon did not exit within 60s of SIGTERM")
        if proc.returncode != 0:
            fail(f"daemon exited {proc.returncode}:\n{err}")
        if ready.exists():
            fail("ready file survived a clean exit")
        if (cache / "pending.json").exists():
            fail("pending.json written despite an empty queue")
        print("serve-smoke: clean drain (exit 0). PASS")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()


if __name__ == "__main__":
    sys.exit(main())
