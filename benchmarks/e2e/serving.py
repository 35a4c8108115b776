"""Serve workload: a closed loop of clients against ``repro serve``.

Each run starts ``repro serve --jobs 2`` as a subprocess, on the local
backend. Two client threads each send their next request when the
previous one completes. Half of a client's requests, in a seeded random
order, are cold submits of a fresh spec (RAHTM at ``tiny`` settings with
a new seed, polled to done every 20 ms), and half are warm resubmits of
a spec the same client already saw finish. After the window the
benchmark fetches and checks every cold and warm-up result, scrapes
``/metrics``, stops the daemon and runs ``repro doctor`` over its cache
(see :func:`doctor`).

Set-up is timed from launch to the first ready answer plus four warm-up
jobs, sent together. Each run
launches the daemon three times and reports the median set-up; the last
launch serves the measured traffic. The warm-up jobs are the same four
RAHTM seeds at every launch and for every ``--seed``: each launch maps
them cold into a fresh cache, and their MCLs give ``mcl_ratio``, one
exact number for the workload.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass

from repro.errors import ServiceError
from repro.serve import ServeClient

from common import (
    check_mapping,
    child_env,
    default_mcl,
    geomean,
    p50,
    rahtm_job,
    share,
)
from layers import PHASES

CLIENTS = 2
#: Status poll interval of a cold request. The local backend maps a
#: one-job batch inside the daemon, where every poll takes the GIL from
#: the mapper: 5 ms polls slowed those maps by about 10% and made their
#: run-to-run spread 1.5 times that of 20 ms polls.
POLL_S = 0.02
WARMUP_JOBS = 4
SETUPS = 3
#: Seconds a launch, a drain or one job may take before the run fails.
STEP_TIMEOUT_S = 60


@dataclass(frozen=True)
class ServeWorkload:
    """RAHTM jobs on a small torus, sent to a local-backend daemon."""

    spec: str = "halo2d:8x8"
    shape: tuple = (4, 4)
    scale: str = "tiny"

    def job(self, seed: int, stream: int, index: int):
        """Job ``index`` of client ``stream``: a spec no other request
        of the run shares, since its RAHTM seed is unique. RAHTM seeds
        below 100,000 are left to the warm-up jobs."""
        return rahtm_job(self.spec, self.shape, self.scale,
                         (seed * 16 + stream + 1) * 100_000 + index)

    def warmup_job(self, index: int):
        return rahtm_job(self.spec, self.shape, self.scale, index)


class Daemon:
    """One ``repro serve`` process in its own session.

    The session also holds the pool workers the daemon starts, so
    :meth:`stop` can make sure every one of them has ended.
    """

    def __init__(self, cache, log_path):
        self.cache = cache
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--cache-dir", str(cache), "--jobs", "2",
                 "--backend", "local"],
                env=child_env(),
                stdout=subprocess.DEVNULL, stderr=log,
                start_new_session=True,
            )
        ready = cache / "serve.json"
        deadline = time.monotonic() + STEP_TIMEOUT_S
        while not ready.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"daemon never became ready; see {log_path}")
            time.sleep(0.01)
        self.url = json.loads(ready.read_text())["url"]
        self.client = ServeClient(self.url, timeout=STEP_TIMEOUT_S, retries=0)

    def proc_field(self, name: str, key: str) -> str:
        with open(f"/proc/{self.proc.pid}/{name}") as fh:
            text = fh.read()
        if name == "stat":
            # Fields after the parenthesized command name, from field 3.
            return text.rsplit(")", 1)[1].split()[int(key) - 3]
        for line in text.splitlines():
            if line.startswith(key + ":"):
                return line.split()[1]
        raise KeyError(key)

    def cpu_seconds(self) -> float:
        ticks = int(self.proc_field("stat", "14")) + int(
            self.proc_field("stat", "15"))
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        return int(self.proc_field("status", "VmHWM")) / 1024  # kB -> MB

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            with suppress(subprocess.TimeoutExpired):
                self.proc.wait(STEP_TIMEOUT_S)
        with suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        # Pool workers left in the session are reaped by init; wait them out.
        deadline = time.monotonic() + STEP_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def start_daemon(workload: ServeWorkload, launch: int, work):
    """Launch, wait for ready, run the warm-up jobs.

    Returns the daemon, the seconds that took, and the warm-up jobs'
    ``(id, MCL)`` in submission order.
    """
    specs = [workload.warmup_job(i).payload() for i in range(WARMUP_JOBS)]
    start = time.monotonic()
    daemon = Daemon(work / f"cache{launch}", work / f"daemon{launch}.log")
    try:
        ids = []
        for spec in specs:
            code, doc = daemon.client.submit(spec)
            if code != 202:
                raise RuntimeError(f"warm-up submit answered {code}: {doc}")
            ids.append(doc["id"])
        warmups = []
        for job_id in ids:
            doc = daemon.client.wait(job_id, STEP_TIMEOUT_S, POLL_S)
            if doc.get("state") != "done":
                raise RuntimeError(f"warm-up job ended {doc.get('state')}: "
                                   f"{doc.get('error')}")
            warmups.append((job_id, doc["mcl"]))
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.monotonic() - start, warmups


def request_kinds(rng):
    """Endless warm (True) / cold (False) choices, shuffled in blocks of
    ten that are exactly half warm: a random order, but the same mix in
    every run, so throughput does not follow the seed's coin flips."""
    while True:
        block = [True, False] * 5
        rng.shuffle(block)
        yield from block


def client_loop(url, workload, seed, stream, t_end, max_requests, records):
    """One closed-loop client; appends one record per request."""
    client = ServeClient(url, timeout=STEP_TIMEOUT_S, retries=0)
    rng = random.Random(f"{seed}:{stream}")
    kinds = request_kinds(rng)
    finished: list[tuple] = []  # (spec, cold MCL) of this client's jobs
    sent = 0
    while time.monotonic() < t_end and sent < max_requests:
        # Until a job has finished, there is nothing to resubmit.
        record = {"warm": next(kinds) and bool(finished), "ok": False}
        try:
            if record["warm"]:
                spec, mcl = rng.choice(finished)
                t0 = time.monotonic()
                code, doc = client.submit(spec)
                record["e2e"] = time.monotonic() - t0
                record["ok"] = (code == 200 and doc.get("state") == "done"
                                and doc.get("mcl") == mcl)
            else:
                spec = workload.job(seed, stream, sent).payload()
                t0 = time.monotonic()
                code, doc = client.submit(spec)
                record["submit"] = time.monotonic() - t0
                if code == 202:
                    doc = client.wait(doc["id"], STEP_TIMEOUT_S, POLL_S)
                    record.update(
                        e2e=time.monotonic() - t0, id=doc["id"],
                        wait=doc["wait_seconds"], exec=doc["wall_seconds"],
                        mcl=doc["mcl"], ok=doc.get("state") == "done")
                if record["ok"]:
                    finished.append((spec, doc["mcl"]))
        except (ServiceError, KeyError, TypeError) as exc:
            record["error"] = str(exc)
        sent += 1
        record["done_at"] = time.monotonic()
        records.append(record)


def run(workload: ServeWorkload, seed: int, seconds: float, trace: bool,
        work, max_requests: int | None = None, setups: int = SETUPS) -> dict:
    setup_times, warmup_mcls = [], []
    for launch in range(setups):
        daemon, setup_s, warmups = start_daemon(workload, launch, work)
        setup_times.append(setup_s)
        warmup_mcls.append([mcl for _, mcl in warmups])
        if launch < setups - 1:
            daemon.stop()
    try:
        cpu_before = daemon.cpu_seconds()
        records: list[dict] = []
        start = time.monotonic()
        per_client = (max_requests + CLIENTS - 1) // CLIENTS \
            if max_requests else math.inf
        threads = [
            threading.Thread(target=client_loop, args=(
                daemon.url, workload, seed, stream, start + seconds,
                per_client, records))
            for stream in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        loop_s = max(r["done_at"] for r in records) - start
        cpu_s = daemon.cpu_seconds() - cpu_before
        peak_rss_mb = daemon.peak_rss_mb()
        _, registry = daemon.client.metrics()
        results = {}
        for r in records:
            if not r["warm"] and r["ok"]:
                code, results[r["id"]] = daemon.client.result(r["id"])
                r["ok"] = code == 200
        for job_id, _ in warmups:
            code, results[job_id] = daemon.client.result(job_id)
            if code != 200:
                raise RuntimeError(f"warm-up result answered {code}")
    finally:
        daemon.stop()
    problems = doctor(daemon.cache)

    return summarize(workload, records, results, warmups, warmup_mcls,
                     loop_s, setup_times, cpu_s, peak_rss_mb, registry,
                     problems, trace)


def doctor(cache) -> list[str]:
    """Run ``repro doctor`` on the stopped daemon's cache; it must exit 0."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "doctor", str(cache)],
        env=child_env(), capture_output=True, text=True,
        timeout=STEP_TIMEOUT_S)
    if proc.returncode == 0:
        return []
    return [f"repro doctor exited {proc.returncode}: "
            f"{(proc.stdout + proc.stderr).strip()[-2000:]}"]


def summarize(workload, records, results, warmups, warmup_mcls, loop_s,
              setup_times, cpu_s, peak_rss_mb, registry, doctor_problems,
              trace) -> dict:
    job = workload.warmup_job(0)
    graph = job.workload.build_graph()
    topology = job.topology.build()
    errors = [f"request: {r['error']}" for r in records if "error" in r]
    bad = sum(not r["ok"] for r in records)
    if bad:
        errors.append(f"{bad} request(s) failed or answered wrongly")
    failed = bad
    cold = [r for r in records if not r["warm"] and r["ok"]]
    checked = [(r["id"], r["mcl"]) for r in cold] + warmups
    for job_id, status_mcl in checked:
        payload = results[job_id]
        problems = check_mapping(payload["mapping"], graph, topology,
                                 payload["report"]["mcl"])
        if payload["report"]["mcl"] != status_mcl:
            problems.append("status MCL differs from the result's")
        failed += bool(problems)
        errors += [f"job {job_id[:12]}: {p}" for p in problems]
    for r in cold:
        r["map"] = results[r["id"]]["map_seconds"]
        r["phases"] = results[r["id"]].get("phase_seconds") or {}
    # Every launch maps the same warm-up jobs cold.
    for launch, mcls in enumerate(warmup_mcls):
        if mcls != warmup_mcls[-1]:
            failed += 1
            errors.append(f"warm-up MCLs {mcls} of launch {launch} differ "
                          f"from {warmup_mcls[-1]} of the last launch")
    failed += bool(doctor_problems)
    errors += doctor_problems
    warm = [r for r in records if r["warm"] and r["ok"]]
    result = {
        "errors": errors, "samples": len(records),
        "cold_samples": len(cold), "warm_samples": len(warm),
        # The warm-up jobs of every launch and the doctor check count too.
        "attempted": (len(records) + len(warmup_mcls) * len(warmups) + 1),
        "failed": failed, "correct": not errors,
    }
    if not cold or not warm:
        result["correct"] = False
        errors.append("the window completed no cold or no warm request")
        return result
    base = default_mcl(graph, topology)
    result["e2e"] = {
        "setup_s": p50(setup_times),
        "map_s": p50([r["map"] for r in cold]),
        "mcl_ratio": geomean([mcl / base for _, mcl in warmups]),
        "cold_p50_s": p50([r["e2e"] for r in cold]),
        "warm_p50_s": p50([r["e2e"] for r in warm]),
        "jobs_per_s": (len(records) - bad) / loop_s,
        "peak_rss_mb": peak_rss_mb,
    }
    result["raw"] = {"setup_s": setup_times,
                     "map_s": [r["map"] for r in cold],
                     "cold_s": [r["e2e"] for r in cold],
                     "warm_s": [r["e2e"] for r in warm]}
    if trace:
        result["layers"] = layer_metrics(cold, loop_s, cpu_s, registry)
    return result


def layer_metrics(cold, loop_s, cpu_s, registry) -> dict:
    """Per-layer metrics of a serve run (see README.md)."""
    def counter(name):
        return float((registry.get(name) or {}).get("value") or 0.0)

    e2e = sum(r["e2e"] for r in cold)
    parts = {k: sum(r[k] for r in cold)
             for k in ("submit", "wait", "exec", "map")}
    # The mapper runs in the daemon's workers, where no kernel is
    # wrapped: phase shares come from each result's per-phase seconds.
    phases = Counter()
    for r in cold:
        for key, seconds in r["phases"].items():
            phases[PHASES[key]] += seconds
    return {
        "engine.exec_p50_s": p50([r["exec"] for r in cold]),
        "engine.dispatch_p50_s": p50([r["exec"] - r["map"] for r in cold]),
        "serve.submit_share": share(parts["submit"], e2e),
        "serve.queue_wait_share": share(parts["wait"], e2e),
        "serve.exec_share": share(parts["exec"], e2e),
        "serve.notify_share": share(
            e2e - parts["submit"] - parts["wait"] - parts["exec"], e2e),
        "serve.daemon_cpu_share": share(cpu_s, loop_s),
        **{f"{layer}.share": share(phases[layer], parts["map"])
           for layer in set(PHASES.values())},
        "map.unexplained_frac": 1 - share(sum(phases.values()), parts["map"]),
        "trace.overhead_frac": 0.0,
        "store.hit_ratio": share(
            counter("store.hits"),
            counter("store.hits") + counter("store.misses")),
        "store.put_failures": counter("store.put_failures"),
        "store.quarantined": counter("store.quarantined"),
        "executor.retries": counter("executor.retries"),
        "executor.worker_deaths": counter("executor.worker_deaths"),
    }
