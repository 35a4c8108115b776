#!/usr/bin/env python
"""CI smoke test for the multi-host fleet (SSH spawners + fencing).

Two "remote" hosts — ``alpha`` and ``beta`` — are spawned through the
real :class:`SshSpawner` transport path with ``$REPRO_SSH`` pointed at
``scripts/fake_ssh.py``, so the full remote lifecycle (launch script,
pid marker, log teeing, signal escalation) runs against localhost while
both hosts share one cache directory (the shared-mount contract).

Chaos injected into the fleet, one hit each:

- ``worker-kill-after-claim`` — one worker SIGKILLs itself right after
  claiming (lease held, nothing durable); the reaper must reclaim and
  the host's respawn budget must revive the slot.
- ``worker-partition`` — one worker loses sight of the board mid-claim;
  it must **self-fence**: finish, keep the store commit, but demote its
  completion to a ``reason="fenced"`` duplicate marker instead of
  racing the reclaim into the receipt slot.

Asserted: bitwise parity with a serial run, >= 2 reclaims, >= 1
respawn, at least one fenced marker and *only* fenced markers, every
receipt clean and labeled with a configured host, the host registry
published, and ``repro doctor --repair`` leaving the cache clean
(report written to ``multihost_doctor.json``, uploaded as a CI
artifact along with the per-worker logs).

    PYTHONPATH=src python scripts/multihost_smoke.py [cache-dir]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
sys.path.insert(0, SRC)

from repro.distributed import DistributedConfig  # noqa: E402
from repro.observability import get_registry  # noqa: E402
from repro.service import MappingEngine, MappingJob  # noqa: E402
from repro.service.jobs import (  # noqa: E402
    MapperConfig,
    TopologySpec,
    WorkloadSpec,
)

HOSTS = ("alpha", "beta")


def fail(message: str) -> None:
    print(f"multihost-smoke: FAIL — {message}", file=sys.stderr)
    sys.exit(1)


def batch() -> list:
    jobs = [
        MappingJob(
            topology=TopologySpec((4, 4)),
            workload=WorkloadSpec(workload, seed=0),
            mapper=MapperConfig.make("dimorder"),
        )
        for workload in ("halo2d:4x4", "ring:16", "transpose:4")
    ]
    # One deliberately slow job (~3s): the annealer holds its claim
    # across several heartbeats, so the injected partition strikes a
    # worker *mid-claim*. Whether that worker commits to the store
    # before or after its claim looks stale, the coordinator never
    # settles from a store hit while the job is claimed or posted: it
    # reclaims the silent claim once the reaper's ~2-lease horizon
    # passes, the partitioned worker, waiting out that verdict, MUST
    # fence its completion, and the requeued attempt (a free cache hit
    # when the commit came first) publishes the receipt.
    jobs.append(MappingJob(
        topology=TopologySpec((4, 4)),
        workload=WorkloadSpec("halo2d:4x4", seed=1),
        mapper=MapperConfig.make("anneal-mcl", iterations=7000),
    ))
    return jobs


def main() -> int:
    cache = Path(sys.argv[1] if len(sys.argv) > 1
                 else tempfile.mkdtemp(prefix="multihost-smoke-"))
    cache.mkdir(parents=True, exist_ok=True)

    # Every "ssh" below is fake_ssh.py: argv-compatible, runs locally.
    os.environ["REPRO_SSH"] = \
        f"{sys.executable} {ROOT / 'scripts' / 'fake_ssh.py'}"

    # -- serial reference --------------------------------------------------
    jobs = batch()
    want = MappingEngine(cache_dir=None).run(jobs)
    if not all(o.ok for o in want):
        fail(f"serial reference failed: {[o.error for o in want]}")
    print(f"multihost-smoke: serial reference mapped {len(want)} jobs")

    # -- two-host ssh fleet under chaos ------------------------------------
    registry = get_registry()
    with tempfile.TemporaryDirectory(prefix="multihost-hits-") as hits:
        engine = MappingEngine(
            cache_dir=cache,
            backend="distributed",
            distributed=DistributedConfig(
                hosts=tuple(f"ssh:{name}" for name in HOSTS),
                worker_python=sys.executable,
                lease_seconds=1.0,
                # both injected deaths may land on the same (slow) job:
                # two honest reclaims must not read as a poisonous spec
                poison_threshold=4,
                cleanup=False,
                worker_idle_exit=60.0,
                worker_env={
                    # remote launch script exports these on the "host"
                    "PYTHONPATH": SRC,
                    "REPRO_FAULTS": ("worker-kill-after-claim:1,"
                                     "worker-partition:1"),
                    "REPRO_FAULT_HITS_DIR": hits,
                },
            ),
        )
        try:
            got = engine.run(jobs)
            snap = engine.executor.snapshot()
        finally:
            engine.executor.stop_workers()

    if not all(o.ok for o in got):
        fail(f"fleet run failed: {[o.error for o in got]}")
    for a, b in zip(want, got):
        if a.result.report != b.result.report:
            fail(f"report drift vs serial on {b.job.workload.spec}")
        if a.result.mapping != b.result.mapping:
            fail(f"mapping drift vs serial on {b.job.workload.spec}")

    reclaims = int(registry.counter("fleet.reclaims").value)
    respawns = int(registry.counter("fleet.worker_respawns").value)
    if reclaims < 2:  # one for the SIGKILL, one for the partition
        fail(f"expected >= 2 lease reclaims, saw {reclaims}")
    if respawns < 1:
        fail("SIGKILLed worker was never respawned")

    board = engine.executor.board
    markers = [json.loads(p.read_text())
               for p in board.done_dir.glob("*.dup-*")]
    fenced = [m for m in markers if m.get("reason") == "fenced"]
    if not fenced:
        fail("partitioned worker never self-fenced (no fenced marker)")
    if len(fenced) != len(markers):
        others = [m.get("reason") for m in markers
                  if m.get("reason") != "fenced"]
        fail(f"unexpected duplicate executions: {others}")
    for job in jobs:
        receipt = board.read_receipt(job.cache_key())
        if receipt is None or receipt["error"]:
            fail(f"bad receipt for {job.cache_key()[:12]}: {receipt}")
        if receipt["host"] not in HOSTS:
            fail(f"receipt from unregistered host {receipt['host']!r}")
    known = board.read_host_registry() or []
    if not set(HOSTS) <= set(known):
        fail(f"host registry {known} missing configured hosts {HOSTS}")
    if set(snap.get("hosts", {})) != set(HOSTS):
        fail(f"coordinator snapshot hosts {snap.get('hosts')} != {HOSTS}")
    print("multihost-smoke: 2-host ssh fleet survived one SIGKILL + one "
          f"partition ({reclaims} reclaim(s), {respawns} respawn(s), "
          f"{len(fenced)} fenced marker(s), results bitwise-identical)")

    # -- doctor over the battle-scarred board ------------------------------
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    repair = subprocess.run(
        [sys.executable, "-m", "repro.cli", "doctor", str(cache),
         "--repair", "--out", "multihost_doctor.json"],
        env=env, capture_output=True, text=True)
    sys.stdout.write(repair.stdout)
    if repair.returncode != 0:
        fail(f"doctor --repair exited {repair.returncode}:\n{repair.stderr}")
    rerun = subprocess.run(
        [sys.executable, "-m", "repro.cli", "doctor", str(cache)],
        env=env, capture_output=True, text=True)
    if rerun.returncode != 0:
        fail("cache not clean after doctor --repair:\n"
             f"{rerun.stdout}{rerun.stderr}")
    print("multihost-smoke: doctor repaired the board; second pass clean. "
          "PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
