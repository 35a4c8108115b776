#!/usr/bin/env python
"""CI smoke test for the distributed worker fleet (`repro worker`).

Drives the whole fault-tolerance story end to end on a temp cache:

1. map a small batch serially — the reference results;
2. run the same batch through a 2-worker fleet with a fault injected
   so one worker SIGKILLs itself right after claiming a job (lease
   held, nothing durable yet);
3. assert the coordinator observed the death (lease reclaim + worker
   respawn counters), the batch completed bitwise-identical to the
   serial run, every job executed exactly once (no ``*.dup-*``
   markers), and every receipt is clean;
4. run ``repro doctor --repair`` over the cache, writing the report to
   ``fleet_doctor.json`` (uploaded as a CI artifact), and require a
   clean second pass.

Exits 0 on success, 1 with a diagnosis on any failure — no pytest
dependency, so it doubles as an operator's post-deploy check:

    PYTHONPATH=src python scripts/fleet_smoke.py [cache-dir]
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)

from repro.distributed import DistributedConfig  # noqa: E402
from repro.observability import get_registry  # noqa: E402
from repro.service import MappingEngine, MappingJob  # noqa: E402
from repro.service.jobs import (  # noqa: E402
    MapperConfig,
    TopologySpec,
    WorkloadSpec,
)


def fail(message: str) -> None:
    print(f"fleet-smoke: FAIL — {message}", file=sys.stderr)
    sys.exit(1)


def batch() -> list:
    return [
        MappingJob(
            topology=TopologySpec((4, 4)),
            workload=WorkloadSpec(workload, seed=0),
            mapper=MapperConfig.make("dimorder"),
        )
        for workload in ("halo2d:4x4", "ring:16", "transpose:4")
    ]


def main() -> int:
    cache = Path(sys.argv[1] if len(sys.argv) > 1
                 else tempfile.mkdtemp(prefix="fleet-smoke-"))
    cache.mkdir(parents=True, exist_ok=True)

    # -- serial reference --------------------------------------------------
    jobs = batch()
    want = MappingEngine(cache_dir=None).run(jobs)
    if not all(o.ok for o in want):
        fail(f"serial reference failed: {[o.error for o in want]}")
    print("fleet-smoke: serial reference mapped "
          f"{len(want)} jobs")

    # -- 2-worker fleet with one injected worker SIGKILL -------------------
    registry = get_registry()
    with tempfile.TemporaryDirectory(prefix="fleet-smoke-hits-") as hits:
        engine = MappingEngine(
            cache_dir=cache,
            executor_config=DistributedConfig(
                spawn_workers=2,
                lease_seconds=2.0,
                cleanup=False,
                worker_idle_exit=60.0,
                worker_env={
                    # exactly one worker dies (SIGKILL, no cleanup) right
                    # after claiming; the shared hits dir makes the kill
                    # budget global across both worker processes
                    "REPRO_FAULTS": "worker-kill-after-claim:1",
                    "REPRO_FAULT_HITS_DIR": hits,
                },
            ),
        )
        try:
            got = engine.run(jobs)
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
    if reclaims < 1:
        fail("injected worker death never triggered a lease reclaim")
    if respawns < 1:
        fail("dead worker was never respawned")
    board = engine.executor.board
    dups = list(board.done_dir.glob("*.dup-*"))
    if dups:
        fail(f"duplicate executions recorded: {[p.name for p in dups]}")
    for job in jobs:
        receipt = board.read_receipt(job.cache_key())
        if receipt is None or not receipt["executed"] or receipt["error"]:
            fail(f"bad receipt for {job.cache_key()[:12]}: {receipt}")
    print(f"fleet-smoke: batch survived a worker SIGKILL "
          f"({reclaims} reclaim(s), {respawns} respawn(s), "
          "0 duplicate executions, results bitwise-identical)")

    # -- doctor over the battle-scarred board ------------------------------
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    repair = subprocess.run(
        [sys.executable, "-m", "repro.cli", "doctor", str(cache),
         "--repair", "--out", "fleet_doctor.json"],
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
    print("fleet-smoke: doctor repaired the board; second pass clean. PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
