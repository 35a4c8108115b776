"""Crash-consistency matrix: SIGKILL a writer at every commit-protocol step.

Each test spawns a real subprocess that arms one ``store-kill-*`` fault
point and writes through the store; the fault SIGKILLs the writer at a
precise seam of the commit protocol (tmp created / mid-write /
pre-rename / post-rename). The parent then proves the invariants the
store promises:

- previously committed entries survive **bitwise** intact;
- the killed write is atomic: afterwards its key is either absent or a
  complete, checksum-valid artifact — never readable-but-corrupt;
- ``repro doctor`` reports the directory clean or repairs it to clean
  (the only legal debris is an orphaned tmp file);
- a warm engine re-run recomputes only the killed job.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.resilience import KILL_POINTS
from repro.service import MappingEngine, ResultStore, diagnose
from repro.service.store import canonical_json, verify_artifact

KEY_A = "aa" + "1" * 62
KEY_B = "bb" + "2" * 62

PAYLOAD_A = {"value": "committed-before-crash", "blob": list(range(64))}
PAYLOAD_B = {"value": "the-write-that-dies", "blob": list(range(64, 128))}

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run_child(script: str, *argv: str, env_extra: dict | None = None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_FAULT_HITS_DIR", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )


WRITER = """
import json, sys
from repro.service import ResultStore

root, key, payload = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
ResultStore(root).put(key, payload)
print("COMMITTED")
"""


@pytest.mark.parametrize("point", KILL_POINTS)
def test_sigkilled_writer_never_corrupts_the_store(point, tmp_path):
    root = tmp_path / "cache"
    store = ResultStore(root)
    path_a = store.put(KEY_A, PAYLOAD_A)
    bytes_a = path_a.read_bytes()

    proc = _run_child(
        WRITER, str(root), KEY_B, json.dumps(PAYLOAD_B),
        env_extra={"REPRO_FAULTS": f"{point}:1",
                   "REPRO_FAULT_HITS_DIR": str(tmp_path / "hits")},
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert "COMMITTED" not in proc.stdout  # it really died mid-put

    # Invariant 1: the committed entry is untouched, bit for bit.
    assert path_a.read_bytes() == bytes_a
    fresh = ResultStore(root)
    assert fresh.get(KEY_A) == PAYLOAD_A

    # Invariant 2: the killed write is absent or complete — never torn.
    status, detail, payload = verify_artifact(fresh.path_for(KEY_B),
                                              expected_key=KEY_B)
    assert status in ("missing", "ok"), (status, detail)
    if point == "store-kill-post-rename":
        # Killed *after* the atomic rename: the entry is committed.
        assert status == "ok" and payload == PAYLOAD_B
        assert fresh.get(KEY_B) == PAYLOAD_B
    else:
        assert status == "missing"
    assert fresh.stats.quarantined == 0  # nothing readable-but-corrupt

    # Invariant 3: doctor is clean, or repairs to clean; the only legal
    # debris from a killed writer is an orphaned tmp file.
    report = diagnose(root)
    assert {f.kind for f in report.problems} <= {"orphan-tmp"}
    repaired = diagnose(root, repair=True)
    assert repaired.clean
    assert diagnose(root).clean
    assert not list(root.glob("*/*.tmp")) and not list(root.glob("*/.*.tmp"))
    # Repair never costs committed data.
    assert ResultStore(root).get(KEY_A) == PAYLOAD_A


ENGINE_WRITER = """
import sys
from repro.resilience import FaultSpec, injected_faults
from repro.service import (MappingEngine, MappingJob, TopologySpec,
                           WorkloadSpec, mapper_config_from_spec)

root = sys.argv[1]

def job(seed):
    return MappingJob(topology=TopologySpec((4, 4)),
                      workload=WorkloadSpec("random:16:60", seed=seed),
                      mapper=mapper_config_from_spec("hilbert"))

# Batch 1 commits job(0) cleanly.
MappingEngine(cache_dir=root).run([job(0)])
print("BATCH1-DONE", flush=True)
# Batch 2: job(0) hits the cache; job(1) computes and its commit is
# SIGKILLed just before the atomic rename.
with injected_faults(FaultSpec("store-kill-pre-rename", max_hits=1)):
    MappingEngine(cache_dir=root).run([job(0), job(1)])
print("BATCH2-DONE")
"""


def test_warm_rerun_recomputes_only_the_killed_job(tmp_path):
    from repro.service import (MappingJob, TopologySpec, WorkloadSpec,
                               mapper_config_from_spec)

    root = tmp_path / "cache"
    proc = _run_child(ENGINE_WRITER, str(root))
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert "BATCH1-DONE" in proc.stdout
    assert "BATCH2-DONE" not in proc.stdout

    def job(seed):
        return MappingJob(topology=TopologySpec((4, 4)),
                          workload=WorkloadSpec("random:16:60", seed=seed),
                          mapper=mapper_config_from_spec("hilbert"))

    engine = MappingEngine(cache_dir=str(root))
    outcomes = engine.run([job(0), job(1)])
    assert all(o.ok for o in outcomes), [o.error for o in outcomes]
    # job(0) survived the crash as a cache hit; only job(1) recomputed.
    assert outcomes[0].result.from_cache
    assert not outcomes[1].result.from_cache
    assert engine.stats.cache_hits == 1 and engine.stats.executed == 1
    assert diagnose(root, repair=True).clean


ENGINE_RACER = """
import sys
from repro.service import (ExecutorConfig, MappingEngine, MappingJob,
                           TopologySpec, WorkloadSpec,
                           mapper_config_from_spec)

root = sys.argv[1]
jobs = [
    MappingJob(topology=TopologySpec((4, 4)),
               workload=WorkloadSpec("random:16:60", seed=seed),
               mapper=mapper_config_from_spec(kind))
    for seed in (0, 1)
    for kind in ("default", "hilbert")
]
engine = MappingEngine(cache_dir=root,
                       executor_config=ExecutorConfig(jobs=2))
outcomes = engine.run(jobs)
if not all(o.ok for o in outcomes):
    sys.exit("FAILED: " + "; ".join(o.error or "" for o in outcomes))
print("RACER-OK")
"""


def _result_fingerprint(store: ResultStore, key: str) -> str:
    """The deterministic part of a cached result (mapping + quality)."""
    payload = store.get(key)
    assert payload is not None, f"missing artifact {key[:12]}"
    return canonical_json({"mapping": payload["mapping"],
                           "report": payload["report"]})


def test_two_engines_share_one_cache_dir_without_corruption(tmp_path):
    from repro.service import (MappingJob, TopologySpec, WorkloadSpec,
                               mapper_config_from_spec)

    jobs = [
        MappingJob(topology=TopologySpec((4, 4)),
                   workload=WorkloadSpec("random:16:60", seed=seed),
                   mapper=mapper_config_from_spec(kind))
        for seed in (0, 1)
        for kind in ("default", "hilbert")
    ]
    # Ground truth: the same batch, serially, in a private directory.
    serial_root = tmp_path / "serial"
    serial = MappingEngine(cache_dir=str(serial_root))
    assert all(o.ok for o in serial.run(jobs))

    shared = tmp_path / "shared"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    procs = [
        subprocess.Popen([sys.executable, "-c", ENGINE_RACER, str(shared)],
                         env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        assert "RACER-OK" in out

    store = ResultStore(shared)
    assert len(store) == len(jobs)  # no duplicate or stray artifacts
    assert not list(shared.glob("*/*.tmp")) \
        and not list(shared.glob("*/.*.tmp"))
    assert not store.quarantine_dir.exists()
    assert diagnose(shared).clean
    serial_store = ResultStore(serial_root)
    for job in jobs:
        key = job.cache_key()
        assert _result_fingerprint(store, key) == \
            _result_fingerprint(serial_store, key)


CHECKPOINT_WRITER = """
import sys
import numpy as np
from repro.resilience.checkpoint import MapperCheckpoint
from repro.service import ResultStore

store = ResultStore(sys.argv[1])
ck = MapperCheckpoint(store, job_key="crash-job")
ck.save_assignment("pin", np.arange(16))
print("SAVED")
"""


def test_sigkilled_checkpoint_writer_leaves_resumable_state(tmp_path):
    ckdir = tmp_path / "ck"
    proc = _run_child(
        CHECKPOINT_WRITER, str(ckdir),
        env_extra={"REPRO_FAULTS": "store-kill-mid-write:1",
                   "REPRO_FAULT_HITS_DIR": str(tmp_path / "hits")},
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    # The torn save left no readable artifact: resume recomputes the
    # stage, and the directory repairs clean.
    from repro.resilience.checkpoint import MapperCheckpoint

    store = ResultStore(ckdir)
    ck = MapperCheckpoint(store, job_key="crash-job")
    assert ck.load("pin") is None
    assert store.stats.quarantined == 0
    assert diagnose(ckdir, repair=True).clean
