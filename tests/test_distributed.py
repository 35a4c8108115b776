"""Distributed fleet: board primitives, lease reclaim, chaos, parity.

The headline guarantees under test:

- a 3-worker fleet produces **bitwise-identical** results to the serial
  engine (the paper-reproduction invariant extended to the fleet);
- a SIGKILLed worker's lease expires, the reaper reclaims and requeues
  the job, and the batch completes with **zero duplicate mapper
  executions** (store-commit-before-receipt ordering);
- two coordinators sharing one cache directory split the work instead
  of duplicating it (O_EXCL posts, first-commit-wins receipts);
- ``repro doctor`` understands the board: expired leases, orphaned
  claims, stale worker registrations, reclaim/duplicate debris.
"""

import json
import io
import os
import sys
import signal
import threading
import time
import urllib.error
from pathlib import Path

import pytest

import repro
from repro.cli import main as cli_main
from repro.distributed import (
    DistributedConfig,
    DistributedExecutor,
    FleetWorker,
    HostSpec,
    JobBoard,
    SlurmSpawner,
    SshSpawner,
    SubprocessSpawner,
    build_spawner,
    exclusive_publish_json,
)
from repro.errors import ConfigError, ServiceError
from repro.observability import get_registry
from repro.resilience.faultinject import FaultSpec, injected_faults
from repro.serve import ServeClient
from repro.service import (
    MapperConfig,
    MappingEngine,
    MappingJob,
    TopologySpec,
    WorkloadSpec,
    diagnose,
)
from repro.service.store import ResultStore
from repro.service.supervision import BatchLedger


def _jobs(n=3):
    workloads = ["halo2d:4x4", "ring:16", "transpose:4"][:n]
    return [
        MappingJob(TopologySpec((4, 4)), WorkloadSpec(w),
                   MapperConfig.make("dimorder", order="ABT"))
        for w in workloads
    ]


def _fleet_engine(cache, workers, **cfg):
    cfg.setdefault("worker_idle_exit", 60.0)
    return MappingEngine(
        cache_dir=cache,
        executor_config=DistributedConfig(spawn_workers=workers, **cfg),
    )


def _ledger(executor, jobs):
    return BatchLedger(jobs, executor._emit,
                       executor.config.poison_threshold)


def _assert_parity(serial_outcomes, fleet_outcomes):
    assert all(o.ok for o in fleet_outcomes), \
        [o.error for o in fleet_outcomes]
    for a, b in zip(serial_outcomes, fleet_outcomes):
        assert a.result.report == b.result.report
        assert a.result.mapping == b.result.mapping


# -- board primitives -----------------------------------------------------------------
def test_exclusive_publish_first_writer_wins(tmp_path):
    path = tmp_path / "x.json"
    assert exclusive_publish_json(path, {"a": 1})
    assert not exclusive_publish_json(path, {"a": 2})
    assert json.loads(path.read_text()) == {"a": 1}
    # the loser's temp file never lingers
    assert list(tmp_path.glob(".bp-*")) == []


def test_claim_lease_reclaim_cycle(tmp_path):
    board = JobBoard(tmp_path / "board")
    board.ensure_dirs()
    claim = board.try_claim("k1", "w1", lease_seconds=5.0)
    assert claim is not None
    assert board.try_claim("k1", "w2", 5.0) is None  # O_EXCL: held
    doc, age = board.claim_info("k1")
    assert doc["worker"] == "w1" and age is not None

    # heartbeat = mtime refresh
    old = time.time() - 60
    os.utime(claim, (old, old))
    assert board.claim_info("k1")[1] > 30
    assert board.heartbeat(claim)
    assert board.claim_info("k1")[1] < 30

    # reclaim: exactly one winner, no claim left behind
    assert board.reclaim("k1")
    assert not board.reclaim("k1")
    assert board.claim_info("k1") == (None, None)


def test_release_claim_respects_takeover(tmp_path):
    board = JobBoard(tmp_path / "board")
    board.ensure_dirs()
    stale = board.try_claim("k", "w1", 5.0)
    board.reclaim("k")
    fresh = board.try_claim("k", "w2", 5.0)
    assert fresh == stale  # same path, new holder
    assert not board.release_claim(stale, "w1")  # not ours anymore
    assert board.release_claim(fresh, "w2")


def test_receipt_first_commit_wins(tmp_path):
    board = JobBoard(tmp_path / "board")
    board.ensure_dirs()
    assert board.publish_receipt("k", {"worker": "w1"})
    assert not board.publish_receipt("k", {"worker": "w2"})
    assert board.read_receipt("k")["worker"] == "w1"
    board.record_duplicate("k", "w2")
    assert len(list(board.done_dir.glob("k.dup-*"))) == 1


def test_worker_registration_lifecycle(tmp_path):
    board = JobBoard(tmp_path / "board")
    board.ensure_dirs()
    reg = board.register_worker("w-test-1", heartbeat_interval=0.5)
    assert board.alive_workers() == 1
    old = time.time() - 120
    os.utime(reg, (old, old))  # heartbeat went quiet
    assert board.alive_workers() == 0
    board.deregister_worker("w-test-1")
    assert board.list_workers() == []


def test_heartbeat_advances_seq_and_enforces_ownership(tmp_path):
    board = JobBoard(tmp_path / "board")
    board.ensure_dirs()
    claim = board.try_claim("k", "w1", 5.0)
    assert board.claim_info("k")[0]["seq"] == 0
    assert board.heartbeat(claim, worker_id="w1")
    assert board.heartbeat(claim, worker_id="w1")
    assert board.claim_info("k")[0]["seq"] == 2
    # a beat naming the wrong holder is a fence signal, not a refresh
    assert not board.heartbeat(claim, worker_id="w2")
    assert board.claim_info("k")[0]["seq"] == 2


def test_heartbeat_cannot_resurrect_a_reclaimed_claim(tmp_path):
    board = JobBoard(tmp_path / "board")
    board.ensure_dirs()
    claim = board.try_claim("k", "w1", 5.0)
    assert board.reclaim("k")
    # the rename-aside means the old path is gone: no silent recreate
    assert not board.heartbeat(claim, worker_id="w1")
    assert board.claim_info("k") == (None, None)


def test_host_registry_roundtrip(tmp_path):
    board = JobBoard(tmp_path / "board")
    board.ensure_dirs()
    assert board.read_host_registry() is None
    board.write_host_registry(["beta", "alpha", "beta"])
    assert board.read_host_registry() == ["alpha", "beta"]


# -- in-thread worker -----------------------------------------------------------------
def test_worker_free_cache_hit_skips_the_mapper(tmp_path):
    cache = tmp_path / "cache"
    job = _jobs(1)[0]
    MappingEngine(cache_dir=cache).run([job])  # make it durable

    board = JobBoard.under_cache(cache)
    board.ensure_dirs()
    key = job.cache_key()
    board.post(key, {"key": key, "spec": job.payload(),
                     "lease_seconds": 5.0})
    worker = FleetWorker(cache, worker_id="t1", poll=0.01, idle_exit=0.3,
                         install_signals=False)
    published = worker.run()
    assert published == 1 and worker.executed == 0
    receipt = board.read_receipt(key)
    assert receipt["executed"] is False and receipt["error"] is None


def test_signal_handler_returns_while_stop_lock_is_held(tmp_path,
                                                        monkeypatch):
    """The SIGTERM handler must not take the stop Event's lock: the
    signal can land while the main thread holds it inside
    ``_stop.wait(poll)``, and a handler blocking there never returns."""
    import repro.distributed.worker as worker_mod

    installed = {}
    real_signal = worker_mod.signal.signal

    def record(sig, handler):
        installed.setdefault(sig, handler)
        return worker_mod.signal.SIG_DFL

    monkeypatch.setattr(worker_mod.signal, "signal", record)
    worker = FleetWorker(tmp_path, worker_id="sig-w", poll=0.01, once=True)
    worker.run()
    monkeypatch.setattr(worker_mod.signal, "signal", real_signal)
    handler = installed[signal.SIGTERM]
    assert callable(handler)

    with worker._stop._cond:
        caller = threading.Thread(
            target=handler, args=(signal.SIGTERM, None), daemon=True)
        caller.start()
        caller.join(timeout=1.0)
        returned = not caller.is_alive()
    caller.join(timeout=5.0)
    assert returned
    assert worker.stopping


def test_heartbeat_stall_injection_goes_quiet(tmp_path):
    board = JobBoard(tmp_path / "board")
    board.ensure_dirs()
    claim = board.try_claim("k", "w1", 5.0)
    old = time.time() - 60
    os.utime(claim, (old, old))
    worker = FleetWorker(tmp_path, worker_id="w1", install_signals=False)
    stop = threading.Event()
    with injected_faults(FaultSpec("heartbeat-stall")):
        beat = threading.Thread(target=worker._heartbeat_loop,
                                args=(claim, 0.02, stop), daemon=True)
        beat.start()
        time.sleep(0.25)
        stop.set()
        beat.join(timeout=2.0)
    # a stalled heartbeat never refreshed the lease
    assert board.claim_info("k")[1] > 30


def test_heartbeat_loop_exits_when_reclaimed(tmp_path):
    board = JobBoard(tmp_path / "board")
    board.ensure_dirs()
    worker = FleetWorker(tmp_path, worker_id="w1", install_signals=False)
    stop = threading.Event()
    gone = board.claims_dir / "never-existed.claim"
    beat = threading.Thread(target=worker._heartbeat_loop,
                            args=(gone, 0.01, stop), daemon=True)
    beat.start()
    beat.join(timeout=2.0)
    assert not beat.is_alive()  # reclaimed lease = loop returns


# -- fleet end to end -----------------------------------------------------------------
def test_three_worker_fleet_bitwise_equals_serial(tmp_path):
    jobs = _jobs(3)
    want = MappingEngine(cache_dir=tmp_path / "serial").run(jobs)
    engine = _fleet_engine(tmp_path / "fleet", workers=3)
    try:
        got = engine.run(jobs)
    finally:
        engine.executor.stop_workers()
    _assert_parity(want, got)
    # completed scaffolding is cleaned; the store is the durable record
    snap = engine.executor.snapshot()
    assert snap["queued"] == 0 and snap["receipts"] == 0

    # a second coordinator over the same cache never leaves the engine:
    # every job is a store hit before the board is even consulted
    warm = _fleet_engine(tmp_path / "fleet", workers=0)
    rerun = warm.run(jobs)
    _assert_parity(want, rerun)
    assert warm.stats.cache_hits == 3 and warm.stats.executed == 0


def test_sigkilled_worker_lease_reclaim_completes_batch(tmp_path):
    """The chaos headline: a worker SIGKILLed right after claiming (lease
    held, nothing durable) must cost one reclaim, zero duplicate solves,
    and no deviation from the serial results."""
    jobs = _jobs(3)
    want = MappingEngine(cache_dir=tmp_path / "serial").run(jobs)
    registry = get_registry()
    engine = _fleet_engine(
        tmp_path / "fleet", workers=2,
        lease_seconds=1.0, cleanup=False,
        worker_env={
            "REPRO_FAULTS": "worker-kill-after-claim:1",
            "REPRO_FAULT_HITS_DIR": str(tmp_path / "hits"),
        },
    )
    try:
        got = engine.run(jobs)
    finally:
        engine.executor.stop_workers()
    _assert_parity(want, got)
    # the death was observed and recovered, not absorbed silently
    assert registry.counter("fleet.reclaims").value >= 1
    assert registry.counter("fleet.worker_respawns").value >= 1
    # every job executed exactly once; no duplicate-execution markers
    board = engine.executor.board
    receipts = [board.read_receipt(j.cache_key()) for j in jobs]
    assert all(r is not None and r["executed"] and r["error"] is None
               for r in receipts)
    assert list(board.done_dir.glob("*.dup-*")) == []


def test_repeated_lease_death_poisons_the_job(tmp_path):
    job = _jobs(1)[0]
    registry = get_registry()
    engine = _fleet_engine(
        tmp_path / "fleet", workers=1,
        lease_seconds=0.5, poison_threshold=2, cleanup=False,
        worker_env={
            "REPRO_FAULTS": "worker-kill-after-claim:2",
            "REPRO_FAULT_HITS_DIR": str(tmp_path / "hits"),
        },
    )
    try:
        outcome = engine.run([job])[0]
    finally:
        engine.executor.stop_workers()
    assert not outcome.ok and outcome.poisoned
    assert "poison" in outcome.error
    assert registry.counter("fleet.poisoned").value == 1
    # the engine wrote the postmortem quarantine report
    reports = engine.store.list_quarantine()
    assert any("poison" in entry["file"] for entry in reports)
    # the board no longer offers the killer spec to anyone
    assert engine.executor.board.read_entry(job.cache_key()) is None


def test_injected_lease_expiry_reclaims_a_healthy_claim(tmp_path):
    """`lease-expire` makes the reaper treat a fresh claim as dead: the
    claim is reclaimed (rename-aside), the entry requeued with backoff
    bookkeeping — the exact recovery path a real lease death takes."""
    from repro.distributed.coordinator import _KeyState

    store = ResultStore(tmp_path / "cache")
    executor = DistributedExecutor(
        store, DistributedConfig(spawn_workers=0, lease_seconds=30.0))
    board = executor.board
    board.ensure_dirs()
    job = _jobs(1)[0]
    key = job.cache_key()
    entry = {"key": key, "spec": job.payload(), "lease_seconds": 30.0,
             "reclaims": 0, "not_before": 0.0}
    board.post(key, entry)
    board.try_claim(key, "w-healthy", 30.0)
    st = _KeyState([0], entry, True)
    ledger = _ledger(executor, [job])
    with injected_faults(FaultSpec("lease-expire")):
        decided = executor._poll_key(key, st, ledger)
    assert decided is None  # reclaimed + requeued, not yet settled
    assert ledger.deaths == {0: 1}
    assert board.claim_info(key) == (None, None)
    requeued = board.read_entry(key)
    assert requeued["reclaims"] == 1
    assert requeued["not_before"] > 0.0
    assert get_registry().counter("fleet.reclaims").value == 1


def test_repeated_spec_in_one_batch_is_poisoned_once(tmp_path):
    """A spec submitted twice is one board key: its lease deaths are
    charged once on the ledger, one poison report names the last
    holder, and both batch items share the poison outcome."""
    job = _jobs(1)[0]
    engine = _fleet_engine(
        tmp_path / "fleet", workers=1,
        lease_seconds=0.5, poison_threshold=2, cleanup=False,
        worker_env={
            "REPRO_FAULTS": "worker-kill-after-claim:2",
            "REPRO_FAULT_HITS_DIR": str(tmp_path / "hits"),
        },
    )
    try:
        outcomes = engine.run([job, job])
    finally:
        engine.executor.stop_workers()
    assert [o.poisoned for o in outcomes] == [True, True]
    assert [o.attempts for o in outcomes] == [2, 2]  # one per claim
    assert outcomes[0].error == outcomes[1].error
    assert "poison" in outcomes[0].error
    assert engine.stats.poison_jobs == 1  # one "poisoned" event
    reports = [entry["report"] for entry in engine.store.list_quarantine()
               if "poison" in entry["file"]]
    assert len(reports) == 1
    assert reports[0]["deaths"] == 2
    assert reports[0]["worker"] and reports[0]["host"]


def test_store_hit_settles_only_a_job_off_the_board(tmp_path):
    """A store hit while a live claim is held and no receipt exists is
    the holder between its store commit and its receipt: the reaper
    waits for the receipt (or the lease's death) and leaves the board
    alone, so no receipt can land after the settle cleaned up. A posted
    entry waits too (its next claim is a free cache hit); only a job
    that left the board is settled from the store."""
    from repro.distributed.coordinator import _KeyState

    cache = tmp_path / "cache"
    job = _jobs(1)[0]
    MappingEngine(cache_dir=cache).run([job])  # the holder's commit
    executor = DistributedExecutor(
        ResultStore(cache),
        DistributedConfig(spawn_workers=0, lease_seconds=30.0))
    board = executor.board
    board.ensure_dirs()
    key = job.cache_key()
    entry = {"key": key, "spec": job.payload(), "lease_seconds": 30.0,
             "reclaims": 0, "not_before": 0.0}
    board.post(key, entry)
    board.try_claim(key, "w-holder", 30.0)
    st = _KeyState([0], entry, True)
    ledger = _ledger(executor, [job])
    assert executor._poll_key(key, st, ledger) is None
    assert board.read_entry(key) is not None
    assert board.claim_info(key)[0]["worker"] == "w-holder"

    assert board.reclaim(key)  # another reaper took the dead lease
    assert executor._poll_key(key, st, ledger) is None
    board.publish_receipt(key, {"worker": "w-next", "executed": False,
                                "error": None})
    decided = executor._poll_key(key, st, ledger)
    assert decided["error"] is None and decided["worker"] == "w-next"

    board.remove_receipt(key)  # another coordinator settled, cleaned up
    board.remove_entry(key)
    decided = executor._poll_key(key, _KeyState([0], entry, True), ledger)
    assert decided["error"] is None and decided["payload"]["key"] == key


def test_worker_withdraws_entry_before_releasing_its_claim(tmp_path,
                                                          monkeypatch):
    """An ok receipt withdraws the queue entry while the claim is still
    held, so a worker whose claim lands after the release finds no
    entry to run."""
    cache = tmp_path / "cache"
    board = JobBoard.under_cache(cache)
    board.ensure_dirs()
    job = _jobs(1)[0]
    key = job.cache_key()
    board.post(key, {"key": key, "spec": job.payload(),
                     "lease_seconds": 5.0})
    worker = FleetWorker(cache, worker_id="w-done", install_signals=False)
    entry_at_release = []
    real_release = worker.board.release_claim

    def release(claim_path, worker_id):
        entry_at_release.append(board.read_entry(key))
        return real_release(claim_path, worker_id)

    monkeypatch.setattr(worker.board, "release_claim", release)
    claim = board.try_claim(key, "w-done", 5.0)
    worker._process(key, board.read_entry(key), claim)
    assert board.read_receipt(key)["executed"] is True
    assert entry_at_release == [None]
    assert board.claim_info(key) == (None, None)


def test_claim_on_a_withdrawn_entry_runs_nothing(tmp_path, monkeypatch):
    """The re-claim race: a worker read the entry, and its claim landed
    after the finishing worker withdrew the entry and released. It must
    release the claim untouched instead of running the job again."""
    cache = tmp_path / "cache"
    board = JobBoard.under_cache(cache)
    board.ensure_dirs()
    job = _jobs(1)[0]
    key = job.cache_key()
    board.post(key, {"key": key, "spec": job.payload(),
                     "lease_seconds": 5.0})
    worker = FleetWorker(cache, worker_id="w-late", install_signals=False)
    real_claim = worker.board.try_claim

    def claim_after_withdrawal(*args, **kwargs):
        board.remove_entry(key)  # the first worker finished meanwhile
        return real_claim(*args, **kwargs)

    monkeypatch.setattr(worker.board, "try_claim", claim_after_withdrawal)
    assert worker._scan_once() is False
    assert worker.executed == 0 and worker.published == 0
    assert key not in worker.store
    assert board.claim_info(key) == (None, None)
    assert board.read_receipt(key) is None


# -- fencing & skew chaos -------------------------------------------------------------
def test_partitioned_worker_fences_instead_of_publishing(tmp_path,
                                                         monkeypatch):
    """The fencing proof: a worker partitioned from the board finishes
    its job after the lease is reclaimed — the result lands in the store
    (first commit wins) but the completion is demoted to a duplicate
    marker, never a receipt."""
    import repro.distributed.worker as worker_mod

    real_execute = worker_mod.execute_mapping_job

    def slow_execute(job, runtime=None):
        time.sleep(0.6)  # outlive the reclaim below
        return real_execute(job, runtime=runtime)

    monkeypatch.setattr(worker_mod, "execute_mapping_job", slow_execute)

    cache = tmp_path / "cache"
    board = JobBoard.under_cache(cache)
    board.ensure_dirs()
    job = _jobs(1)[0]
    key = job.cache_key()
    board.post(key, {"key": key, "spec": job.payload(),
                     "lease_seconds": 0.4})
    worker = FleetWorker(cache, worker_id="part-w", poll=0.01,
                         install_signals=False, host_label="ghost",
                         once=True)
    errors: list[BaseException] = []

    def _serve():
        try:
            worker.run()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    with injected_faults(FaultSpec("worker-partition")):
        thread = threading.Thread(target=_serve, daemon=True)
        thread.start()
        deadline = time.time() + 10
        while board.claim_info(key)[0] is None and time.time() < deadline:
            time.sleep(0.01)
        assert board.claim_info(key)[0] is not None
        time.sleep(0.3)  # partition fires ~0.1s in; worker still busy
        assert board.reclaim(key)
        thread.join(timeout=15)
    assert not thread.is_alive() and not errors, errors

    assert board.read_receipt(key) is None  # fenced: no receipt
    dups = list(board.done_dir.glob(f"{key}.dup-*"))
    assert len(dups) == 1
    marker = json.loads(dups[0].read_text())
    assert marker["reason"] == "fenced"
    assert marker["worker"] == "part-w"
    assert marker["host"] == "ghost"
    assert marker["executed"] is True
    registry = get_registry()
    assert registry.counter("fleet.worker_fenced").value == 1
    assert registry.counter("fleet.worker_duplicate_executions").value == 1
    assert worker.published == 0 and worker.executed == 1
    # the work itself is durable: the requeued job is a free cache hit
    assert key in worker.store


def test_skew_tolerant_reaper_spares_an_advancing_seq(tmp_path):
    """A claim whose mtime says "expired an hour ago" but whose
    heartbeat seq keeps advancing is a clock-skewed host, not a dead
    worker: the reaper must tolerate it, not reclaim."""
    from repro.distributed.coordinator import _KeyState

    store = ResultStore(tmp_path / "cache")
    executor = DistributedExecutor(
        store, DistributedConfig(spawn_workers=0, lease_seconds=30.0))
    board = executor.board
    board.ensure_dirs()
    job = _jobs(1)[0]
    key = job.cache_key()
    entry = {"key": key, "spec": job.payload(), "lease_seconds": 30.0,
             "reclaims": 0, "not_before": 0.0}
    board.post(key, entry)
    claim = board.try_claim(key, "w-skewed", 30.0)
    st = _KeyState([0], entry, True)
    ledger = _ledger(executor, [job])

    def _age_mtime():
        old = time.time() - 3600
        os.utime(claim, (old, old))

    _age_mtime()
    for _ in range(3):
        assert executor._poll_key(key, st, ledger) is None
        assert ledger.deaths == {}
        assert board.claim_info(key)[0] is not None  # claim survived
        assert board.heartbeat(claim, worker_id="w-skewed")
        _age_mtime()
    registry = get_registry()
    assert registry.counter("fleet.skew_tolerated").value >= 2
    assert registry.counter("fleet.reclaims").value == 0


def test_skew_tolerant_reaper_still_reaps_a_frozen_seq(tmp_path):
    """Skew tolerance must not become immortality: a stale mtime whose
    seq then *stops* advancing is reclaimed after one more lease on the
    coordinator's own clock."""
    from repro.distributed.coordinator import _KeyState

    store = ResultStore(tmp_path / "cache")
    executor = DistributedExecutor(
        store, DistributedConfig(spawn_workers=0, lease_seconds=0.3))
    board = executor.board
    board.ensure_dirs()
    job = _jobs(1)[0]
    key = job.cache_key()
    entry = {"key": key, "spec": job.payload(), "lease_seconds": 0.3,
             "reclaims": 0, "not_before": 0.0}
    board.post(key, entry)
    claim = board.try_claim(key, "w-frozen", 0.3)
    old = time.time() - 3600
    os.utime(claim, (old, old))

    st = _KeyState([0], entry, True)
    ledger = _ledger(executor, [job])
    assert executor._poll_key(key, st, ledger) is None
    assert ledger.deaths == {}  # first sighting: benefit of the doubt
    time.sleep(0.45)  # > lease with the seq frozen
    assert executor._poll_key(key, st, ledger) is None
    assert ledger.deaths == {0: 1}
    assert board.claim_info(key) == (None, None)
    assert get_registry().counter("fleet.reclaims").value == 1


def test_slow_lease_renewal_keeps_the_lease_alive(tmp_path):
    """`lease-renew-latency` (slow shared mount) delays every renewal
    write; as long as the stall stays under the lease, the claim must
    never look expired and no spurious reclaim can happen."""
    board = JobBoard(tmp_path / "board")
    board.ensure_dirs()
    claim = board.try_claim("k", "w1", 0.8)
    worker = FleetWorker(tmp_path, worker_id="w1", install_signals=False)
    stop = threading.Event()
    ages = []
    with injected_faults(FaultSpec("lease-renew-latency", max_hits=None,
                                   delay=0.25)):
        beat = threading.Thread(target=worker._heartbeat_loop,
                                args=(claim, 0.2, stop), daemon=True)
        beat.start()
        deadline = time.monotonic() + 1.6
        while time.monotonic() < deadline:
            age = board.claim_info("k")[1]
            if age is not None:
                ages.append(age)
            time.sleep(0.05)
        stop.set()
        beat.join(timeout=3.0)
    assert ages and max(ages) <= 0.8  # never looked expired
    assert board.claim_info("k")[0]["seq"] >= 2  # renewals kept landing


def test_clock_skew_fault_ages_mtime_but_advances_seq(tmp_path):
    """`clock-skew` models a host whose clock is an hour behind: the
    claim mtime looks ancient while the heartbeat seq keeps moving —
    the exact signature the skew-tolerant reaper keys on."""
    board = JobBoard(tmp_path / "board")
    board.ensure_dirs()
    claim = board.try_claim("k", "w1", 5.0)
    worker = FleetWorker(tmp_path, worker_id="w1", install_signals=False)
    stop = threading.Event()
    with injected_faults(FaultSpec("clock-skew", max_hits=None)):
        beat = threading.Thread(target=worker._heartbeat_loop,
                                args=(claim, 0.05, stop), daemon=True)
        beat.start()
        time.sleep(0.4)
        stop.set()
        beat.join(timeout=3.0)
    doc, age = board.claim_info("k")
    assert age > 3000  # mtime stamped an hour into the past
    assert doc["seq"] >= 2  # but the worker is demonstrably alive


def test_two_coordinators_share_one_board(tmp_path):
    cache = tmp_path / "cache"
    jobs = _jobs(3)
    jobs.append(MappingJob(TopologySpec((4, 4)),
                           WorkloadSpec("ring:16", seed=1),
                           MapperConfig.make("dimorder", order="ABT")))
    shared = jobs[1]
    a_jobs = [jobs[0], shared, jobs[2]]
    b_jobs = [shared, jobs[3]]

    a = _fleet_engine(cache, workers=2, cleanup=False)
    b = _fleet_engine(cache, workers=0, cleanup=False)
    results: dict[str, list] = {}
    errors: list[BaseException] = []

    def _run(name, eng, batch):
        try:
            results[name] = eng.run(batch)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=_run, args=("a", a, a_jobs)),
               threading.Thread(target=_run, args=("b", b, b_jobs))]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        a.executor.stop_workers()
    assert not errors, errors
    assert all(not t.is_alive() for t in threads)
    assert all(o.ok for o in results["a"]), [o.error for o in results["a"]]
    assert all(o.ok for o in results["b"]), [o.error for o in results["b"]]
    # the shared spec was posted once and joined, not raced
    assert get_registry().counter("fleet.dedup_joins").value >= 1
    # 4 distinct specs -> 4 receipts, each executed once, zero duplicates
    board = a.executor.board
    keys = {j.cache_key() for j in jobs}
    assert len(keys) == 4
    for key in keys:
        assert board.read_receipt(key)["error"] is None
    assert list(board.done_dir.glob("*.dup-*")) == []
    # both coordinators agree on the shared job's result
    a_shared = results["a"][1].result
    b_shared = results["b"][0].result
    assert a_shared.report == b_shared.report
    assert a_shared.mapping == b_shared.mapping


def test_drained_coordinator_withdraws_unclaimed_entries(tmp_path):
    store = ResultStore(tmp_path / "cache")
    executor = DistributedExecutor(store,
                                   DistributedConfig(spawn_workers=0))
    executor.request_drain("test shutdown")
    outcome = executor.run(None, _jobs(1))[0]
    assert outcome.drained and "drained" in outcome.error
    assert executor.board.snapshot()["queued"] == 0


def test_dead_fleet_fails_fast_instead_of_hanging(tmp_path):
    """Spawned workers that can never boot must fail the batch, not
    poll forever."""
    engine = _fleet_engine(
        tmp_path / "fleet", workers=1, max_worker_respawns=0,
        worker_env={"PYTHONPATH": str(tmp_path / "nowhere")},
    )
    try:
        outcome = engine.run(_jobs(1))[0]
    finally:
        engine.executor.stop_workers()
    assert not outcome.ok
    assert "fleet dead" in outcome.error


def test_file_backed_workloads_fail_fast(tmp_path):
    from repro.commgraph import save_commgraph
    from repro.workloads.registry import parse_workload

    graph_file = tmp_path / "g.json"
    save_commgraph(parse_workload("ring:16"), graph_file)
    job = MappingJob(TopologySpec((4, 4)), WorkloadSpec(str(graph_file)),
                     MapperConfig.make("dimorder", order="ABT"))
    executor = DistributedExecutor(ResultStore(tmp_path / "cache"),
                                   DistributedConfig(spawn_workers=0))
    outcome = executor.run(None, [job])[0]
    assert outcome.error and "file-backed" in outcome.error
    assert executor.board.snapshot()["queued"] == 0  # never posted


# -- configuration --------------------------------------------------------------------
def test_distributed_config_validation():
    with pytest.raises(ConfigError):
        DistributedConfig(lease_seconds=0)
    with pytest.raises(ConfigError):
        DistributedConfig(poison_threshold=0)
    with pytest.raises(ConfigError):
        DistributedConfig(spawn_workers=-1)
    cfg = DistributedConfig(worker_env={"B": "2", "A": "1"})
    assert cfg.worker_env == (("A", "1"), ("B", "2"))


def test_engine_backend_validation(tmp_path):
    with pytest.raises(ConfigError):  # no cache directory
        MappingEngine(executor_config=DistributedConfig())
    engine = MappingEngine(cache_dir=tmp_path,
                           executor_config=DistributedConfig())
    assert isinstance(engine.executor, DistributedExecutor)


# -- spawners -------------------------------------------------------------------------
def test_subprocess_spawner_command_shape(tmp_path):
    spawner = SubprocessSpawner(tmp_path, poll=0.1, idle_exit=30.0)
    cmd = spawner.command("w-x")
    assert cmd[1:4] == ["-m", "repro.cli", "worker"]
    assert str(tmp_path) in cmd
    assert cmd[cmd.index("--id") + 1] == "w-x"


def test_ssh_spawner_pins_the_launch_contract():
    spawner = SshSpawner("node7", "/mnt/shared/cache", python="python3.12",
                         env={"PYTHONPATH": "/mnt/shared/src"})
    cmd = spawner.command("w-7")
    assert cmd[:4] == ["ssh", "-o", "BatchMode=yes", "node7"]
    assert cmd[4] == "python3.12"
    assert "/mnt/shared/cache" in cmd
    assert cmd[cmd.index("--host-label") + 1] == "node7"
    script = spawner._launch_script("w-7")
    # pid marker lets the coordinator signal the remote process directly
    assert '::repro-worker-pid $' in script
    # the worker replaces the login shell: remote pid == worker pid
    assert script.split("; ")[-1].startswith("exec ")
    assert "export PYTHONPATH=/mnt/shared/src" in script


def _fake_ssh_env(monkeypatch):
    script = Path(__file__).resolve().parents[1] / "scripts" / "fake_ssh.py"
    monkeypatch.setenv("REPRO_SSH", f"{sys.executable} {script}")


def test_ssh_spawner_full_remote_lifecycle(tmp_path, monkeypatch):
    """The whole remote contract under fake-ssh: launch through the
    transport, log teeing, pid-marker discovery, stats labeled with the
    host, and signal escalation through the transport."""
    _fake_ssh_env(monkeypatch)
    cache = tmp_path / "cache"
    job = _jobs(1)[0]
    MappingEngine(cache_dir=cache).run([job])  # warm the store
    board = JobBoard.under_cache(cache)
    board.ensure_dirs()
    key = job.cache_key()
    board.post(key, {"key": key, "spec": job.payload(),
                     "lease_seconds": 10.0})

    src_root = str(Path(repro.__file__).resolve().parents[1])
    spawner = SshSpawner("alpha", cache, python=sys.executable,
                         poll=0.02, idle_exit=30.0,
                         env={"PYTHONPATH": src_root})
    handle = spawner.spawn("ssh-w1")
    try:
        deadline = time.time() + 60
        while board.read_receipt(key) is None and time.time() < deadline:
            time.sleep(0.05)
        receipt = board.read_receipt(key)
        assert receipt is not None, handle.log_path.read_text()
        assert receipt["worker"] == "ssh-w1"
        assert receipt["host"] == "alpha"
        assert receipt["executed"] is False  # store hit, mapper skipped
        # fake-ssh exec chain: the "remote" pid is the local child's pid
        assert handle.remote_pid() == handle.process.pid
        assert handle.host == "alpha"
        stats = board.read_worker_stats("ssh-w1")
        assert stats["host"] == "alpha"
    finally:
        handle.stop()
    assert not handle.alive()


def test_slurm_spawner_command_shape(tmp_path):
    spawner = SlurmSpawner(tmp_path, partition="batch",
                           srun_options=("--time=10",), poll=0.1,
                           idle_exit=30.0)
    cmd = spawner.command("w-s")
    assert cmd[:4] == ["srun", "--nodes=1", "--ntasks=1", "--unbuffered"]
    assert "--partition" in cmd and cmd[cmd.index("--partition") + 1] == "batch"
    assert "--time=10" in cmd
    assert cmd[cmd.index("--id") + 1] == "w-s"
    default = SlurmSpawner(tmp_path).command("w-s")
    assert "--partition" not in default


def test_host_spec_parsing():
    assert HostSpec.parse("local") == HostSpec("local", kind="local")
    assert HostSpec.parse("node7") == HostSpec("node7", kind="ssh")
    assert HostSpec.parse("ssh:node7*4") == \
        HostSpec("node7", kind="ssh", slots=4)
    assert HostSpec.parse("slurm:batch*8") == \
        HostSpec("batch", kind="slurm", slots=8)
    assert HostSpec.parse("local*2") == HostSpec("local", kind="local",
                                                 slots=2)
    spec = HostSpec("x", kind="ssh")
    assert HostSpec.parse(spec) is spec  # passthrough
    for bad in ("node*two", "*3", "teleport:node", ""):
        with pytest.raises(ValueError):
            HostSpec.parse(bad)
    with pytest.raises(ValueError):
        HostSpec("x", kind="ssh", slots=0)


def test_build_spawner_dispatch(tmp_path):
    local = build_spawner(HostSpec.parse("local*2"), tmp_path,
                          poll=0.1, idle_exit=30.0)
    assert isinstance(local, SubprocessSpawner)
    assert local.host_label is None
    labeled = build_spawner(HostSpec("rack1", kind="local"), tmp_path,
                            poll=0.1, idle_exit=30.0)
    assert isinstance(labeled, SubprocessSpawner)
    assert labeled.host_label == "rack1"
    remote = build_spawner(HostSpec.parse("ssh:node7"), tmp_path,
                           poll=0.1, idle_exit=30.0, python="py3")
    assert isinstance(remote, SshSpawner)
    assert remote.host == "node7" and remote.python == "py3"
    batch = build_spawner(HostSpec.parse("slurm:-"), tmp_path,
                          poll=0.1, idle_exit=30.0)
    assert isinstance(batch, SlurmSpawner) and batch.partition is None
    gpu = build_spawner(HostSpec.parse("slurm:gpu*4"), tmp_path,
                        poll=0.1, idle_exit=30.0)
    assert gpu.partition == "gpu"


def test_cli_worker_idles_out_cleanly(tmp_path, capsys):
    rc = cli_main(["worker", str(tmp_path), "--idle-exit", "0.2",
                   "--poll", "0.02", "--id", "cli-w"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cli-w" in out and "published 0 receipt(s)" in out


def test_worker_once_processes_at_most_one_job(tmp_path):
    cache = tmp_path / "cache"
    jobs = _jobs(2)
    MappingEngine(cache_dir=cache).run(jobs)  # warm the store
    board = JobBoard.under_cache(cache)
    board.ensure_dirs()
    for job in jobs:
        key = job.cache_key()
        board.post(key, {"key": key, "spec": job.payload(),
                         "lease_seconds": 5.0})
    worker = FleetWorker(cache, worker_id="once-w", poll=0.01,
                         install_signals=False, once=True)
    assert worker.run() == 1  # one scan, one job, then exit
    receipts = [board.read_receipt(j.cache_key()) for j in jobs]
    assert sum(r is not None for r in receipts) == 1


def test_cli_worker_once_and_host_label(tmp_path, capsys):
    rc = cli_main(["worker", str(tmp_path), "--once", "--poll", "0.01",
                   "--id", "cli-once", "--host-label", "hostX"])
    assert rc == 0
    assert "published 0 receipt(s)" in capsys.readouterr().out
    stats = JobBoard.under_cache(tmp_path).read_worker_stats("cli-once")
    assert stats["host"] == "hostX"


# -- multi-host fleet ------------------------------------------------------------------
def test_sigkilled_ssh_worker_reclaim_and_parity(tmp_path, monkeypatch):
    """The multi-host chaos headline: a two-host ssh fleet (fake-ssh
    transport) with one worker SIGKILLed right after claiming still
    produces bitwise-serial results, one reclaim, zero duplicates, and
    host labels threaded end to end."""
    _fake_ssh_env(monkeypatch)
    jobs = _jobs(3)
    want = MappingEngine(cache_dir=tmp_path / "serial").run(jobs)
    registry = get_registry()
    src_root = str(Path(repro.__file__).resolve().parents[1])
    engine = _fleet_engine(
        tmp_path / "fleet", workers=0,
        hosts=("ssh:alpha", "ssh:beta"),
        worker_python=sys.executable,
        lease_seconds=1.0, cleanup=False,
        worker_env={
            "PYTHONPATH": src_root,
            "REPRO_FAULTS": "worker-kill-after-claim:1",
            "REPRO_FAULT_HITS_DIR": str(tmp_path / "hits"),
        },
    )
    try:
        got = engine.run(jobs)
        snap = engine.executor.snapshot()
    finally:
        engine.executor.stop_workers()
    _assert_parity(want, got)
    assert registry.counter("fleet.reclaims").value >= 1
    assert registry.counter("fleet.worker_respawns").value >= 1
    board = engine.executor.board
    for job in jobs:
        receipt = board.read_receipt(job.cache_key())
        assert receipt["error"] is None
        assert receipt["host"] in {"alpha", "beta"}
    assert list(board.done_dir.glob("*.dup-*")) == []
    # the coordinator published its host registry for the doctor
    assert {"alpha", "beta"} <= set(board.read_host_registry())
    assert set(snap["hosts"]) == {"alpha", "beta"}


# -- doctor board fsck ----------------------------------------------------------------
def test_doctor_reports_and_repairs_board_state(tmp_path):
    cache = tmp_path / "cache"
    ResultStore(cache)  # lay down the store skeleton
    board = JobBoard.under_cache(cache)
    board.ensure_dirs()
    old = time.time() - 300

    # expired lease: entry present, heartbeat long past its lease
    board.post("k1", {"key": "k1", "lease_seconds": 0.5})
    dead_claim = board.try_claim("k1", "w1", 0.5)
    os.utime(dead_claim, (old, old))
    # orphan claim: no queue entry behind it
    orphan = board.try_claim("k2", "w2", 0.5)
    os.utime(orphan, (old, old))
    # an older board's speculative claim is an orphan: no key owns it
    legacy = board.claims_dir / "k1.spec.claim"
    legacy.write_text(json.dumps({"worker": "w5", "lease_seconds": 0.5}))
    os.utime(legacy, (old, old))
    # healthy claim: fresh heartbeat, must NOT be flagged
    board.post("k4", {"key": "k4", "lease_seconds": 60.0})
    board.try_claim("k4", "w4", 60.0)
    # stale registration + debris
    reg = board.register_worker("dead-worker", 0.5)
    os.utime(reg, (old, old))
    board.record_duplicate("k1", "w9")
    (board.claims_dir / "k3.claim.reclaimed-1-2").write_text("{}")

    report = diagnose(cache)
    kinds = {f.kind for f in report.findings}
    assert {"expired-lease", "orphan-claim", "stale-worker",
            "board-debris"} <= kinds
    assert not report.clean
    flagged = {f.path for f in report.findings
               if f.kind in ("expired-lease", "orphan-claim")}
    assert str(dead_claim.relative_to(cache)) in flagged
    assert "board/claims/k4.claim" not in flagged
    assert {f.kind for f in report.findings
            if f.path == "board/claims/k1.spec.claim"} == {"orphan-claim"}

    repaired = diagnose(cache, repair=True)
    assert repaired.clean
    for finding in repaired.findings:
        if finding.problem:
            assert finding.repaired, finding.to_dict()

    again = diagnose(cache)
    assert again.clean
    leftover = {f.kind for f in again.findings}
    assert not ({"expired-lease", "orphan-claim", "stale-worker",
                 "board-debris"} & leftover)
    # the healthy claim survived both passes
    assert board.claim_info("k4")[0] is not None
    assert not legacy.exists()


def test_doctor_board_exit_code_through_cli(tmp_path, capsys):
    cache = tmp_path / "cache"
    ResultStore(cache)
    board = JobBoard.under_cache(cache)
    board.ensure_dirs()
    claim = board.try_claim("k", "w1", 0.5)
    old = time.time() - 60
    os.utime(claim, (old, old))
    assert cli_main(["doctor", str(cache)]) == 1
    assert cli_main(["doctor", str(cache), "--repair"]) == 0
    assert cli_main(["doctor", str(cache)]) == 0


def test_doctor_flags_unknown_hosts_without_failing(tmp_path):
    """A registration from a host nobody configured is worth an eyebrow
    (informational), not an exit-code failure or a sweep: the worker is
    live and its receipts are valid."""
    cache = tmp_path / "cache"
    ResultStore(cache)
    board = JobBoard.under_cache(cache)
    board.ensure_dirs()
    board.write_host_registry(["alpha", "beta"])
    stranger = board.register_worker("stranger", 30.0, host="rogue-rig")
    board.register_worker("citizen", 30.0, host="alpha")

    report = diagnose(cache)
    unknown = [f for f in report.findings if f.kind == "unknown-host"]
    assert len(unknown) == 1
    assert "rogue-rig" in unknown[0].detail
    assert report.clean  # informational, not a problem

    diagnose(cache, repair=True)
    assert stranger.exists()  # never swept


def test_doctor_sweeps_seq_regressed_stats(tmp_path):
    """A stats snapshot whose heartbeat seq runs *behind* the live
    registration is debris from a previous incarnation (host clock went
    backwards, or a stale mount replayed a write): sweep the stats, keep
    the registration."""
    cache = tmp_path / "cache"
    ResultStore(cache)
    board = JobBoard.under_cache(cache)
    board.ensure_dirs()
    reg = board.register_worker("w-replay", 30.0, host="alpha", seq=9)
    stats = board.publish_worker_stats(
        "w-replay", {"published": 1, "executed": 1, "seq": 2},
        host="alpha")

    report = diagnose(cache)
    debris = [f for f in report.findings
              if f.kind == "board-debris" and "backwards" in f.detail]
    assert len(debris) == 1

    diagnose(cache, repair=True)
    assert not stats.exists()
    assert reg.exists()


# -- ServeClient retry satellite ------------------------------------------------------
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
