"""Executor robustness: retries, failures, timeouts, batch isolation.

Worker functions live at module top level so the process pool can pickle
them by reference.
"""

import multiprocessing
import os
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.observability import get_registry
from repro.service import BatchExecutor, ExecutorConfig


def _double(x):
    return x * 2


def _boom(x):
    raise ValueError(f"boom {x}")


def _fail_until(arg):
    """arg = (counter_path, succeed_on_attempt). Fails until that attempt."""
    path, succeed_on = Path(arg[0]), arg[1]
    count = int(path.read_text()) + 1 if path.exists() else 1
    path.write_text(str(count))
    if count < succeed_on:
        raise RuntimeError(f"transient failure #{count}")
    return f"ok after {count}"


def _sleepy(seconds):
    time.sleep(seconds)
    return "done"


@pytest.mark.parametrize("jobs", [1, 3])
def test_batch_success(jobs):
    outcomes = BatchExecutor(ExecutorConfig(jobs=jobs)).run(_double, [1, 2, 3])
    assert [o.result for o in outcomes] == [2, 4, 6]
    assert all(o.ok and o.attempts == 1 for o in outcomes)
    assert [o.index for o in outcomes] == [0, 1, 2]


@pytest.mark.parametrize("jobs", [1, 2])
def test_persistent_failure_reported_without_killing_batch(jobs):
    config = ExecutorConfig(jobs=jobs, retries=2, backoff=0.0)
    outcomes = BatchExecutor(config).run(_boom_or_double, [("boom", 1),
                                                          ("ok", 21)])
    failed, succeeded = outcomes
    assert not failed.ok
    assert failed.attempts == 3  # initial + 2 retries
    assert "boom" in failed.error
    assert failed.result is None
    assert succeeded.ok and succeeded.result == 42


def _boom_or_double(arg):
    kind, value = arg
    if kind == "boom":
        raise ValueError("boom")
    return value * 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_transient_failure_retried_to_success(jobs, tmp_path):
    counter = tmp_path / f"counter-{jobs}"
    config = ExecutorConfig(jobs=jobs, retries=2, backoff=0.0)
    outcome = BatchExecutor(config).run(_fail_until, [(str(counter), 2)])[0]
    assert outcome.ok
    assert outcome.result == "ok after 2"
    assert outcome.attempts == 2


def test_zero_retries_fails_fast():
    config = ExecutorConfig(jobs=1, retries=0, backoff=0.0)
    outcome = BatchExecutor(config).run(_boom, ["x"])[0]
    assert not outcome.ok and outcome.attempts == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_timeout_cancels_and_reports(jobs):
    config = ExecutorConfig(jobs=jobs, timeout=0.3, retries=2, backoff=0.0)
    t0 = time.perf_counter()
    outcomes = BatchExecutor(config).run(_sleepy, [30.0, 0.0])
    elapsed = time.perf_counter() - t0
    hung, quick = outcomes
    assert hung.timed_out and not hung.ok
    assert "timeout" in hung.error
    assert hung.attempts == 1  # timeouts are not retried
    assert quick.ok and quick.result == "done"
    assert elapsed < 10.0  # the 30s job was actually cancelled


def test_events_emitted_in_order():
    events = []
    exe = BatchExecutor(ExecutorConfig(jobs=1),
                        on_event=lambda e, info: events.append(e))
    exe.run(_double, [1])
    assert events == ["queued", "started", "finished"]


def test_config_validation():
    with pytest.raises(ConfigError):
        ExecutorConfig(jobs=0)
    with pytest.raises(ConfigError):
        ExecutorConfig(timeout=0.0)
    with pytest.raises(ConfigError):
        ExecutorConfig(retries=-1)
    with pytest.raises(ConfigError):
        ExecutorConfig(backoff=-0.1)


# -- the persistent pool ---------------------------------------------------------------
def _pid(_):
    return os.getpid()


def _count_and_pid(_):
    get_registry().counter("test.worker_side").inc(2)
    return os.getpid()


def _die_once(marker):
    """Kill the worker on the first call (no marker yet), then succeed."""
    path = Path(marker)
    if not path.exists():
        path.write_text("died")
        os._exit(17)
    return os.getpid()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _all_exit(pids, seconds: float = 10.0) -> bool:
    """Whether every pid has exited (been reaped) within ``seconds``."""
    deadline = time.monotonic() + seconds
    while any(_alive(pid) for pid in pids):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


def test_one_item_batches_reuse_the_pool_workers():
    """With ``jobs=2`` a one-item batch runs in a worker of the pool the
    previous batch used, never in the caller: four batches see at most
    two worker pids, and none is this process's."""
    exe = BatchExecutor(ExecutorConfig(jobs=2))
    try:
        pids = [exe.run(_pid, [i])[0].result for i in range(4)]
        pool = exe._pool
        pids += [o.result for o in exe.run(_pid, [4, 5])]
        assert exe._pool is pool
    finally:
        exe.close()
    assert os.getpid() not in pids
    assert len(set(pids)) <= 2


def _off_main_thread(fn):
    """``fn()`` run on a helper thread, as a daemon runs its batches."""
    box = {}
    thread = threading.Thread(target=lambda: box.setdefault("value", fn()))
    thread.start()
    thread.join(30)
    return box["value"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_one_item_batch_timeout_enforced_off_the_main_thread(jobs):
    """A daemon runs batches on a helper thread, where ``SIGALRM`` cannot
    be armed; the one-item batch must still time out in its worker."""
    exe = BatchExecutor(ExecutorConfig(jobs=jobs, timeout=0.3))

    def body():
        t0 = time.perf_counter()
        return exe.run(_sleepy, [2.0])[0], time.perf_counter() - t0

    try:
        outcome, elapsed = _off_main_thread(body)
    finally:
        exe.close()
    assert outcome.timed_out and not outcome.ok
    assert elapsed < 1.5


def test_jobs_1_runs_inline_only_on_the_main_thread():
    """``repro map`` (main thread) maps in this process; a daemon's batch
    thread hands every batch to one long-lived worker instead."""
    exe = BatchExecutor(ExecutorConfig(jobs=1))
    try:
        assert exe.run(_pid, [0])[0].result == os.getpid()
        assert exe._pool is None
        pids = _off_main_thread(
            lambda: [exe.run(_pid, [i])[0].result for i in range(3)]
            + [o.result for o in exe.run(_pid, [3, 4])])
        assert len(set(pids)) == 1 and os.getpid() not in pids
        assert list(exe._pool._processes) == pids[:1]
    finally:
        exe.close()


def test_pool_break_replaces_the_pool(tmp_path):
    exe = BatchExecutor(ExecutorConfig(jobs=2, poison_threshold=2))
    try:
        first = exe.run(_pid, [0])[0].result
        broken = exe._pool
        outcome = exe.run(_die_once, [str(tmp_path / "marker")])[0]
        assert outcome.ok and outcome.attempts == 2
        assert exe.pool_rebuilds == 1
        assert exe._pool is not broken
        assert _all_exit([first])
        assert outcome.result in exe._pool._processes
        assert exe.run(_pid, [1])[0].result in exe._pool._processes
    finally:
        exe.close()


def test_close_leaves_no_child_processes():
    exe = BatchExecutor(ExecutorConfig(jobs=2))
    exe.run(_double, [1, 2, 3])
    pids = list(exe._pool._processes)
    assert pids and all(_alive(pid) for pid in pids)
    exe.close()
    assert not multiprocessing.active_children()
    assert not any(_alive(pid) for pid in pids)
    # The next batch builds a new pool.
    try:
        assert [o.result for o in exe.run(_double, [4])] == [8]
    finally:
        exe.close()


def test_dropped_executor_joins_its_workers():
    """An executor nobody closed stops its pool when it is dropped, not
    when the pool is garbage-collected."""
    exe = BatchExecutor(ExecutorConfig(jobs=2))
    exe.run(_double, [1, 2])
    workers = list(exe._pool._processes.values())
    del exe
    assert workers and not any(p.is_alive() for p in workers)


def test_drain_shuts_the_pool_down():
    exe = BatchExecutor(ExecutorConfig(jobs=2))
    exe.run(_double, [1])
    pids = list(exe._pool._processes)
    exe.request_drain("test")
    outcome = exe.run(_double, [2])[0]
    assert outcome.drained and exe._pool is None
    assert _all_exit(pids)


def test_pooled_jobs_ship_their_counter_deltas():
    registry = get_registry()
    exe = BatchExecutor(ExecutorConfig(jobs=2))
    try:
        exe.run(_count_and_pid, [0])
        exe.run(_count_and_pid, [1, 2])
    finally:
        exe.close()
    assert registry.counter("test.worker_side").value == 6


def _count_and_fail(seconds):
    get_registry().counter("test.worker_side").inc(3)
    if seconds:
        time.sleep(seconds)
    raise RuntimeError("after counting")


def test_failed_pooled_jobs_ship_their_counter_deltas():
    """A job that counts and then fails (retried, or timed out) still
    ships its counts: two attempts of the failing job, one timed-out job."""
    registry = get_registry()
    exe = BatchExecutor(ExecutorConfig(jobs=2, retries=1, backoff=0.0,
                                       timeout=0.3))
    try:
        failed, timed_out = exe.run(_count_and_fail, [0, 5.0])
    finally:
        exe.close()
    assert failed.attempts == 2 and "after counting" in failed.error
    assert timed_out.timed_out
    assert registry.counter("test.worker_side").value == 9
