"""Executor supervision: circuit breaker, jitter, poison jobs, drain.

Worker functions live at module top level so the process pool can pickle
them by reference. Hard worker deaths use ``os._exit`` so the pool
actually breaks (an exception would just be a job failure).
"""

import os
import signal
import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.service.executor as executor_mod
from repro.service import (
    BatchExecutor,
    CircuitBreaker,
    ExecutorConfig,
    MappingEngine,
    MappingJob,
    MapperConfig,
    TopologySpec,
    WorkloadSpec,
    diagnose,
    full_jitter_delay,
)
from repro.service.supervision import jitter_token


# -- circuit breaker unit -------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown=10.0, clock=clock)
        assert breaker.allow()
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert breaker.record_failure()  # third one opens it
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.times_opened == 1

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2, cooldown=10.0,
                                 clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED  # never 2 in a row

    def test_half_open_admits_one_probe_then_closes_on_success(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 10.0
        assert breaker.allow()  # the single half-open probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()  # probe already out
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        breaker.record_failure()
        clock.now = 10.0
        assert breaker.allow()
        assert breaker.record_failure()  # probe failed
        assert breaker.state == CircuitBreaker.OPEN
        clock.now = 19.0  # 9s into the *new* cooldown
        assert not breaker.allow()
        clock.now = 20.0
        assert breaker.allow()
        assert breaker.times_opened == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=-1.0)


# -- full-jitter backoff --------------------------------------------------------------
class TestFullJitter:
    def test_deterministic_per_token_and_attempt(self):
        a = full_jitter_delay(0.5, 2, "job-a")
        assert a == full_jitter_delay(0.5, 2, "job-a")
        assert a != full_jitter_delay(0.5, 2, "job-b")
        assert full_jitter_delay(0.5, 2, "job-a") != \
            full_jitter_delay(0.5, 3, "job-a")

    def test_bounded_by_exponential_cap(self):
        for attempt in range(1, 6):
            cap = 0.1 * 2 ** (attempt - 1)
            for token in ("x", "y", "z"):
                delay = full_jitter_delay(0.1, attempt, token)
                assert 0.0 <= delay < cap

    def test_zero_base_means_zero_delay(self):
        assert full_jitter_delay(0.0, 3, "t") == 0.0

    def test_token_prefers_cache_key(self):
        class WithKey:
            def cache_key(self):
                return "deadbeef"

        assert jitter_token(WithKey()) == "deadbeef"
        assert jitter_token(("a", 1)) == repr(("a", 1))


# -- poison jobs ----------------------------------------------------------------------
def _die_or_double(item):
    kind, value = item
    if kind == "die":
        os._exit(17)  # hard worker death: the whole pool breaks
    return value * 2


def test_poison_job_is_quarantined_and_batch_completes():
    events = []
    config = ExecutorConfig(jobs=2, retries=10, backoff=0.0,
                            poison_threshold=2, circuit_threshold=50)
    executor = BatchExecutor(
        config, on_event=lambda e, info: events.append((e, info)))
    items = [("die", 0), ("ok", 1), ("ok", 2), ("ok", 3)]
    outcomes = executor.run(_die_or_double, items)
    assert outcomes[0].poisoned and not outcomes[0].ok
    assert "poison job" in outcomes[0].error
    for o in outcomes[1:]:
        assert o.ok, o.error
        assert o.result == o.item[1] * 2
    poisoned = [info for e, info in events if e == "poisoned"]
    assert len(poisoned) == 1
    assert poisoned[0]["deaths"] == 2
    assert executor.pool_rebuilds >= 1


def test_circuit_opens_under_repeated_pool_breaks_and_fails_fast():
    config = ExecutorConfig(jobs=2, retries=50, backoff=0.0,
                            poison_threshold=100, circuit_threshold=2,
                            circuit_cooldown=60.0)
    executor = BatchExecutor(config)
    outcomes = executor.run(_die_or_double, [("die", 0), ("ok", 1),
                                             ("ok", 2)])
    assert executor.breaker.state == CircuitBreaker.OPEN
    assert any("circuit breaker open" in (o.error or "") for o in outcomes)
    assert not any(o.ok for o in outcomes if o.item[0] == "die")
    # While cooling down, a new batch is refused without building a pool.
    t0 = time.perf_counter()
    refused = executor.run(_die_or_double, [("ok", 5), ("ok", 6)])
    assert time.perf_counter() - t0 < 5.0
    assert all("circuit breaker open" in o.error for o in refused)
    assert all(o.attempts == 0 for o in refused)


def _die_or_sleep(item):
    kind, value = item
    if kind == "die":
        os._exit(17)
    time.sleep(0.3)
    return value * 2


def test_pool_break_charges_only_jobs_in_flight():
    """Jobs still queued when a worker dies were never run; a death must
    not be charged to them, so with ``poison_threshold=1`` they succeed."""
    config = ExecutorConfig(jobs=2, retries=0, backoff=0.0,
                            poison_threshold=1, circuit_threshold=50)
    events = []
    executor = BatchExecutor(
        config, on_event=lambda e, info: events.append((e, info)))
    items = [("die", 0)] + [("ok", i) for i in range(1, 7)]
    outcomes = executor.run(_die_or_sleep, items)
    assert outcomes[0].poisoned
    poisoned = [o.index for o in outcomes if o.poisoned]
    assert len(poisoned) <= 2  # the killer plus at most its one sibling
    for o in outcomes[2:]:
        assert o.ok, o.error
        assert o.result == o.item[1] * 2
    assert [info["index"] for e, info in events
            if e == "poisoned"] == poisoned


def test_submit_to_an_already_broken_pool_charges_no_death(monkeypatch):
    """A worker can die between two submits of the lazy feed; the job
    whose submit bounces never ran, so it is re-run uncharged."""
    pools = []

    class FlakyPool:
        def __init__(self, max_workers, initializer=None):
            self.first = not pools
            self.submits = 0
            pools.append(self)

        def submit(self, fn, *args):
            self.submits += 1
            future = Future()
            if self.first and self.submits == 1:
                future.set_exception(BrokenProcessPool("worker died"))
            elif self.first:
                raise BrokenProcessPool("pool already broken")
            else:
                future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", FlakyPool)
    executor = BatchExecutor(ExecutorConfig(jobs=2, poison_threshold=1))
    outcomes = executor.run(_die_or_double, [("ok", 1), ("ok", 2)])
    assert outcomes[0].poisoned  # in flight when the pool broke
    assert outcomes[1].ok and outcomes[1].result == 4
    assert executor.pool_rebuilds == 1


def test_refused_batch_finishes_every_item():
    config = ExecutorConfig(jobs=2, retries=0, backoff=0.0,
                            poison_threshold=100, circuit_threshold=1,
                            circuit_cooldown=60.0)
    executor = BatchExecutor(config)
    executor.run(_die_or_double, [("die", 0), ("ok", 1)])
    assert executor.breaker.state == CircuitBreaker.OPEN
    events = []
    executor.on_event = lambda e, info: events.append((e, info["index"]))
    refused = executor.run(_die_or_double, [("ok", 2), ("ok", 3),
                                            ("ok", 4)])
    assert all("circuit breaker open" in o.error for o in refused)
    assert sorted(i for e, i in events if e == "queued") == [0, 1, 2]
    assert sorted(i for e, i in events if e == "finished") == [0, 1, 2]


def test_circuit_recovers_through_half_open_probe():
    config = ExecutorConfig(jobs=2, retries=2, backoff=0.0,
                            poison_threshold=1, circuit_threshold=1,
                            circuit_cooldown=0.0)
    executor = BatchExecutor(config)
    first = executor.run(_die_or_double, [("die", 0), ("ok", 1)])
    assert first[0].poisoned
    assert executor.breaker.times_opened >= 1
    # Cooldown 0: the next batch is the half-open probe; healthy jobs
    # close the circuit again.
    second = executor.run(_die_or_double, [("ok", 2), ("ok", 3)])
    assert all(o.ok for o in second)
    assert executor.breaker.state == CircuitBreaker.CLOSED


# -- graceful drain -------------------------------------------------------------------
def _slow_double(item):
    time.sleep(0.2)
    return item * 2


def test_serial_drain_skips_unstarted_jobs():
    executor = BatchExecutor(ExecutorConfig(jobs=1))
    seen = []

    def on_event(event, info):
        seen.append(event)
        if event == "finished" and seen.count("finished") == 1:
            executor.request_drain("test says stop")

    executor.on_event = on_event
    outcomes = executor.run(_slow_double, [1, 2, 3])
    assert outcomes[0].ok and outcomes[0].result == 2
    assert all(o.drained and not o.ok for o in outcomes[1:])


def test_draining_executor_starts_nothing_in_a_new_batch():
    events = []
    executor = BatchExecutor(
        ExecutorConfig(jobs=2),
        on_event=lambda e, info: events.append(e))
    executor.request_drain("shutting down")
    outcomes = executor.run(_slow_double, list(range(6)))
    assert all(o.drained and not o.ok for o in outcomes)
    assert all(o.attempts == 0 for o in outcomes)
    assert "started" not in events
    assert events.count("finished") == 6


def test_pooled_drain_on_sigterm_harvests_in_flight(tmp_path):
    executor = BatchExecutor(ExecutorConfig(jobs=2))
    timer = threading.Timer(
        0.1, lambda: os.kill(os.getpid(), signal.SIGTERM))
    timer.start()
    try:
        t0 = time.perf_counter()
        outcomes = executor.run(_slow_double, list(range(12)))
        elapsed = time.perf_counter() - t0
    finally:
        timer.cancel()
    assert executor.draining
    drained = [o for o in outcomes if o.drained]
    finished = [o for o in outcomes if o.ok]
    assert drained, "drain arrived at 0.1s; queued jobs must be cancelled"
    assert finished, "in-flight jobs are harvested, not killed"
    for o in finished:
        assert o.result == o.item * 2
    # 12 x 0.2s over 2 workers = 1.2s undrained; drained must beat that.
    assert elapsed < 1.1
    # The original signal disposition was restored.
    assert signal.getsignal(signal.SIGTERM) != executor._drain


# -- engine level ---------------------------------------------------------------------
FAST_PARAMS = dict(beam_width=4, max_orientations=4, order_mode="identity",
                   milp_time_limit=5.0)


def _job(seed: int) -> MappingJob:
    return MappingJob(
        topology=TopologySpec((4, 4)),
        workload=WorkloadSpec("random:16:60", seed=seed),
        mapper=MapperConfig.make("rahtm", **FAST_PARAMS),
    )


def test_engine_poison_job_writes_postmortem_and_doctor_lists_it(
        tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "worker-crash:*")
    monkeypatch.setenv("REPRO_FAULT_HITS_DIR", str(tmp_path / "hits"))
    cache = tmp_path / "cache"
    engine = MappingEngine(
        cache_dir=str(cache),
        executor_config=ExecutorConfig(jobs=2, retries=10, backoff=0.0,
                                       poison_threshold=2,
                                       circuit_threshold=50),
    )
    outcomes = engine.run([_job(0), _job(1)])
    assert all(not o.ok and o.poisoned for o in outcomes)
    assert engine.stats.poison_jobs == 2
    assert engine.stats.quarantined >= 2  # postmortem reports counted
    reports = [e["report"] for e in engine.store.list_quarantine()
               if e["file"].endswith(".report.json")]
    poison = [r for r in reports if r and r["kind"] == "poison_job"]
    assert len(poison) == 2
    assert all(r["deaths"] == 2 for r in poison)
    assert all(r["job"]["workload"]["spec"] == "random:16:60"
               for r in poison)
    # Doctor surfaces the quarantine but the directory is still *clean*:
    # quarantine is where problems go to be handled.
    report = diagnose(cache)
    kinds = [f.kind for f in report.findings]
    assert kinds.count("quarantine-entry") >= 2
    assert report.clean


def test_engine_drain_persists_pending_queue(tmp_path):
    cache = tmp_path / "cache"
    engine = MappingEngine(cache_dir=str(cache),
                           executor_config=ExecutorConfig(jobs=2))
    # SIGTERM on the first job completion: the pool holds at most
    # workers + 1 calls, so at least four of the eight jobs are still
    # queued and must drain, however fast the mapper runs.
    forward = engine.executor.on_event
    fired = []

    def on_event(event, info):
        forward(event, info)
        if event == "finished" and not fired:
            fired.append(info["index"])
            os.kill(os.getpid(), signal.SIGTERM)

    engine.executor.on_event = on_event
    outcomes = engine.run([_job(i) for i in range(8)])
    assert fired
    drained = [o for o in outcomes if o.drained]
    assert drained
    assert engine.stats.drained == len(drained)
    pending = cache / "pending.json"
    assert pending.exists()
    import json

    doc = json.loads(pending.read_text())
    assert doc["kind"] == "pending_batch"
    assert {j["index"] for j in doc["jobs"]} == {o.index for o in drained}
    # A fresh engine resubmits the same batch: completed jobs hit the
    # cache, drained ones compute, and the pending receipt is cleared.
    fresh = MappingEngine(cache_dir=str(cache),
                          executor_config=ExecutorConfig(jobs=2))
    redone = fresh.run([_job(i) for i in range(8)])
    assert all(o.ok for o in redone), [o.error for o in redone]
    assert not pending.exists()
    assert fresh.stats.cache_hits == 8 - len(drained)
