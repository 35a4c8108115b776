"""Supervised batch execution of jobs over a process pool.

The executor is deliberately generic: it runs ``fn(item)`` for a list of
picklable items with

- a configurable worker count. ``jobs=1`` called from the main thread
  (``repro map``, ``repro compare``) runs in this process through a
  one-slot stand-in pool (no pickling, easy debugging) that goes
  through the same dispatch loop as the process pool. Otherwise every
  batch, one-item batches included, runs in a pool of ``jobs`` worker
  processes that lives across batches, so per-process memos (stencils,
  optimal MILP solves) stay warm and a helper thread — a daemon's batch
  thread — never maps next to the threads it shares the GIL with.
  :meth:`BatchExecutor.close` shuts the pool down;
- a per-job wall-clock timeout, enforced *inside* the worker via
  ``SIGALRM`` so a hung job is cancelled without poisoning the pool.
  Jobs only ever run on a main thread (this one's or a worker's), so
  the timeout holds wherever the platform has ``SIGALRM``;
- counter telemetry from the workers: a pooled job ships back the
  deltas of the worker's registry counters, whether it returns or
  raises, and the dispatch loop adds them to this process's registry;
- bounded retry with **full-jitter** exponential backoff for transient
  failures (any exception except a timeout), seeded from the job's own
  identity so reruns are reproducible but parallel CI shards don't
  thunder-herd. Backoff never blocks the dispatch loop: retries are
  parked on a due-time queue while completed futures keep being
  harvested;
- **worker-death supervision**: a hard death (segfault, OOM-kill,
  ``os._exit``) breaks the whole pool and loses every in-flight future.
  At most one job per worker is ever in flight, so the death is charged
  only to jobs that were running, never to ones still queued. The pool
  is rebuilt and the lost jobs are re-run *one at a time*
  (probe mode) so the next crash is attributable to exactly one job. A
  job that kills its worker ``poison_threshold`` times (default 2) is a
  **poison job**: it is failed with a ``poisoned`` outcome and announced
  via the ``"poisoned"`` event (the engine serializes its spec into the
  store's quarantine for postmortem) instead of being retried forever;
- a **circuit breaker** over pool breaks: ``circuit_threshold``
  consecutive infrastructure failures open it, refusing further
  rebuilds (remaining jobs fail fast with a circuit-open error) until
  ``circuit_cooldown`` seconds pass; then a single half-open rebuild
  probe is admitted, and its success closes the circuit. The breaker
  persists across batches on the executor instance;
- **graceful drain** on SIGTERM/SIGINT (main thread only) and via
  :meth:`BatchExecutor.request_drain`: dispatch stops, so queued jobs
  never start, in-flight jobs are harvested, and unfinished items are
  reported with ``drained`` outcomes so the engine can persist the
  pending queue for a warm resume. A drain also shuts the pool down.

Outcomes and events are settled through a
:class:`~repro.service.supervision.BatchLedger`.
"""

from __future__ import annotations

import signal
import threading
import time
import weakref
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import ConfigError, JobTimeoutError
from repro.observability.metrics import get_registry
from repro.resilience import faultinject
from repro.service.supervision import (
    BatchLedger,
    CircuitBreaker,
    JobOutcome,
    full_jitter_delay,
    jitter_token,
)
from repro.utils.logconf import get_logger

__all__ = ["ExecutorConfig", "JobOutcome", "BatchExecutor"]

log = get_logger("service.executor")


@dataclass(frozen=True)
class ExecutorConfig:
    """Batch-execution knobs.

    Attributes
    ----------
    jobs:
        Worker processes; ``1`` executes in this process when run from
        the main thread, and in one worker process otherwise.
    timeout:
        Per-attempt wall-clock budget in seconds (None = unlimited).
    retries:
        Extra attempts after the first failure (timeouts never retry —
        a job that blew its budget once will blow it again).
    backoff:
        Cap base of the full-jitter backoff slept before retry ``k``:
        ``uniform(0, backoff * 2**(k-1))`` seconds, seeded from the job
        key.
    poison_threshold:
        Worker deaths attributable to one job before it is quarantined
        as a poison job instead of re-run.
    circuit_threshold:
        Consecutive pool breaks that open the circuit breaker.
    circuit_cooldown:
        Seconds the breaker stays open before admitting a half-open
        rebuild probe.
    """

    jobs: int = 1
    timeout: float | None = None
    retries: int = 1
    backoff: float = 0.05
    poison_threshold: int = 2
    circuit_threshold: int = 3
    circuit_cooldown: float = 30.0

    def __post_init__(self):
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigError("timeout must be > 0 (or None)")
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        if self.backoff < 0:
            raise ConfigError("backoff must be >= 0")
        if self.poison_threshold < 1:
            raise ConfigError("poison_threshold must be >= 1")
        if self.circuit_threshold < 1:
            raise ConfigError("circuit_threshold must be >= 1")
        if self.circuit_cooldown < 0:
            raise ConfigError("circuit_cooldown must be >= 0")


@contextmanager
def _deadline(seconds: float | None):
    """Raise :class:`JobTimeoutError` in this thread after ``seconds``.

    Signal-based, so it interrupts pure-Python *and* long native calls
    that release the GIL between bytecodes. Must run on a main thread
    (the executor only runs jobs there); a no-op on platforms without
    ``SIGALRM``.
    """
    if seconds is None or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _expired(signum, frame):
        raise JobTimeoutError(f"job exceeded {seconds:.6g}s timeout")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _invoke(fn, item, timeout):
    """Worker-side wrapper applying the per-attempt deadline."""
    faultinject.inject("worker-crash")
    with _deadline(timeout):
        return fn(item)


def _invoke_pooled(fn, item, timeout):
    """:func:`_invoke` in a pool worker: also ship the job's counter
    deltas, which would otherwise stay in the worker's registry. A
    result carries them as ``(result, deltas)``; an exception (a timeout,
    a failure to retry) as its ``counter_deltas`` attribute."""
    registry = get_registry()
    before = registry.counter_values()

    def deltas():
        return {name: value - before.get(name, 0.0)
                for name, value in registry.counter_values().items()
                if value != before.get(name, 0.0)}

    try:
        result = _invoke(fn, item, timeout)
    except Exception as exc:
        exc.counter_deltas = deltas()
        raise
    return result, deltas()


def _init_worker() -> None:
    """Pool-worker initializer: undo the signal handlers the fork copied.

    Workers are forked inside :meth:`BatchExecutor._drain_signals` (or
    under a daemon's event-loop handlers), so without this a worker's
    SIGTERM would only set its own copy of the drain flag, and the
    ``Process.terminate()`` that stops a broken pool's survivors would
    not stop a busy one. SIGINT is ignored: a terminal ^C reaches the
    whole process group, and only the parent's drain should act on it.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class _InlinePool:
    """A one-slot pool that runs each call here, at submit time."""

    def submit(self, fn, *args) -> Future:
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False):
        pass


class BatchExecutor:
    """Run a batch of ``fn(item)`` calls per :class:`ExecutorConfig`.

    ``on_event(event, info)`` (optional) receives ``"queued"``,
    ``"started"`` (once per attempt), ``"finished"``, ``"pool_rebuild"``,
    ``"poisoned"``, ``"circuit_open"`` and ``"drain_requested"``
    telemetry. Batches run one at a time; pooled ones (``jobs > 1``, or
    any batch run off the main thread) share one process pool, which
    :meth:`close` shuts down. :meth:`request_drain` is sticky, so an
    executor told to shut down fails further dispatch fast until the
    process exits.
    """

    def __init__(self, config: ExecutorConfig | None = None, on_event=None):
        self.on_event = on_event
        self._drain = threading.Event()
        self.config = config or ExecutorConfig()
        #: Times a broken process pool was rebuilt (reset per batch).
        self.pool_rebuilds = 0
        #: Breaker over pool breaks; persists across batches.
        self.breaker = CircuitBreaker(
            threshold=self.config.circuit_threshold,
            cooldown=self.config.circuit_cooldown,
        )
        #: The process pool pooled batches share; built on first use and
        #: after a break.
        self._pool: ProcessPoolExecutor | None = None
        self._pool_finalizer: weakref.finalize | None = None

    def _open_pool(self, pooled: bool):
        """The pool a batch runs in: the shared process pool, or the
        inline stand-in."""
        if not pooled:
            return _InlinePool()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.config.jobs,
                                             initializer=_init_worker)
            # An executor dropped without close() waits for its workers
            # to exit then and there, not whenever the pool is collected.
            self._pool_finalizer = weakref.finalize(self, self._pool.shutdown)
            self._pool_finalizer.atexit = False
        return self._pool

    def _drop_pool(self, wait: bool) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            self._pool_finalizer.detach()
            pool.shutdown(wait=wait, cancel_futures=True)

    def close(self) -> None:
        """Shut the process pool down and wait for its workers to exit.

        The next batch builds a new pool.
        """
        self._drop_pool(wait=True)

    @property
    def draining(self) -> bool:
        return self._drain.is_set()

    def request_drain(self, reason: str = "drain requested") -> None:
        """Stop dispatching; harvest in-flight work and return early."""
        if self._drain.is_set():
            return
        log.warning("draining %s: %s", type(self).__name__, reason)
        get_registry().counter("executor.drains").inc()
        self._drain.set()
        self._emit("drain_requested", reason=reason)

    def _emit(self, event: str, **info) -> None:
        if self.on_event is not None:
            self.on_event(event, info)

    @contextmanager
    def _drain_signals(self):
        """SIGTERM/SIGINT trigger a graceful drain while a batch runs."""
        if threading.current_thread() is not threading.main_thread():
            yield
            return
        previous = {}

        def _handler(signum, frame):
            self.request_drain(f"received signal {signum}")

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[sig] = signal.signal(sig, _handler)
            except (ValueError, OSError):  # pragma: no cover - platform
                pass
        try:
            yield
        finally:
            for sig, prev in previous.items():
                signal.signal(sig, prev)

    def _backoff_delay(self, item, attempt: int) -> float:
        return full_jitter_delay(self.config.backoff, attempt,
                                 jitter_token(item))

    def run(self, fn, items) -> list[JobOutcome]:
        """Execute every item; outcomes are positionally aligned to items."""
        ledger = BatchLedger(items, self._emit, self.config.poison_threshold)
        # Inline only on the main thread, where SIGALRM can enforce the
        # timeout; a helper thread (a daemon's) must not hold the GIL
        # for a whole map while its process serves other threads.
        pooled = (self.config.jobs > 1
                  or threading.current_thread() is not threading.main_thread())
        if (pooled and self.breaker.state != CircuitBreaker.HALF_OPEN
                and not self.breaker.allow()):
            # Opened by a previous batch and still cooling down: refuse
            # to build a pool at all rather than feed a sick substrate.
            # (Half-open: a previous batch's probe never resolved, so
            # this batch is the probe.)
            ledger.finish_rest(
                "circuit breaker open after repeated worker crashes; "
                "refusing to dispatch until the cooldown "
                f"({self.config.circuit_cooldown:.3g}s) elapses")
            return ledger.outcomes  # type: ignore[return-value]
        with self._drain_signals():
            self._dispatch(fn, ledger, pooled)
        return ledger.outcomes  # type: ignore[return-value]

    def _dispatch(self, fn, ledger: BatchLedger, pooled: bool) -> None:
        """Feed the pool from a queue, one job per worker in flight."""
        registry = get_registry()
        items = ledger.items
        workers = self.config.jobs
        invoke = _invoke_pooled if pooled else _invoke
        self.pool_rebuilds = 0
        queue = deque(range(len(items)))  # never started
        suspects: deque[int] = deque()    # lost to a pool break: probes
        retries: list[tuple[float, int]] = []  # (due, index), sorted
        pending: dict[Future, int] = {}   # in flight
        pool = self._open_pool(pooled)

        def submit(index: int) -> None:
            ledger.start(index)
            try:
                future = pool.submit(invoke, fn, items[index],
                                     self.config.timeout)
            except BrokenProcessPool as exc:
                # A worker died before this job reached the pool: it is
                # re-run with the lost in-flight jobs but charged no death.
                suspects.append(index)
                on_pool_break(exc)
                return
            pending[future] = index

        def reschedule(index: int, exc: BaseException) -> None:
            """Park a retry on the due-time queue, or fail the job."""
            attempt = ledger.attempts[index]
            if attempt <= self.config.retries:
                registry.counter("executor.retries").inc()
                delay = self._backoff_delay(items[index], attempt)
                log.warning("job %d attempt %d failed (%s); retry in %.3fs",
                            index, attempt, _describe(exc), delay)
                retries.append((time.perf_counter() + delay, index))
                retries.sort()
            else:
                ledger.finish(index, None, _describe(exc))

        def on_pool_break(exc: BrokenProcessPool) -> None:
            """A worker died hard, taking the pool and every in-flight
            future with it. Attribute deaths, enter probe mode, and
            rebuild — if the circuit breaker still lets us."""
            nonlocal pool
            registry.counter("executor.worker_deaths").inc()
            for index in pending.values():
                if ledger.charge_death(index, _describe(exc)):
                    registry.counter("executor.poison_jobs").inc()
                else:
                    suspects.append(index)
            pending.clear()
            self._drop_pool(wait=False)
            if self.breaker.record_failure():
                registry.counter("executor.circuit_open").inc()
                log.error("circuit breaker OPEN after %d consecutive "
                          "pool failures", self.breaker.consecutive_failures)
                self._emit("circuit_open",
                           failures=self.breaker.consecutive_failures,
                           error=_describe(exc))
            if not (queue or suspects or retries):
                return  # every job already has an outcome; nothing to run
            if not self.breaker.allow():
                queue.clear()
                suspects.clear()
                retries.clear()
                ledger.finish_rest(
                    f"circuit breaker open after repeated worker crashes "
                    f"(last: {_describe(exc)}); cooling down "
                    f"{self.config.circuit_cooldown:.3g}s")
                return
            self.pool_rebuilds += 1
            registry.counter("executor.pool_rebuilds").inc()
            log.warning("process pool broke (%s); rebuilding (%d)",
                        _describe(exc), self.pool_rebuilds)
            self._emit("pool_rebuild", rebuilds=self.pool_rebuilds,
                       error=_describe(exc))
            pool = self._open_pool(pooled)

        try:
            while pending or queue or suspects or retries:
                if self.draining:
                    # Nothing new starts; in-flight jobs are harvested.
                    queue.clear()
                    suspects.clear()
                    retries.clear()
                    if not pending:
                        break
                elif suspects:
                    # Probe mode: exactly one suspect in flight at a
                    # time, so the next pool break is attributable to
                    # one job. Retries and the queue wait until it ends.
                    if not pending:
                        submit(suspects.popleft())
                else:
                    now = time.perf_counter()
                    while len(pending) < workers and not suspects:
                        if retries and retries[0][0] <= now:
                            submit(retries.pop(0)[1])
                        elif queue:
                            submit(queue.popleft())
                        else:
                            break
                if not pending:
                    # Only future-dated retries left (or a submit just
                    # broke the pool): sleep until the earliest retry if
                    # nothing else can make progress.
                    if retries and not (queue or suspects):
                        time.sleep(max(0.0, retries[0][0]
                                       - time.perf_counter()))
                    continue
                # Harvest completions, but with a free slot wake for the
                # next retry due-time instead of blocking on the slowest
                # in-flight job. With every slot busy, or in probe mode
                # (retries parked), block until something completes.
                wake = (max(0.0, retries[0][0] - time.perf_counter())
                        if retries and not suspects and len(pending) < workers
                        else None)
                done, _ = wait(set(pending), timeout=wake,
                               return_when=FIRST_COMPLETED)
                broken: BrokenProcessPool | None = None
                for future in done:
                    exc = future.exception()
                    if isinstance(exc, BrokenProcessPool):
                        # Left in pending: on_pool_break charges the
                        # death to every lost in-flight job.
                        broken = exc
                        continue
                    index = pending.pop(future)
                    # The worker survived (it returned or raised cleanly),
                    # so the substrate is healthy even if the job is not.
                    ledger.survived(index)
                    if pooled:
                        self.breaker.record_success()
                    result = future.result() if exc is None else None
                    if pooled:
                        if exc is None:
                            result, deltas = result
                        else:
                            deltas = getattr(exc, "counter_deltas", {})
                        for name, delta in deltas.items():
                            registry.counter(name).inc(delta)
                    if exc is None:
                        ledger.finish(index, result)
                    elif isinstance(exc, JobTimeoutError):
                        registry.counter("executor.timeouts").inc()
                        ledger.finish(index, None, _describe(exc),
                                      timed_out=True)
                    else:
                        reschedule(index, exc)
                if broken is not None:
                    on_pool_break(broken)
        finally:
            if pending or self.draining:
                # A drain, or an exception that escaped with jobs in
                # flight: the pool must not outlive this batch.
                self._drop_pool(wait=not pending)
        # Only a drain leaves items unsettled once the loop ends.
        ledger.finish_rest("drained: batch shut down before this job "
                           "completed", drained=True)
