"""The persistent mapping daemon: ``repro serve``.

:class:`MappingDaemon` turns the batch-invoked service core into a
long-lived process:

- an asyncio event loop owns the HTTP front-end
  (:mod:`repro.serve.http`), a **scheduler** task and a periodic
  **janitor** task;
- submissions enter a **fair tenant queue**
  (:class:`~repro.serve.queueing.FairQueue` — per-tenant quotas,
  starvation-free aging); a submission's ``deadline_seconds`` becomes
  its job's degrade-on-deadline budget as it is;
- the scheduler feeds batches to the existing supervised
  :class:`~repro.service.engine.MappingEngine` in a worker thread, so
  the circuit breaker, poison-job quarantine and content-addressed
  cache all apply unchanged. Submission is **idempotent** end to end:
  the job id *is* the spec's SHA-256 cache key, a resubmitted spec
  joins the existing job, and a spec whose result is already stored
  completes at submit time with ``wall_seconds = 0.0`` (the engine's
  cache-hit contract);
- SIGTERM/SIGINT trigger a **graceful drain**: the in-flight batch is
  harvested through the executor's drain path, everything still queued
  is written to ``<cache>/pending.json``, and a restarted daemon
  **auto-requeues** that file — completed jobs come straight back from
  the cache, so resume never repeats committed work;
- the janitor runs ``repro doctor`` repairs under the store's
  :class:`~repro.service.locking.DirectoryLock` on a timer, so cache
  hygiene no longer waits for an operator.

The daemon's state machine (:meth:`submit` / :meth:`status` /
:meth:`result` / :meth:`cancel` / :meth:`healthz`) is plain synchronous
code guarded by one lock, callable directly from tests without HTTP.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import re
import signal as signal_module
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ConfigError, ServiceError
from repro.observability.metrics import get_registry
from repro.observability.trace import Tracer, activate, active_tracer, span
from repro.resilience import faultinject
from repro.serve.queueing import FairQueue, QuotaExceeded
from repro.service.doctor import diagnose
from repro.service.engine import MappingEngine
from repro.service.executor import ExecutorConfig
from repro.service.jobs import (
    JobResult,
    JobRuntime,
    MappingJob,
    mapping_job_from_payload,
)
from repro.service.store import atomic_write_json
from repro.utils.logconf import get_logger

__all__ = [
    "READY_NAME",
    "DEFAULT_TENANT",
    "DaemonConfig",
    "JobRecord",
    "MappingDaemon",
    "result_doc",
]

log = get_logger("serve.daemon")

#: Discovery file written under the cache root while the daemon is up.
READY_NAME = "serve.json"

#: Tenant used when a submission names none.
DEFAULT_TENANT = "default"

#: Directory under the cache root holding the span log.
TELEMETRY_DIR = "telemetry"

#: Seconds a client refused at its tenant quota should wait before
#: resubmitting.
RETRY_AFTER_SECONDS = 10.0

#: Characters allowed in the tenant segment of a metric name.
_TENANT_UNSAFE = re.compile(r"[^0-9A-Za-z_\-]")

# Job states. Terminal: DONE / FAILED / CANCELLED / DRAINED.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
DRAINED = "drained"


@dataclass(frozen=True)
class DaemonConfig:
    """Everything ``repro serve`` can tune.

    ``executor_config`` is the engine's
    :class:`~repro.service.executor.ExecutorConfig`.
    """

    cache_dir: str
    host: str = "127.0.0.1"
    port: int = 0
    executor_config: ExecutorConfig = field(default_factory=ExecutorConfig)
    batch_size: int = 4
    tenant_quota: int = 64
    janitor_interval: float = 300.0
    checkpoint_dir: str | None = None
    #: Stream the daemon's own spans to ``<cache>/telemetry/spans.jsonl``
    #: with bounded in-memory retention (off by default: the tracer
    #: global is process-wide and embedding hosts may own it).
    span_log: bool = False

    def __post_init__(self):
        if not self.cache_dir:
            raise ConfigError("the daemon needs a cache directory: its "
                              "store is the job results' home and the "
                              "drain/resume substrate")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.janitor_interval < 0:
            raise ConfigError("janitor_interval must be >= 0 (0 disables)")


@dataclass
class JobRecord:
    """One submitted job's lifecycle, as the API reports it."""

    key: str
    job: MappingJob
    tenant: str
    state: str
    requested_deadline: float | None = None
    submitted_unix: float = 0.0
    started_unix: float | None = None
    finished_unix: float | None = None
    wait_seconds: float | None = None
    wall_seconds: float | None = None
    from_cache: bool = False
    degraded: bool = False
    requeued: bool = False
    error: str | None = None
    mcl: float | None = None
    #: Full result payload kept in memory only when the store cannot
    #: serve it back (degraded results are never cached).
    result_payload: dict | None = None

    def to_dict(self) -> dict:
        return {
            "id": self.key,
            "describe": self.job.describe(),
            "tenant": self.tenant,
            "state": self.state,
            "requested_deadline_seconds": self.requested_deadline,
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "wait_seconds": self.wait_seconds,
            "wall_seconds": self.wall_seconds,
            "from_cache": self.from_cache,
            "degraded": self.degraded,
            "requeued": self.requeued,
            "error": self.error,
            "mcl": self.mcl,
        }


def result_doc(result: JobResult) -> dict:
    """Serialize a :class:`JobResult` back into a JSON result payload.

    Needed for results the store will not serve: the engine deliberately
    never caches degraded mappings, but the daemon still owes the
    submitting client its bytes.
    """
    from repro.mapping.serialize import mapping_to_dict, report_to_dict

    doc = {
        "key": result.key,
        "mapper_name": result.mapper_name,
        "map_seconds": result.map_seconds,
        "mapping": mapping_to_dict(result.mapping),
        "report": report_to_dict(result.report),
        "degradation": list(result.degradation or []),
        "degraded": bool(result.degraded),
        "phase_seconds": dict(result.phase_seconds or {}),
    }
    if result.iter_comm_seconds is not None:
        doc["iter_comm_seconds"] = result.iter_comm_seconds
        doc["iterations"] = result.iterations
    return doc


class MappingDaemon:
    """Async daemon over the durable engine; see the module docstring.

    Run it with :meth:`run` (blocking, installs signal handlers when on
    the main thread) or drive :meth:`serve_forever` from an existing
    event loop. :attr:`ready` is set once the HTTP endpoint accepts
    connections and :attr:`url` is known.
    """

    def __init__(self, config: DaemonConfig):
        self.config = config
        self.engine = MappingEngine(cache_dir=config.cache_dir,
                                    executor_config=config.executor_config)
        self.queue = FairQueue(quota=config.tenant_quota)
        self.records: dict[str, JobRecord] = {}
        self.draining = False
        self.url: str | None = None
        self.ready = threading.Event()
        self.started_unix = time.time()
        self._lock = threading.RLock()
        self._carry: str | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wake: asyncio.Event | None = None
        self._stopping: asyncio.Event | None = None
        self._registry = get_registry()
        self._tracer: Tracer | None = None

    # ================= per-tenant instruments =====================================
    @staticmethod
    def _tenant_metric(tenant: str, suffix: str) -> str:
        """Per-tenant instrument name; the tenant made metric-name-safe."""
        label = _TENANT_UNSAFE.sub("_", tenant) or "_"
        return f"serve.tenant.{label}.{suffix}"

    # ================= state-machine API (HTTP-independent) =======================
    def submit(self, doc: dict) -> tuple[int, dict]:
        """Submit a job document; returns ``(http_status, body)``.

        ``doc`` carries ``spec`` (a :meth:`MappingJob.payload` object),
        optional ``tenant`` and optional ``deadline_seconds``.
        """
        with span("serve.submit"):
            self._registry.counter("serve.submitted").inc()
            try:
                spec = doc.get("spec")
                if not isinstance(spec, dict):
                    raise ServiceError("submission has no 'spec' object")
                job = mapping_job_from_payload(spec)
            except ServiceError as exc:
                self._registry.counter("serve.bad_requests").inc()
                return 400, {"error": str(exc)}
            tenant = str(doc.get("tenant") or DEFAULT_TENANT)
            deadline = doc.get("deadline_seconds")
            if deadline is not None:
                try:
                    deadline = float(deadline)
                except (TypeError, ValueError):
                    return 400, {"error": "deadline_seconds must be a number"}
                if deadline <= 0:
                    return 400, {"error": "deadline_seconds must be > 0"}
            return self._register(job, tenant, deadline)

    def _register(self, job: MappingJob, tenant: str,
                  deadline: float | None, force: bool = False,
                  requeued: bool = False) -> tuple[int, dict]:
        key = job.cache_key()
        self._registry.counter(
            self._tenant_metric(tenant, "submitted")).inc()
        with self._lock:
            record = self.records.get(key)
            if record is not None:
                # Idempotent resubmit: the id *is* the content hash, so
                # an identical spec joins the in-flight (or finished)
                # job instead of executing the mapper twice.
                self._registry.counter("serve.dedup_joins").inc()
                return 200, record.to_dict()
            if self.draining and not force:
                return 503, {"error": "daemon is draining; resubmit "
                                      "after restart (completed jobs "
                                      "will hit the cache)",
                             "retry_after_seconds": 2.0}
            payload = self.engine.store.get(key)
            if payload is not None:
                # The engine's cache-hit contract, honoured at submit
                # time: a stored result means done immediately, zero
                # mapping work, wall_seconds 0.0.
                now = time.time()
                record = JobRecord(
                    key=key, job=job, tenant=tenant, state=DONE,
                    requested_deadline=deadline, submitted_unix=now,
                    started_unix=now, finished_unix=now,
                    wait_seconds=0.0, wall_seconds=0.0, from_cache=True,
                    requeued=requeued,
                    mcl=self._payload_mcl(payload),
                )
                self.records[key] = record
                self._registry.counter("serve.cache_hits").inc()
                self._registry.gauge("engine.cache_hit_saved_seconds").add(
                    float(payload.get("map_seconds", 0.0)))
                self._registry.counter(
                    self._tenant_metric(tenant, "completed")).inc()
                self._registry.histogram(
                    self._tenant_metric(tenant, "e2e_seconds")).record(0.0)
                return 200, record.to_dict()
            try:
                # A mapper that cannot be built would only fail in the
                # pool, after a retry: refuse the spec here instead.
                job.mapper.build(job.topology.build())
            except (ConfigError, TypeError) as exc:
                self._registry.counter("serve.bad_requests").inc()
                return 400, {"error": f"unbuildable mapper: {exc}"}
            try:
                faultinject.inject("serve-enqueue")
                self.queue.push(tenant, key, force=force)
            except QuotaExceeded as exc:
                self._registry.counter("serve.quota_rejected").inc()
                self._registry.counter(
                    self._tenant_metric(tenant, "rejected")).inc()
                # Retry-After rides both the body and (via HttpApi) the
                # header.
                return 429, {"error": str(exc),
                             "retry_after_seconds": RETRY_AFTER_SECONDS}
            except Exception as exc:
                log.error("enqueue failed for %s: %s", key[:12], exc)
                return 500, {"error": f"enqueue failed: {exc}"}
            record = JobRecord(
                key=key, job=job, tenant=tenant, state=QUEUED,
                requested_deadline=deadline,
                submitted_unix=time.time(), requeued=requeued,
            )
            self.records[key] = record
            self._registry.gauge("serve.queue_depth").set(self.queue.depth())
        self._wake_scheduler()
        log.info("accepted [%s] %s tenant=%s deadline=%s",
                 key[:12], job.describe(), tenant, deadline)
        return 202, record.to_dict()

    @staticmethod
    def _payload_mcl(payload: dict) -> float | None:
        report = payload.get("report")
        if isinstance(report, dict):
            try:
                return float(report["mcl"])
            except (KeyError, TypeError, ValueError):
                return None
        return None

    def status(self, key: str) -> tuple[int, dict]:
        with self._lock:
            record = self.records.get(key)
            if record is None:
                return 404, {"error": f"unknown job {key!r}"}
            return 200, record.to_dict()

    def result(self, key: str) -> tuple[int, dict]:
        with self._lock:
            record = self.records.get(key)
            if record is None:
                return 404, {"error": f"unknown job {key!r}"}
            if record.state in (QUEUED, RUNNING):
                return 409, {"error": f"job is {record.state}; poll "
                                      "status until done",
                             "state": record.state}
            if record.state != DONE:
                return 409, {"error": record.error
                             or f"job is {record.state}",
                             "state": record.state}
            if record.result_payload is not None:
                return 200, record.result_payload
            payload = self.engine.store.get(key)
        if payload is None:
            return 410, {"error": "result no longer in the store "
                                  "(evicted or quarantined); resubmit"}
        return 200, payload

    def cancel(self, key: str) -> tuple[int, dict]:
        with self._lock:
            record = self.records.get(key)
            if record is None:
                return 404, {"error": f"unknown job {key!r}"}
            if record.state == CANCELLED:
                return 200, record.to_dict()
            if record.state != QUEUED:
                return 409, {"error": f"job is {record.state}; only "
                                      "queued jobs can be cancelled",
                             "state": record.state}
            self.queue.remove(lambda k: k == key)
            if self._carry == key:
                self._carry = None
            record.state = CANCELLED
            record.finished_unix = time.time()
            record.error = "cancelled by client"
            self._registry.counter("serve.cancelled").inc()
            self._registry.gauge("serve.queue_depth").set(self.queue.depth())
            return 200, record.to_dict()

    def healthz(self) -> tuple[int, dict]:
        with self._lock:
            by_state: dict[str, int] = {}
            for record in self.records.values():
                by_state[record.state] = by_state.get(record.state, 0) + 1
        wait = self._registry.histogram("serve.wait_seconds")
        doc = {
            "status": "draining" if self.draining else "ok",
            "pid": os.getpid(),
            "uptime_seconds": time.time() - self.started_unix,
            "jobs": by_state,
            "queue": self.queue.snapshot(),
            "wait_seconds": {"p50": wait.quantile(0.5),
                             "p95": wait.quantile(0.95)},
            "engine": self.engine.stats.as_dict(),
            "store": self.engine.store.stats.as_dict(),
        }
        return 200, doc

    def metrics(self) -> tuple[int, dict]:
        """The process registry's snapshot."""
        return 200, self._registry.snapshot()

    # ================= scheduler ===================================================
    def _next_key(self) -> str | None:
        if self._carry is not None:
            key, self._carry = self._carry, None
            return key
        return self.queue.pop()

    def _take_batch(self) -> list[JobRecord]:
        """Claim up to ``batch_size`` queued jobs sharing one runtime.

        Jobs in one engine batch share a :class:`JobRuntime`, so a job
        whose requested deadline differs from the batch head's is carried
        over as the head of the next batch — order is preserved, and no
        job ever runs under another job's budget.
        """
        with self._lock:
            batch: list[JobRecord] = []
            while len(batch) < self.config.batch_size:
                key = self._next_key()
                if key is None:
                    break
                record = self.records.get(key)
                if record is None or record.state != QUEUED:
                    continue  # cancelled while queued
                if (batch and record.requested_deadline
                        != batch[0].requested_deadline):
                    self._carry = key
                    break
                now = time.time()
                record.state = RUNNING
                record.started_unix = now
                record.wait_seconds = now - record.submitted_unix
                self._registry.histogram("serve.wait_seconds").record(
                    record.wait_seconds)
                self._registry.histogram(
                    self._tenant_metric(record.tenant, "queue_wait_seconds")
                ).record(record.wait_seconds)
                batch.append(record)
            self._registry.gauge("serve.queue_depth").set(self.queue.depth())
            return batch

    def _runtime_for(self, deadline: float | None) -> JobRuntime | None:
        kwargs: dict = {}
        if deadline is not None:
            kwargs.update(deadline_seconds=deadline)
        if self.config.checkpoint_dir is not None:
            kwargs.update(checkpoint_dir=self.config.checkpoint_dir,
                          resume=True)
        return JobRuntime(**kwargs) if kwargs else None

    def _run_batch(self, batch: list[JobRecord]) -> None:
        """Worker-thread body: one engine batch plus bookkeeping."""
        self.engine.runtime = self._runtime_for(batch[0].requested_deadline)
        with span("serve.batch", jobs=len(batch)):
            outcomes = self.engine.run([r.job for r in batch])
        now = time.time()
        with self._lock:
            for record, outcome in zip(batch, outcomes):
                record.finished_unix = now
                record.wall_seconds = outcome.wall_seconds
                if outcome.ok:
                    result = outcome.result
                    record.state = DONE
                    record.from_cache = result.from_cache
                    record.degraded = result.degraded
                    record.mcl = result.report.mcl
                    if result.degraded:
                        # The engine never caches degraded mappings;
                        # keep the bytes so GET result still answers.
                        record.result_payload = result_doc(result)
                    self._registry.counter("serve.completed").inc()
                    self._registry.counter(
                        self._tenant_metric(record.tenant, "completed")).inc()
                    self._registry.histogram(
                        self._tenant_metric(record.tenant, "e2e_seconds")
                    ).record(now - record.submitted_unix)
                elif outcome.drained:
                    record.state = DRAINED
                    record.error = outcome.error
                    self._registry.counter("serve.drained").inc()
                else:
                    record.state = FAILED
                    record.error = outcome.error
                    self._registry.counter("serve.failed").inc()
                    self._registry.counter(
                        self._tenant_metric(record.tenant, "failed")).inc()
                self.queue.charge(record.tenant, outcome.wall_seconds)
                log.info("finished [%s] %s state=%s wall=%.3fs",
                         record.key[:12], record.job.describe(),
                         record.state, outcome.wall_seconds)

    async def _scheduler(self) -> None:
        while not self.draining:
            batch = self._take_batch()
            if not batch:
                self._wake.clear()
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(self._wake.wait(), timeout=0.5)
                continue
            await asyncio.to_thread(self._run_batch, batch)
        log.info("scheduler stopped (draining)")

    def _wake_scheduler(self) -> None:
        loop = self._loop
        if loop is not None and self._wake is not None:
            loop.call_soon_threadsafe(self._wake.set)

    # ================= janitor =====================================================
    def _run_janitor(self) -> None:
        self._registry.counter("serve.janitor_runs").inc()
        try:
            report = diagnose(self.config.cache_dir, repair=True)
        except Exception as exc:
            self._registry.counter("serve.janitor_errors").inc()
            log.warning("janitor sweep failed: %s", exc)
            return
        problems = report.problems
        if problems:
            self._registry.counter("serve.janitor_repairs").inc(len(problems))
            log.warning("janitor repaired %d finding(s): %s", len(problems),
                        "; ".join(f"{f.kind}:{f.path}" for f in problems))

    async def _janitor(self) -> None:
        """Maintenance loop: a doctor sweep every ``janitor_interval``."""
        while not self.draining:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._stopping.wait(),
                                       timeout=self.config.janitor_interval)
                return
            await asyncio.to_thread(self._run_janitor)

    # ================= drain / resume ==============================================
    def _requeue_drained(self) -> None:
        """Requeue the drained jobs a previous daemon left behind."""
        store = self.engine.store
        doc = store.read_pending()
        if doc is None:
            return
        requeued = 0
        for entry in doc.get("jobs", []):
            spec = entry.get("spec")
            if not isinstance(spec, dict):
                log.warning("pending entry without a spec: %s",
                            entry.get("key"))
                continue
            try:
                job = mapping_job_from_payload(spec)
            except ServiceError as exc:
                log.warning("cannot requeue pending job %s: %s",
                            entry.get("key"), exc)
                continue
            # Already accepted before the restart: requeue must never
            # bounce on the tenant quota.
            code, _ = self._register(
                job, str(entry.get("tenant") or DEFAULT_TENANT),
                entry.get("deadline_seconds"), force=True, requeued=True,
            )
            if code in (200, 202):
                requeued += 1
        store.clear_pending()
        self._registry.counter("serve.requeued").inc(requeued)
        log.warning("requeued %d pending job(s) from the drained batch "
                    "(completed jobs resume free from the cache)", requeued)

    def _persist_pending_state(self) -> None:
        """On shutdown, record everything that never ran.

        Extends the engine's drained-batch receipt with the jobs that
        were still queued daemon-side (the engine only ever sees the
        batches it was handed).
        """
        store = self.engine.store
        with self._lock:
            leftover = [r for r in self.records.values()
                        if r.state in (QUEUED, DRAINED)]
            for record in leftover:
                if record.state == QUEUED:
                    record.state = DRAINED
                    record.error = ("drained: daemon shut down before "
                                    "this job started")
        if not leftover:
            store.clear_pending()
            return
        leftover.sort(key=lambda r: r.submitted_unix)
        try:
            store.write_pending([
                {
                    "index": i,
                    "key": record.key,
                    "describe": record.job.describe(),
                    "spec": record.job.payload(),
                    "error": record.error,
                    "tenant": record.tenant,
                    "deadline_seconds": record.requested_deadline,
                }
                for i, record in enumerate(leftover)
            ])
        except OSError as exc:  # pragma: no cover - disk full
            log.warning("could not persist pending queue: %s", exc)
            return
        log.warning("drained: %d job(s) saved to %s for the next daemon "
                    "to requeue", len(leftover), store.pending_path)

    def _begin_shutdown(self, reason: str) -> None:
        if self.draining:
            return
        log.warning("shutting down: %s", reason)
        self.draining = True
        self._registry.counter("serve.shutdowns").inc()
        self.engine.executor.request_drain(reason)
        if self._wake is not None:
            self._wake.set()
        if self._stopping is not None:
            self._stopping.set()

    def stop(self, reason: str = "stop requested") -> None:
        """Thread-safe shutdown trigger (tests, embedding hosts)."""
        loop = self._loop
        if loop is None:
            self._begin_shutdown(reason)
            return
        try:
            loop.call_soon_threadsafe(self._begin_shutdown, reason)
        except RuntimeError:
            # Loop already closed: the daemon has exited; nothing to do.
            pass

    # ================= lifecycle ===================================================
    async def serve_forever(self) -> int:
        from repro.serve.http import HttpApi

        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._stopping = asyncio.Event()
        span_scope = contextlib.ExitStack()
        if self.config.span_log and active_tracer() is None:
            # Stream the daemon's own batch spans to disk with bounded
            # in-memory retention. Only when nothing else owns the
            # process-wide tracer: an embedding host's (or test's)
            # activation always wins.
            self._tracer = Tracer(
                run_id=f"serve-{os.getpid()}",
                sink=(self.engine.store.root / TELEMETRY_DIR
                      / "spans.jsonl"),
                max_roots=64,
            )
            span_scope.enter_context(activate(self._tracer))
        for sig in ("SIGTERM", "SIGINT"):
            signum = getattr(signal_module, sig, None)
            if signum is None:
                continue
            try:
                self._loop.add_signal_handler(
                    signum, self._begin_shutdown, f"received {sig}")
            except (NotImplementedError, RuntimeError, ValueError):
                # Not on the main thread (tests) or unsupported platform;
                # stop() remains available.
                pass
        self._requeue_drained()
        api = HttpApi(self)
        server = await asyncio.start_server(
            api.handle, host=self.config.host, port=self.config.port)
        host, port = server.sockets[0].getsockname()[:2]
        self.url = f"http://{host}:{port}"
        ready_path = self.engine.store.root / READY_NAME
        atomic_write_json(ready_path, {
            "kind": "serve_ready",
            "schema": 1,
            "url": self.url,
            "host": host,
            "port": port,
            "pid": os.getpid(),
            "started_unix": self.started_unix,
        })
        scheduler = asyncio.create_task(self._scheduler())
        janitor = (asyncio.create_task(self._janitor())
                   if self.config.janitor_interval > 0 else None)
        log.warning("repro serve listening on %s (cache %s, %r)",
                    self.url, self.config.cache_dir,
                    self.config.executor_config)
        self.ready.set()
        try:
            await self._stopping.wait()
        finally:
            server.close()
            await server.wait_closed()
            await scheduler
            # Join the pool's workers.
            await asyncio.to_thread(self.engine.close)
            if janitor is not None:
                janitor.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await janitor
            self._persist_pending_state()
            span_scope.close()
            with contextlib.suppress(FileNotFoundError, OSError):
                ready_path.unlink()
            log.warning("repro serve exited cleanly")
        return 0

    def run(self) -> int:
        """Blocking entry point for the CLI."""
        return asyncio.run(self.serve_forever())
