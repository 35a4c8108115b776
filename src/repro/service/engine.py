"""The mapping-job engine: content-addressed cache + batch executor.

:class:`MappingEngine` is the façade every traffic path goes through
(CLI ``map``/``compare``, the experiment runner, ``report_all``):

1. each submitted :class:`~repro.service.jobs.MappingJob` is looked up in
   the :class:`~repro.service.store.ResultStore` by its content hash;
2. misses fan out over the :class:`~repro.service.executor.BatchExecutor`
   (process pool, per-job timeout, bounded retries);
3. fresh results are persisted back to the store, so identical jobs —
   across commands, sessions and scales that share cells — are never
   solved twice.

Per-job telemetry (queued / started / finished, wall seconds, cache
hits) is emitted through :mod:`repro.utils.logconf` under
``repro.service.engine`` and aggregated in :class:`EngineStats`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

from repro.errors import ServiceError
from repro.observability.metrics import get_registry
from repro.observability.trace import active_tracer, event as trace_event, span
from repro.service.executor import BatchExecutor, ExecutorConfig, JobOutcome
from repro.service.jobs import (
    JobResult,
    JobRuntime,
    MappingJob,
    execute_mapping_job,
)
from repro.service.store import ResultStore
from repro.utils.logconf import get_logger

__all__ = ["EngineStats", "MappingEngine"]

log = get_logger("service.engine")


@dataclass
class EngineStats:
    """Aggregate counters over every batch this engine has run.

    Every bump is mirrored into the process-wide metrics registry
    (``engine.submitted`` etc.), so registry snapshots cover engine
    traffic without consumers having to hold an engine reference.
    """

    submitted: int = 0
    cache_hits: int = 0
    executed: int = 0
    failed: int = 0
    timed_out: int = 0
    retried: int = 0
    degraded: int = 0
    quarantined: int = 0
    poison_jobs: int = 0
    circuit_open: int = 0
    stale_locks_taken: int = 0
    drained: int = 0

    def bump(self, field_name: str, n: int = 1) -> None:
        if n <= 0:
            return
        setattr(self, field_name, getattr(self, field_name) + n)
        get_registry().counter(f"engine.{field_name}").inc(n)

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "failed": self.failed,
            "timed_out": self.timed_out,
            "retried": self.retried,
            "degraded": self.degraded,
            "quarantined": self.quarantined,
            "poison_jobs": self.poison_jobs,
            "circuit_open": self.circuit_open,
            "stale_locks_taken": self.stale_locks_taken,
            "drained": self.drained,
        }


class MappingEngine:
    """Compose store + executor into the one entry point for mapping work.

    Parameters
    ----------
    cache_dir:
        Root of the content-addressed store; ``None`` disables caching.
    runtime:
        Optional :class:`~repro.service.jobs.JobRuntime` resilience
        policy (deadline, degradation, checkpoint/resume) applied to
        every executed job. Never part of the cache key.
    executor_config:
        How misses run on the :class:`BatchExecutor`, whose pool of
        workers lives until :meth:`close`. The default,
        ``ExecutorConfig()``, runs one job at a time, in this process
        when run from the main thread.
    """

    def __init__(
        self,
        cache_dir=None,
        runtime: JobRuntime | None = None,
        executor_config: ExecutorConfig | None = None,
    ):
        self.store = None if cache_dir is None else ResultStore(cache_dir)
        self.runtime = runtime
        self.executor = BatchExecutor(executor_config or ExecutorConfig(),
                                      on_event=self._on_executor_event)
        self.stats = EngineStats()

    def close(self) -> None:
        """Stop the executor's worker processes (the next batch starts
        new ones)."""
        self.executor.close()

    # -- telemetry ------------------------------------------------------------------
    def _on_executor_event(self, event: str, info: dict) -> None:
        job = info.get("item")
        label = job.describe() if isinstance(job, MappingJob) else job
        if event == "queued":
            log.debug("queued [%s] %s", info["index"], label)
        elif event == "started":
            if info.get("attempt", 1) > 1:
                self.stats.bump("retried")
            log.info("started [%s] %s (attempt %d)",
                     info["index"], label, info["attempt"])
        elif event == "finished":
            log.info(
                "finished [%s] %s in %.3fs attempts=%d cache_hit=False "
                "error=%s", info["index"], label, info["wall_seconds"],
                info["attempts"], info["error"],
            )
        elif event == "poisoned":
            self.stats.bump("poison_jobs")
            trace_event("engine.poison_job", index=info["index"],
                        deaths=info.get("deaths"))
            log.error("poison job [%s] %s quarantined after %s worker "
                      "death(s)", info["index"], label, info.get("deaths"))
            if self.store is not None and isinstance(job, MappingJob):
                # Serialize the killer's full spec for postmortem; the
                # stem carries the cache key so `repro doctor` and a
                # human can tie the report back to the job.
                key = job.cache_key()
                try:
                    self.store.write_quarantine_report(
                        f"poison-{key[:16]}",
                        {
                            "kind": "poison_job",
                            "schema": 1,
                            "key": key,
                            "job": job.payload(),
                            "describe": job.describe(),
                            "deaths": info.get("deaths"),
                            "error": info.get("error"),
                            "time_unix": time.time(),
                        },
                    )
                except OSError as exc:  # pragma: no cover - disk full
                    log.warning("could not write poison-job report: %s", exc)
        elif event == "circuit_open":
            self.stats.bump("circuit_open")
            trace_event("engine.circuit_open",
                        failures=info.get("failures"))
            log.error("executor circuit breaker opened after %s "
                      "consecutive pool failures", info.get("failures"))
        elif event == "pool_rebuild":
            log.warning("executor rebuilt its worker pool "
                        "(rebuild #%s): %s", info.get("rebuilds"),
                        info.get("error"))
        elif event == "drain_requested":
            log.warning("engine draining: %s", info.get("reason"))

    # -- execution ------------------------------------------------------------------
    def run(self, jobs: Sequence[MappingJob]) -> list[JobOutcome]:
        """Run a batch; outcomes align positionally with ``jobs``.

        Successful outcomes carry a :class:`JobResult` in ``.result``
        (``from_cache`` set on store hits); failures carry ``.error``.
        """
        jobs = list(jobs)
        outcomes: list[JobOutcome | None] = [None] * len(jobs)
        miss_indices: list[int] = []
        t0 = time.perf_counter()
        tracer = active_tracer()
        registry = get_registry()
        store_before = (
            (self.store.stats.quarantined, self.store.stats.stale_locks_taken)
            if self.store is not None else (0, 0)
        )
        with span("engine.batch", jobs=len(jobs)) as batch_span:
            for i, job in enumerate(jobs):
                self.stats.bump("submitted")
                key = job.cache_key()
                log.debug("queued [%d] %s key=%s", i, job.describe(), key[:12])
                payload = self.store.get(key) if self.store is not None else None
                if payload is not None:
                    self.stats.bump("cache_hits")
                    # A hit skips the mapper entirely: the saved-time gauge
                    # accumulates the original run's map_seconds, and the
                    # outcome reports wall_seconds=0.0 explicitly — the hit
                    # itself did no mapping work.
                    registry.gauge("engine.cache_hit_saved_seconds").add(
                        float(payload.get("map_seconds", 0.0))
                    )
                    trace_event("engine.cache_hit", index=i, key=key[:12],
                                saved_s=float(payload.get("map_seconds", 0.0)))
                    result = JobResult.from_payload(payload, from_cache=True)
                    outcomes[i] = JobOutcome(
                        index=i, item=job, result=result, error=None,
                        attempts=0, wall_seconds=0.0,
                    )
                    log.info("finished [%d] %s in 0.000s attempts=0 "
                             "cache_hit=True error=None", i, job.describe())
                else:
                    miss_indices.append(i)
            if miss_indices:
                runtime = self.runtime
                if tracer is not None:
                    # An active tracer means the caller wants this batch
                    # traced; pooled workers then record locally and ship
                    # their span trees back for grafting.
                    runtime = (replace(runtime, trace=True)
                               if runtime is not None else JobRuntime(trace=True))
                body = execute_mapping_job
                if runtime is not None and runtime.active:
                    body = partial(execute_mapping_job, runtime=runtime)
                raw = self.executor.run(body, [jobs[i] for i in miss_indices])
                for outcome, i in zip(raw, miss_indices):
                    job = jobs[i]
                    if outcome.ok:
                        payload = outcome.result
                        # Worker span trees never reach the store: traces
                        # are timing-nondeterministic and would bloat the
                        # content-addressed artifacts.
                        trace_docs = payload.pop("trace", None)
                        if trace_docs and tracer is not None:
                            tracer.graft(trace_docs, job_index=i,
                                         job_key=payload["key"][:12])
                        degraded = bool(payload.get("degraded"))
                        if degraded:
                            self.stats.bump("degraded")
                            log.warning(
                                "job [%d] %s degraded: %s", i, job.describe(),
                                "; ".join(
                                    f"{e.get('phase')} {e.get('action')} "
                                    f"({e.get('reason')})"
                                    for e in payload.get("degradation", [])
                                ) or "unknown",
                            )
                        if self.store is not None and not degraded:
                            # A degraded mapping is valid but below the
                            # mapper's quality bar — caching it would pin the
                            # deadline's collateral damage into every future
                            # run of this job.
                            self._store_put(payload["key"], payload)
                        self.stats.bump("executed")
                        result = JobResult.from_payload(payload)
                    else:
                        self.stats.bump("failed")
                        if outcome.timed_out:
                            self.stats.bump("timed_out")
                        if outcome.drained:
                            self.stats.bump("drained")
                        result = None
                    outcomes[i] = JobOutcome(
                        index=i, item=job, result=result, error=outcome.error,
                        attempts=outcome.attempts,
                        wall_seconds=outcome.wall_seconds,
                        timed_out=outcome.timed_out,
                        poisoned=outcome.poisoned,
                        drained=outcome.drained,
                    )
            self._persist_pending(jobs, outcomes)
            done = [o for o in outcomes if o is not None]
            batch_span.set(
                cached=sum(1 for o in done if o.attempts == 0),
                executed=sum(1 for o in done if o.ok and o.attempts > 0),
                failed=sum(1 for o in done if not o.ok),
            )
        if self.store is not None:
            # Fold store-level durability incidents that surfaced during
            # this batch into the engine's own counters: one snapshot
            # answers "did anything get quarantined / any locks stolen?".
            self.stats.bump("quarantined",
                            self.store.stats.quarantined - store_before[0])
            self.stats.bump(
                "stale_locks_taken",
                self.store.stats.stale_locks_taken - store_before[1])
        log.info(
            "batch of %d done in %.3fs: %d cached, %d executed, %d failed",
            len(jobs), time.perf_counter() - t0,
            sum(1 for o in done if o.attempts == 0),
            sum(1 for o in done if o.ok and o.attempts > 0),
            sum(1 for o in done if not o.ok),
        )
        return outcomes  # type: ignore[return-value]

    def _store_put(self, key: str, payload: dict) -> None:
        """Persist a result, tolerating storage failure.

        A full disk (or an injected ``store-enospc``) costs the cache
        entry, never the computed mapping: the commit protocol already
        cleaned up its temp file and counted a ``put_failure``.
        """
        try:
            self.store.put(key, payload)
        except (OSError, ServiceError) as exc:
            log.warning("could not cache result %s (%s); "
                        "returning it uncached", key[:12], exc)

    def _persist_pending(self, jobs: Sequence[MappingJob],
                         outcomes: Sequence[JobOutcome | None]) -> None:
        """Record drained (never-ran) jobs for a warm resume.

        A drained batch leaves ``<cache>/pending.json`` describing every
        job that was abandoned mid-shutdown; a clean batch removes it.
        Resubmitting the same batch resumes for free anyway (completed
        jobs hit the cache), so this file is the operator-facing receipt
        plus the machine-readable queue, not the resume mechanism itself.
        """
        if self.store is None:
            return
        drained = [o for o in outcomes
                   if o is not None and o.drained]
        if not drained:
            try:
                self.store.clear_pending()
            except OSError:  # pragma: no cover - permissions
                pass
            return
        try:
            pending_path = self.store.write_pending([
                {
                    "index": o.index,
                    "key": jobs[o.index].cache_key(),
                    "describe": jobs[o.index].describe(),
                    "spec": jobs[o.index].payload(),
                    "error": o.error,
                }
                for o in drained
            ])
        except OSError as exc:  # pragma: no cover - disk full
            log.warning("could not persist pending queue: %s", exc)
            return
        log.warning(
            "drained batch: %d job(s) not run; pending queue saved to %s "
            "(resubmit the batch to resume — completed jobs will hit the "
            "cache)", len(drained), pending_path)

    def run_one(self, job: MappingJob) -> JobResult:
        """Run a single job; raises :class:`ServiceError` on failure."""
        outcome = self.run([job])[0]
        if not outcome.ok:
            raise ServiceError(
                f"mapping job {job.describe()} failed after "
                f"{outcome.attempts} attempt(s): {outcome.error}"
            )
        return outcome.result
