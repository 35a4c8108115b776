"""The fleet coordinator: a `BatchExecutor`-shaped distributed backend.

:class:`DistributedExecutor` implements the same surface the engine
already speaks — ``run(fn, items)`` returning positional
:class:`~repro.service.executor.JobOutcome`\\ s, ``request_drain`` /
``draining``, ``on_event`` telemetry — but instead of a process pool it
posts each :class:`~repro.service.jobs.MappingJob` to the shared board
and lets fleet workers (this host or any host mounting the cache
directory) claim and execute them.

The coordinator's poll loop is the **reaper**: per posted job it watches
for a receipt (done), or a claim whose heartbeat mtime has gone quiet
past its lease — in which case the claim is reclaimed with the
DirectoryLock rename-aside discipline and the entry requeued with
jittered backoff. A store hit decides only a job that has left the
board (no claim, no entry: another coordinator settled it); a job still
claimed or posted ends in a receipt or a reclaim, so no receipt lands
after the settle. Each claim is one ledger attempt and
each reclaim one :meth:`~repro.service.supervision.BatchLedger.charge_death`;
``poison_threshold`` deaths quarantine the spec as a poison job (the
engine's ``"poisoned"`` event handler writes the quarantine report).
Outcomes, events and drain go through the same
:class:`~repro.service.supervision.BatchLedger` and
:class:`~repro.service.supervision.Supervised` plumbing as the process
pool. A failed receipt is final: the fleet does not retry it.

``fn`` is accepted for interface compatibility and ignored: the fleet
always runs :func:`~repro.service.jobs.execute_mapping_job` worker-side
with the runtime the engine assigned to :attr:`runtime` — this backend
is mapping-job specific by design.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import asdict, dataclass

from repro.errors import ConfigError
from repro.distributed.board import BOARD_SCHEMA_VERSION, JobBoard
from repro.observability.metrics import get_registry
from repro.resilience import faultinject
from repro.service.jobs import JobRuntime, MappingJob
from repro.service.store import ResultStore
from repro.service.supervision import (
    BatchLedger,
    JobOutcome,
    Supervised,
    full_jitter_delay,
)
from repro.utils.logconf import get_logger

__all__ = ["DistributedConfig", "DistributedExecutor"]

log = get_logger("distributed.coordinator")

#: Full-jitter backoff cap base (seconds) of a reclaimed job's
#: ``not_before`` requeue window.
RECLAIM_BACKOFF = 0.25
#: Times a vanished board entry is reposted before its job fails.
MAX_REPOSTS = 3
#: Board poll interval (seconds) of spawned workers.
WORKER_POLL = 0.05


@dataclass(frozen=True)
class DistributedConfig:
    """Fleet-execution knobs.

    Attributes
    ----------
    lease_seconds:
        A claim whose heartbeat is older than this is a dead or wedged
        worker; the reaper reclaims it. Workers refresh every quarter
        lease, so the value trades failover latency against tolerance
        for scheduling hiccups (and NFS mtime granularity).
    poll:
        Coordinator reaper poll interval.
    timeout:
        Per-attempt wall-clock budget enforced worker-side (None =
        unlimited).
    poison_threshold:
        Lease deaths attributable to one job before it is quarantined
        as poison instead of requeued (mirrors the process-pool ladder).
    spawn_workers:
        Local worker subprocesses the coordinator launches and
        supervises (0 = external workers only, e.g. ``repro worker``
        on other hosts). Ignored when ``hosts`` is set.
    hosts:
        Multi-host fleet registry: ``HostSpec``\\ s or
        ``"[kind:]name[*slots]"`` strings (``"local*2"``,
        ``"ssh:node7*4"``, ``"slurm:gpu*8"``). Each host gets its own
        spawner (subprocess / SSH transport / ``srun``), its own respawn
        budget of ``max_worker_respawns``, and its label threaded into
        worker registrations, claims, stats, and poison reports. The
        coordinator publishes the host list to ``board/hosts.json`` so
        the doctor can flag registrations from unknown hosts.
    worker_idle_exit:
        Passed to spawned workers; idle-exit keeps abandoned fleets
        from running forever.
    worker_python:
        Interpreter used on remote (ssh/slurm) hosts.
    max_worker_respawns:
        Dead spawned workers revived while work is pending, **per
        host** (a backstop, not a health policy — the reaper already
        recovers their jobs). A single-host fleet keeps the old
        whole-batch semantics.
    cleanup:
        Remove queue entries and receipts for completed jobs whose
        results are in the store (the durable substrate); disable to
        inspect receipts post-run.
    worker_env:
        Extra environment for spawned workers, as ``(name, value)``
        pairs (a dict is accepted and normalized) — how the chaos suite
        arms ``REPRO_FAULTS`` in workers only.
    """

    lease_seconds: float = 10.0
    poll: float = 0.05
    timeout: float | None = None
    poison_threshold: int = 2
    spawn_workers: int = 0
    hosts: tuple = ()
    worker_idle_exit: float | None = 300.0
    worker_python: str = "python3"
    max_worker_respawns: int = 8
    cleanup: bool = True
    worker_env: tuple = ()

    def __post_init__(self):
        if self.lease_seconds <= 0:
            raise ConfigError("lease_seconds must be > 0")
        if self.poll <= 0:
            raise ConfigError("poll must be > 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigError("timeout must be > 0 (or None)")
        if self.poison_threshold < 1:
            raise ConfigError("poison_threshold must be >= 1")
        if self.spawn_workers < 0:
            raise ConfigError("spawn_workers must be >= 0")
        if self.max_worker_respawns < 0:
            raise ConfigError("max_worker_respawns must be >= 0")
        object.__setattr__(
            self, "worker_env",
            tuple(sorted((str(k), str(v))
                         for k, v in dict(self.worker_env).items())),
        )
        if self.hosts:
            from repro.distributed.spawn import HostSpec

            object.__setattr__(
                self, "hosts",
                tuple(HostSpec.parse(spec) for spec in self.hosts),
            )


class _KeyState:
    """Reaper bookkeeping for one distinct job key in a batch."""

    __slots__ = ("indices", "entry", "posted", "reposts", "started", "t0",
                 "lease_seq")

    def __init__(self, indices: list[int], entry: dict, posted: bool):
        self.indices = indices
        self.entry = entry
        self.posted = posted
        self.reposts = 0
        #: The current claim's attempt is on the ledger (reset by a
        #: reclaim, so the next claim is the next attempt).
        self.started = False
        self.t0 = time.perf_counter()
        #: (last seen heartbeat seq, coordinator-monotonic time it was
        #: first seen). The reaper's skew defence: a stale-mtime claim is
        #: only dead once its seq also stops advancing on *our* clock.
        self.lease_seq: tuple[int, float] | None = None


class _HostState:
    """Supervision bookkeeping for one fleet host's spawned workers."""

    __slots__ = ("spec", "spawner", "handles", "respawns")

    def __init__(self, spec, spawner):
        self.spec = spec
        self.spawner = spawner
        self.handles: list = []
        self.respawns = 0


class DistributedExecutor(Supervised):
    """Shard mapping batches across fleet workers via the shared board.

    Drop-in for :class:`~repro.service.executor.BatchExecutor` from the
    engine's point of view; additionally exposes :attr:`runtime` (the
    engine assigns the batch's :class:`JobRuntime` before ``run``) and
    :meth:`snapshot` for health endpoints.
    """

    drain_counter = "fleet.drains"

    def __init__(self, store: ResultStore,
                 config: DistributedConfig | None = None, on_event=None):
        if store is None:
            raise ConfigError(
                "the distributed backend requires a result store (a cache "
                "directory): the store is the coordination substrate"
            )
        super().__init__(on_event)
        self.store = store
        self.config = config or DistributedConfig()
        self.board = JobBoard.under_cache(store.root)
        #: Batch runtime, assigned by the engine before each ``run``.
        self.runtime: JobRuntime | None = None
        self._host_states: list[_HostState] | None = None

    def _on_drain(self) -> None:
        for handle in self._handles:
            handle.terminate()

    # -- spawned-worker supervision --------------------------------------------------
    @property
    def _handles(self) -> list:
        """Every live-or-dead spawned worker handle, across all hosts."""
        if self._host_states is None:
            return []
        return [h for hs in self._host_states for h in hs.handles]

    @property
    def _respawns(self) -> int:
        if self._host_states is None:
            return 0
        return sum(hs.respawns for hs in self._host_states)

    def _ensure_hosts(self) -> list[_HostState]:
        """Build one supervised spawner per configured fleet host.

        ``hosts`` wins; otherwise ``spawn_workers > 0`` becomes one
        implicit local host with that many slots (the PR 7 semantics);
        otherwise the fleet is fully external and the list is empty.
        """
        if self._host_states is not None:
            return self._host_states
        from repro.distributed.spawn import HostSpec, build_spawner

        cfg = self.config
        specs = list(cfg.hosts)
        if not specs and cfg.spawn_workers > 0:
            specs = [HostSpec("local", slots=cfg.spawn_workers,
                              kind="local")]
        self._host_states = [
            _HostState(spec, build_spawner(
                spec, self.store.root,
                poll=WORKER_POLL,
                idle_exit=cfg.worker_idle_exit,
                env=dict(cfg.worker_env),
                python=cfg.worker_python,
            ))
            for spec in specs
        ]
        return self._host_states

    def _maintain_workers(self, initial: bool = False) -> None:
        """Top each fleet host back up to its configured slot count."""
        cfg = self.config
        if self._drain.is_set():
            return
        registry = get_registry()
        alive_total = 0
        for hs in self._ensure_hosts():
            alive = [h for h in hs.handles if h.alive()]
            dead = len(hs.handles) - len(alive)
            hs.handles = alive
            while len(hs.handles) < hs.spec.slots:
                if not initial:
                    if hs.respawns >= cfg.max_worker_respawns:
                        log.error(
                            "host %s: respawn budget (%d) exhausted; "
                            "relying on other hosts, external workers, "
                            "and the reaper", hs.spec.name,
                            cfg.max_worker_respawns)
                        break
                    hs.respawns += 1
                    registry.counter("fleet.worker_respawns").inc()
                    log.warning("host %s: respawning dead fleet worker "
                                "(%d dead, respawn %d/%d)", hs.spec.name,
                                dead, hs.respawns, cfg.max_worker_respawns)
                hs.handles.append(hs.spawner.spawn())
            alive_total += len(hs.handles)
        registry.gauge("fleet.spawned_workers").set(alive_total)

    def stop_workers(self, timeout: float = 5.0) -> None:
        """Terminate every spawned worker (drain hooks, tests, benches)."""
        if self._host_states is not None:
            for hs in self._host_states:
                for handle in hs.handles:
                    handle.stop(timeout=timeout)
                hs.handles = []
        get_registry().gauge("fleet.spawned_workers").set(0)

    def close(self) -> None:
        """:meth:`stop_workers` with the default timeout."""
        self.stop_workers()

    # -- the batch -----------------------------------------------------------------
    def run(self, fn, items) -> list[JobOutcome]:
        """Post ``items`` to the board and reap until all are decided.

        ``fn`` is ignored (see module docstring); items must be
        :class:`MappingJob`\\ s.
        """
        del fn
        ledger = BatchLedger(items, self._emit, self.config.poison_threshold)
        items = ledger.items
        cfg = self.config
        registry = get_registry()

        runtime_doc = None
        if self.runtime is not None and self.runtime.active:
            runtime_doc = asdict(self.runtime)

        key_indices: dict[str, list[int]] = {}
        for i, job in enumerate(items):
            if not isinstance(job, MappingJob):
                raise ConfigError(
                    "the distributed backend executes MappingJobs only; "
                    f"got {type(job).__name__}"
                )
            payload = job.payload()
            if "digest" in payload.get("workload", {}):
                # Content-addressed file workloads cannot be rebuilt on
                # another host from the payload alone; fail fast rather
                # than posting a job no worker can run.
                ledger.finish(i, None, "file-backed workload specs cannot "
                              "run on the distributed backend (content "
                              "digest only, not reconstructible "
                              "worker-side); use the local backend")
                registry.counter("fleet.failed").inc()
                continue
            key_indices.setdefault(job.cache_key(), []).append(i)

        self.board.ensure_dirs()
        if cfg.hosts:
            # Publish the legitimate host list so the doctor can flag
            # registrations from hosts nobody configured. The
            # coordinator's own host is always legitimate (external
            # `repro worker` processes run here too).
            self.board.write_host_registry(
                [spec.name for spec in cfg.hosts]
                + [socket.gethostname(), "local"])
        state: dict[str, _KeyState] = {}
        for key, idxs in key_indices.items():
            job = items[idxs[0]]
            entry = {
                "kind": "fleet_job",
                "schema": BOARD_SCHEMA_VERSION,
                "key": key,
                "spec": job.payload(),
                "describe": job.describe(),
                "runtime": runtime_doc,
                "timeout": cfg.timeout,
                "lease_seconds": cfg.lease_seconds,
                "posted_unix": time.time(),
                "owner": {"host": socket.gethostname(), "pid": os.getpid()},
                "reclaims": 0,
                "not_before": 0.0,
            }
            posted = self.board.post(key, entry)
            if posted:
                registry.counter("fleet.posted").inc()
            else:
                # Another coordinator sharing the cache posted this spec
                # first: join its run instead of competing.
                registry.counter("fleet.dedup_joins").inc()
                entry = self.board.read_entry(key) or entry
            state[key] = _KeyState(idxs, entry, posted)

        self._maintain_workers(initial=True)

        pending = set(state)
        while pending and not self._drain.is_set():
            for key in sorted(pending):
                outcome_info = self._poll_key(key, state[key], ledger)
                if outcome_info is not None:
                    self._settle(ledger, key, state[key], outcome_info)
                    pending.discard(key)
            registry.gauge("fleet.board_depth").set(len(pending))
            registry.gauge("fleet.workers_alive").set(
                self.board.alive_workers())
            self._maintain_workers()
            if pending and self._fleet_dead(pending):
                error = ("fleet dead: every spawned worker exited, the "
                         "respawn budget is exhausted, and no external "
                         "worker is registered or holding a live claim; "
                         "failing the remaining jobs (worker logs under "
                         f"{self.board.workers_dir})")
                log.error("%s", error)
                for key in sorted(pending):
                    registry.counter("fleet.failed").inc()
                    self._settle(ledger, key, state[key],
                                 {"payload": None, "error": error})
                pending.clear()
                break
            if pending and not self._drain.is_set():
                time.sleep(cfg.poll)

        if pending:
            self._drain_pending(ledger, pending, state)
        registry.gauge("fleet.board_depth").set(0)
        return ledger.outcomes  # type: ignore[return-value]

    def _fleet_dead(self, pending: set) -> bool:
        """True when nobody is left who could ever run the pending work.

        Only meaningful for self-spawning coordinators: with
        ``spawn_workers=0`` the operator owns worker lifecycle and the
        coordinator waits indefinitely (workers may register any time).
        A busy worker blocked in a long solve stops refreshing its
        registration but keeps heartbeating its claim, so fresh claims
        also count as signs of life.
        """
        cfg = self.config
        if not cfg.hosts and cfg.spawn_workers <= 0:
            return False
        states = self._host_states or []
        for hs in states:
            if hs.handles and any(h.alive() for h in hs.handles):
                return False
            if hs.respawns < cfg.max_worker_respawns:
                return False
        if self.board.alive_workers() > 0:
            return False
        for key in pending:
            _, age = self.board.claim_info(key)
            # 2x lease matches the skew-tolerant reap horizon: a claim
            # can stay un-reaped that long while its seq is checked, and
            # it is a sign of life for just as long.
            if age is not None and age <= 2.0 * cfg.lease_seconds:
                return False
        return True

    # -- per-key reaper step ---------------------------------------------------------
    def _poll_key(self, key: str, st: _KeyState,
                  ledger: BatchLedger) -> dict | None:
        """One reaper pass over a pending key; non-None = decided."""
        receipt = self.board.read_receipt(key)
        if receipt is not None:
            # A claim we never saw (made and finished between two
            # passes) is still an attempt.
            self._start_attempt(st, ledger)
            return self._decide_from_receipt(key, receipt)

        claim, age = self.board.claim_info(key)
        if age is not None:
            # A held claim ends in its holder's receipt or in a reclaim,
            # never in a store hit: settling (and cleaning up) from the
            # store would let the holder's receipt land after the settle.
            self._start_attempt(st, ledger)
            if ((self._claim_expired(st, claim, age)
                    or faultinject.fires("lease-expire"))
                    and self.board.reclaim(key)
                    and self._on_reclaim(key, st, ledger, claim, age)):
                return {"payload": None,
                        "error": ledger.outcomes[st.indices[0]].error}
            return None

        if self.board.read_entry(key) is not None:
            # Posted and unclaimed. Even with the result already durable
            # (its holder died between store commit and receipt), the
            # requeued attempt is a worker's free cache hit and receipt.
            return None
        registry = get_registry()
        if key in self.store:
            # Off the board with a durable result: another coordinator
            # settled it and cleaned up its entry and receipt.
            payload = self.store.get(key)
            if payload is not None:
                registry.counter("fleet.completed").inc()
                return {"payload": payload, "error": None}

        # Off the board without a result: another coordinator's cleanup
        # or a manual sweep removed the entry before any worker ran it.
        st.reposts += 1
        if st.reposts > MAX_REPOSTS:
            return {
                "payload": None,
                "error": (f"job board entry for {key[:12]} vanished "
                          f"{st.reposts} time(s) without a durable "
                          "result; giving up"),
            }
        registry.counter("fleet.reposts").inc()
        entry = dict(st.entry)
        entry["posted_unix"] = time.time()
        self.board.post(key, entry)
        return None

    def _start_attempt(self, st: _KeyState, ledger: BatchLedger) -> None:
        """Put the current claim on the ledger as one attempt, once."""
        if st.started:
            return
        st.started = True
        get_registry().counter("fleet.claims").inc()
        ledger.start(st.indices[0])

    def _claim_expired(self, st: _KeyState, claim: dict | None,
                       age: float) -> bool:
        """Is this claim dead, or merely on a skewed/slow host?

        A fresh mtime is always alive (and resets the seq watch). A
        stale mtime alone is *not* death: the holder's clock may be
        skewed (mtimes stamped in the past) or its mount slow. The claim
        payload's monotonic heartbeat ``seq`` breaks the tie on the
        coordinator's **own** clock: reclaim only once the seq has also
        been static for a further full lease of our time. Worst-case
        failover doubles to ~2 leases; in exchange, renewal gaps and
        clock skew up to a lease cause zero spurious reclaims.
        (Continuous seq tracking without the mtime gate was considered
        and rejected: it reintroduces spurious reclaims the moment
        renewal latency exceeds the lease.) Legacy claims without a seq
        keep the original mtime-only rule.
        """
        lease = self.config.lease_seconds
        if claim is not None:
            try:
                lease = float(claim.get("lease_seconds") or lease)
            except (TypeError, ValueError):
                pass
        if age <= lease:
            st.lease_seq = None
            return False
        seq = claim.get("seq") if claim is not None else None
        if not isinstance(seq, int):
            return True
        now = time.monotonic()
        prev = st.lease_seq
        if prev is None or prev[0] != seq:
            if prev is not None:
                # Stale mtime but the seq moved: a live worker on a
                # skewed clock or slow mount. Tolerated, observable.
                get_registry().counter("fleet.skew_tolerated").inc()
            st.lease_seq = (seq, now)
            return False
        return now - prev[1] > lease

    def _on_reclaim(self, key: str, st: _KeyState, ledger: BatchLedger,
                    claim: dict | None, age: float) -> bool:
        """This coordinator won the rename-aside race for a dead lease.

        The lease death is charged to the key's lead index on the
        ledger. True once that poisons the job (the ledger emits
        ``poisoned`` and settles the lead); otherwise the entry is
        requeued behind a jittered backoff.
        """
        registry = get_registry()
        registry.counter("fleet.reclaims").inc()
        st.started = False
        st.lease_seq = None
        lead = st.indices[0]
        worker = claim.get("worker") if claim else None
        host = claim.get("host") if claim else None
        holder = f"{worker or '<unparseable claim>'}@{host or '?'}"
        self._emit("reclaimed", index=lead, item=ledger.items[lead],
                   worker=worker, host=host, heartbeat_age=age)
        poisoned = ledger.charge_death(
            lead, f"lease expired on {holder}, heartbeat {age:.2f}s old",
            worker=worker, host=host)
        deaths = ledger.deaths[lead]
        log.warning("reclaimed expired lease on %s from %s (heartbeat "
                    "%.2fs old, lease death %d/%d)", key[:12], holder, age,
                    deaths, self.config.poison_threshold)
        if poisoned:
            registry.counter("fleet.poisoned").inc()
            self.board.remove_entry(key)
            return True
        entry = self.board.read_entry(key) or dict(st.entry)
        entry["reclaims"] = deaths
        entry["not_before"] = time.time() + full_jitter_delay(
            RECLAIM_BACKOFF, deaths, key)
        self.board.rewrite_entry(key, entry)
        st.entry = entry
        return False

    def _decide_from_receipt(self, key: str, receipt: dict) -> dict:
        registry = get_registry()
        error = receipt.get("error")
        if error:
            registry.counter("fleet.failed").inc()
            return {
                "payload": None,
                "error": f"fleet worker {receipt.get('worker')}: {error}",
                "timed_out": bool(receipt.get("timed_out")),
            }
        payload = receipt.get("payload")
        if payload is None:
            payload = self.store.get(key)
        if payload is None:
            registry.counter("fleet.failed").inc()
            return {
                "payload": None,
                "error": (f"worker {receipt.get('worker')} published an ok "
                          f"receipt for {key[:12]} but the result is in "
                          "neither the receipt nor the store"),
            }
        if receipt.get("trace"):
            payload["trace"] = receipt["trace"]
        if receipt.get("executed"):
            registry.counter("fleet.completed").inc()
        else:
            registry.counter("fleet.worker_cache_hits").inc()
        return {"payload": payload, "error": None,
                "worker": receipt.get("worker")}

    # -- settling outcomes -----------------------------------------------------------
    def _settle(self, ledger: BatchLedger, key: str, st: _KeyState,
                info: dict) -> None:
        """Settle every batch index of ``key`` with one outcome: the lead
        index's (already on the ledger when it was poisoned)."""
        lead = st.indices[0]
        ledger.finish(lead, info.get("payload"), info.get("error"),
                      wall_seconds=time.perf_counter() - st.t0,
                      timed_out=bool(info.get("timed_out")),
                      drained=bool(info.get("drained")))
        done = ledger.outcomes[lead]
        for index in st.indices[1:]:
            ledger.finish(index, done.result, done.error,
                          attempts=done.attempts,
                          wall_seconds=done.wall_seconds,
                          timed_out=done.timed_out, poisoned=done.poisoned,
                          drained=done.drained)
        if self.config.cleanup and done.error is None and key in self.store:
            # The store is the durable record; the entry and receipt are
            # scaffolding. Degraded results (never cached) keep their
            # receipt so a second coordinator can still read them.
            self.board.remove_entry(key)
            self.board.remove_receipt(key)

    def _drain_pending(self, ledger: BatchLedger, pending: set,
                       state: dict) -> None:
        for key in sorted(pending):
            st = state[key]
            if st.posted and self.board.claim_info(key)[1] is None:
                # Never claimed: withdraw our own entry so the board
                # doesn't leak work nobody is waiting on. Claimed jobs
                # stay — their workers will still commit to the store.
                self.board.remove_entry(key)
            self._settle(ledger, key, st, {
                "payload": None, "drained": True,
                "error": ("drained: fleet batch shut down before this job "
                          "completed")})

    # -- introspection ---------------------------------------------------------------
    def snapshot(self) -> dict:
        """Fleet health for ``/healthz`` and the doctor."""
        board = self.board.snapshot()
        board["spawned_workers"] = len([h for h in self._handles
                                        if h.alive()])
        board["worker_respawns"] = self._respawns
        board["draining"] = self.draining
        if self._host_states:
            board["hosts"] = {
                hs.spec.name: {
                    "kind": hs.spec.kind,
                    "slots": hs.spec.slots,
                    "alive": len([h for h in hs.handles if h.alive()]),
                    "respawns": hs.respawns,
                    "respawn_budget": self.config.max_worker_respawns,
                }
                for hs in self._host_states
            }
        workers, totals = self._merge_worker_stats()
        board["worker_stats"] = workers
        board["fleet_totals"] = totals
        return board

    def _merge_worker_stats(self) -> tuple[dict, dict]:
        """Merge the board's published worker snapshots into a fleet view.

        Returns ``(per_worker, fleet_totals)``. A worker whose snapshot
        has gone stale (no publish within its own horizon) is reported
        ``alive: False`` but *kept* — the last snapshot of a SIGKILLed
        worker is exactly what explains where the fleet's counters came
        from — and its ``fleet.*`` counters still sum into the totals,
        which is why they survive worker death while the worker
        process's own registry does not.
        """
        workers: dict[str, dict] = {}
        totals: dict[str, float] = {}
        for worker_id, doc, age in self.board.list_worker_stats():
            if not isinstance(doc, dict):
                continue
            try:
                interval = float(doc.get("interval") or 1.0)
            except (TypeError, ValueError):
                interval = 1.0
            workers[worker_id] = {
                "alive": age <= max(10.0 * interval, 10.0),
                "age_seconds": age,
                "host": doc.get("host"),
                "pid": doc.get("pid"),
                "published": doc.get("published"),
                "executed": doc.get("executed"),
                "jobs_per_second": doc.get("jobs_per_second"),
            }
            for name, cell in (doc.get("metrics") or {}).items():
                if (isinstance(cell, dict) and cell.get("type") == "counter"
                        and name.startswith("fleet.")):
                    try:
                        totals[name] = (totals.get(name, 0.0)
                                        + float(cell.get("value") or 0.0))
                    except (TypeError, ValueError):
                        continue
        return workers, {name: totals[name] for name in sorted(totals)}
