"""Fleet worker: claim jobs off the shared board, execute, commit.

``repro worker DIR`` runs one of these against a cache directory. The
loop is deliberately boring::

    scan queue -> claim one entry (O_EXCL) -> execute -> commit to the
    checksummed store -> publish receipt (first commit wins) -> withdraw
    the entry -> release

While a job runs, a daemon thread refreshes the claim file's mtime
every quarter lease — the coordinator's reaper treats a heartbeat older
than the lease as a dead or wedged worker and reclaims the job. The
worker also keeps a registration file (``board/workers/<id>.json``)
heartbeating so operators and the doctor can tell live fleet members
from debris.

Results always flow through the :class:`~repro.service.store.ResultStore`
*before* the receipt is published. Ordering is the crash-safety
argument: a worker that dies after ``store.put`` but before the receipt
has still made the result durable, so the reclaimed re-execution is a
free cache hit — the re-claiming worker finds the key in the store and
publishes an ``executed=False`` receipt without touching the mapper.
A worker that publishes an ok receipt withdraws the queue entry *before*
it releases its claim, and a worker whose claim lands on a withdrawn
entry releases it untouched: finished work is never claimed twice.

**Self-fencing** closes the partitioned-worker window the store cannot:
before publishing a receipt, a worker whose heartbeat failed (the claim
was reclaimed from under it) — or whose heartbeats stalled so it cannot
*know* — verifies it still owns its lease. A fenced worker demotes its
completion to a duplicate marker (``done/<key>.dup-*`` with
``reason="fenced"``) instead of a receipt, so a live-but-unreachable
worker can never race the reclaiming coordinator into the fleet's
accounting. First-commit-wins in the store already protects the
*result*; fencing protects receipts and counters.

Fault hooks (armed via ``REPRO_FAULTS`` in the worker's environment):

- ``worker-kill-after-claim`` — SIGKILL immediately after a claim is
  taken, the worst-case death (lease held, zero work durable);
- ``heartbeat-stall`` — the heartbeat thread stops refreshing while the
  job keeps running, simulating a wedged-but-alive worker;
- ``worker-partition`` — heartbeat-stall plus the worker treating the
  board as unreachable: it must self-fence before publishing;
- ``clock-skew`` — each beat stamps the claim mtime an hour into the
  past while the sequence number keeps advancing (a host whose clock is
  wrong but whose worker is healthy);
- ``lease-renew-latency`` — every renewal write stalls ``delay``
  seconds first (slow shared mount).
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from pathlib import Path

from repro.errors import JobTimeoutError, ServiceError
from repro.distributed.board import (
    BOARD_SCHEMA_VERSION,
    ENV_HOST_LABEL,
    JobBoard,
    read_json,
)
from repro.observability.metrics import get_registry
from repro.resilience import faultinject
from repro.service.executor import _deadline
from repro.service.jobs import (
    JobRuntime,
    execute_mapping_job,
    mapping_job_from_payload,
)
from repro.service.store import ResultStore
from repro.utils.logconf import get_logger

__all__ = ["default_worker_id", "FleetWorker"]

log = get_logger("distributed.worker")


def default_worker_id() -> str:
    return f"w-{socket.gethostname()}-{os.getpid()}"


class _LeaseState:
    """What a job's heartbeat thread tells its publish path.

    ``fenced`` is set the moment a beat discovers the claim is gone or
    owned by someone else — the worker has *proof* it lost the lease.
    ``partitioned`` means the beats stopped without proof either way
    (injected partition): the publish path must go re-establish the
    truth before it may publish.
    """

    __slots__ = ("fenced", "partitioned")

    def __init__(self):
        self.fenced = threading.Event()
        self.partitioned = False


class FleetWorker:
    """One claim-execute-commit loop over a shared cache directory.

    Parameters
    ----------
    cache_dir:
        The shared cache root; the board lives at ``<cache_dir>/board``.
    worker_id:
        Stable identity written into claims/receipts/registration;
        defaults to ``w-<host>-<pid>``.
    poll:
        Sleep between empty queue scans.
    idle_exit:
        Exit after this many seconds without claiming any work
        (None = run until signalled). Spawned workers use this so an
        abandoned fleet drains itself.
    install_signals:
        Install SIGTERM/SIGINT handlers that finish the current job and
        exit cleanly (only possible from the main thread; in-thread test
        workers call :meth:`stop` instead).
    host_label:
        Fleet host name stamped into this worker's claims, receipts,
        registration, and stats. Spawners thread their registry name
        through ``repro worker --host-label``; defaults to
        ``$REPRO_HOST_LABEL`` then ``gethostname()``.
    once:
        Run a single board scan (claiming and processing at most one
        job) and exit — for debugging claim/fence behavior on a live
        board without a poll loop.
    """

    REGISTRATION_INTERVAL = 1.0

    def __init__(self, cache_dir, worker_id: str | None = None,
                 poll: float = 0.05, idle_exit: float | None = None,
                 install_signals: bool = True,
                 host_label: str | None = None, once: bool = False):
        self.store = ResultStore(cache_dir)
        self.board = JobBoard.under_cache(cache_dir)
        self.worker_id = worker_id or default_worker_id()
        self.poll = float(poll)
        self.idle_exit = idle_exit if idle_exit is None else float(idle_exit)
        self.install_signals = install_signals
        self.host = (host_label or os.environ.get(ENV_HOST_LABEL)
                     or socket.gethostname())
        self.once = bool(once)
        self._stop = threading.Event()
        #: Signal number the SIGTERM/SIGINT handler saw. The handler only
        #: stores it: setting ``_stop`` takes the Event's non-reentrant
        #: lock, which the main thread may hold inside ``_stop.wait`` when
        #: the signal lands. The loop notices within one ``poll``.
        self._signalled: int | None = None
        #: Receipts this worker published (including free cache hits).
        self.published = 0
        #: Jobs this worker actually executed (mapper ran).
        self.executed = 0
        #: Registration refresh counter; paired into the stats snapshot
        #: so the doctor can spot sequence regressions (skew debris).
        self._reg_seq = 0
        self._reg_started: float | None = None
        #: (monotonic time, published) at the last stats publish, for
        #: the throughput figure in the stats snapshot.
        self._stats_prev = (time.monotonic(), 0)

    def stop(self) -> None:
        self._stop.set()

    @property
    def stopping(self) -> bool:
        return self._signalled is not None or self._stop.is_set()

    # -- main loop -----------------------------------------------------------------
    def run(self) -> int:
        """Serve the board until stopped; returns receipts published."""
        self.board.ensure_dirs()
        self._reg_started = time.time()
        reg_path = self.board.register_worker(
            self.worker_id, self.REGISTRATION_INTERVAL, host=self.host,
            seq=self._reg_seq, started_unix=self._reg_started)
        restore: dict[int, object] = {}
        if (self.install_signals
                and threading.current_thread() is threading.main_thread()):
            def _handler(signum, frame):
                self._signalled = signum

            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    restore[sig] = signal.signal(sig, _handler)
                except (ValueError, OSError):  # pragma: no cover - platform
                    pass
        log.info("worker %s serving board at %s", self.worker_id,
                 self.board.root)
        self._publish_stats()  # visible in fleet views before first claim
        last_registration = time.monotonic()
        last_work = time.monotonic()
        try:
            while not self.stopping:
                now = time.monotonic()
                if now - last_registration >= self.REGISTRATION_INTERVAL:
                    self._refresh_registration(reg_path)
                    self._publish_stats()
                    last_registration = now
                worked = self._scan_once()
                if worked:
                    last_work = time.monotonic()
                if self.once:
                    break
                if worked:
                    continue
                if (self.idle_exit is not None
                        and time.monotonic() - last_work >= self.idle_exit):
                    log.info("worker %s idle for %.1fs; exiting",
                             self.worker_id, self.idle_exit)
                    break
                self._stop.wait(self.poll)
        finally:
            if self._signalled is not None:
                log.warning("worker %s: signal %d, stopped after current job",
                            self.worker_id, self._signalled)
            # Final stats publish *before* deregistering: the snapshot
            # survives the registration and keeps the fleet totals
            # honest after a clean exit, same as after a SIGKILL.
            self._publish_stats()
            self.board.deregister_worker(self.worker_id)
            for sig, prev in restore.items():
                signal.signal(sig, prev)
        return self.published

    def _publish_stats(self) -> None:
        """Publish this worker's telemetry snapshot to the board.

        Registry caveat: in-thread test workers share the process-wide
        registry, so the ``metrics`` section reflects the *process*, not
        strictly this worker — exact for spawned subprocess fleets,
        which is what the aggregation is for.
        """
        now = time.monotonic()
        prev_t, prev_published = self._stats_prev
        dt = now - prev_t
        rate = (self.published - prev_published) / dt if dt > 0 else 0.0
        self._stats_prev = (now, self.published)
        snapshot = get_registry().snapshot()
        metrics = {
            name: doc
            for name, doc in snapshot.items()
            if name.startswith(("fleet.", "engine.", "store."))
        }
        self.board.publish_worker_stats(self.worker_id, {
            "interval": self.REGISTRATION_INTERVAL,
            "published": self.published,
            "executed": self.executed,
            "jobs_per_second": rate,
            "seq": self._reg_seq,
            "metrics": metrics,
        }, host=self.host)

    def _refresh_registration(self, reg_path: Path) -> None:
        # A full rewrite rather than a bare utime: the refresh bumps the
        # registration's seq counter (skew forensics for the doctor) and
        # transparently re-registers if a doctor --repair (or an
        # operator) swept the file while we were busy.
        self._reg_seq += 1
        self.board.register_worker(
            self.worker_id, self.REGISTRATION_INTERVAL, host=self.host,
            seq=self._reg_seq, started_unix=self._reg_started)

    # -- one scan ------------------------------------------------------------------
    def _scan_once(self) -> bool:
        """Claim and process at most one job; True when work was done."""
        now = time.time()
        for key in self.board.list_queue():
            if self.stopping:
                return False
            entry = self.board.read_entry(key)
            if entry is None:
                continue
            try:
                if float(entry.get("not_before") or 0.0) > now:
                    continue  # reclaim backoff window
            except (TypeError, ValueError):
                pass
            claim = self.board.try_claim(key, self.worker_id,
                                         self._lease_of(entry),
                                         host=self.host)
            if claim is None:
                continue
            if (self.board.read_entry(key) is None
                    or self.board.read_receipt(key) is not None):
                # Finished between our scan and our claim (its worker
                # withdrew the entry before releasing); nothing to do.
                self.board.release_claim(claim, self.worker_id)
                continue
            self._process(key, entry, claim)
            return True
        return False

    @staticmethod
    def _lease_of(entry: dict) -> float:
        try:
            lease = float(entry.get("lease_seconds") or 10.0)
        except (TypeError, ValueError):
            lease = 10.0
        return max(lease, 0.1)

    # -- executing one claim -------------------------------------------------------
    def _process(self, key: str, entry: dict, claim_path: Path) -> None:
        # The worst moment to die: claim held, nothing durable yet. The
        # chaos suite arms this to prove the lease reaper recovers.
        faultinject.inject("worker-kill-after-claim")
        registry = get_registry()
        registry.counter("fleet.worker_claims").inc()
        log.info("worker %s claimed %s (%s)", self.worker_id, key[:12],
                 entry.get("describe", "?"))
        lease = self._lease_of(entry)
        stop_beat = threading.Event()
        state = _LeaseState()
        beat = threading.Thread(
            target=self._heartbeat_loop,
            args=(claim_path, max(lease / 4.0, 0.02), stop_beat, state),
            daemon=True,
        )
        beat.start()
        t0 = time.perf_counter()
        receipt = {
            "kind": "fleet_receipt",
            "schema": BOARD_SCHEMA_VERSION,
            "key": key,
            "worker": self.worker_id,
            "host": self.host,
            "pid": os.getpid(),
            "executed": False,
            "error": None,
            "timed_out": False,
            "degraded": False,
            "map_seconds": None,
        }
        executed = False
        try:
            if key in self.store:
                # The original owner of a reclaimed job finished after
                # its lease expired: its commit is durable, so this
                # re-execution is a free cache hit — zero mapper work.
                registry.counter("fleet.worker_cache_hits").inc()
                log.info("worker %s: %s already in store (free cache hit)",
                         self.worker_id, key[:12])
            else:
                job = mapping_job_from_payload(entry["spec"])
                runtime = None
                if entry.get("runtime"):
                    runtime = JobRuntime(**entry["runtime"])
                timeout = entry.get("timeout")
                with _deadline(timeout):
                    payload = execute_mapping_job(job, runtime=runtime)
                executed = True
                self.executed += 1
                receipt["executed"] = True
                receipt["map_seconds"] = payload.get("map_seconds")
                # Span trees are timing-nondeterministic and must never
                # enter the content-addressed store; they ride the
                # receipt home for the coordinator to graft.
                trace_docs = payload.pop("trace", None)
                if trace_docs:
                    receipt["trace"] = trace_docs
                receipt["degraded"] = bool(payload.get("degraded"))
                stored = False
                if not receipt["degraded"]:
                    try:
                        self.store.put(key, payload)
                        stored = True
                    except (OSError, ServiceError) as exc:
                        log.warning("worker %s: could not store %s (%s); "
                                    "shipping payload in the receipt",
                                    self.worker_id, key[:12], exc)
                if not stored:
                    # Degraded (quality-barred from the cache) or the
                    # store refused the commit: the receipt is the only
                    # road home for this result.
                    receipt["payload"] = payload
        except JobTimeoutError as exc:
            receipt["error"] = f"{type(exc).__name__}: {exc}"
            receipt["timed_out"] = True
            registry.counter("fleet.worker_timeouts").inc()
        except ServiceError as exc:
            receipt["error"] = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # noqa: BLE001 - shipped to the coordinator
            receipt["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            stop_beat.set()
            beat.join(timeout=2.0)
        receipt["wall_seconds"] = time.perf_counter() - t0
        receipt["time_unix"] = time.time()
        if self._fenced(state, claim_path, lease):
            # Self-fence: our lease was (or may have been) reclaimed
            # while we worked. The store commit — if any — still stands
            # (first commit wins), but we must not race the reclaiming
            # coordinator's requeue into the receipt slot: demote to a
            # duplicate marker so fleet accounting stays consistent.
            registry.counter("fleet.worker_fenced").inc()
            if executed:
                registry.counter("fleet.worker_duplicate_executions").inc()
            self.board.record_duplicate(key, self.worker_id,
                                        reason="fenced", executed=executed,
                                        host=self.host)
            log.warning("worker %s: fenced on %s (lease lost%s); demoted "
                        "to duplicate marker", self.worker_id, key[:12],
                        " after executing" if executed else "")
        elif self.board.publish_receipt(key, receipt):
            self.published += 1
            if receipt["error"] is None:
                # Withdraw before releasing: a worker whose claim lands
                # after our release finds no entry and runs nothing.
                self.board.remove_entry(key)
        elif executed:
            # Lost the first-commit-wins race *after* running the
            # mapper: record it, so duplicate executions are observable
            # (the chaos suite asserts there are none).
            registry.counter("fleet.worker_duplicate_executions").inc()
            self.board.record_duplicate(key, self.worker_id, host=self.host)
            log.warning("worker %s: lost receipt race for %s after "
                        "executing it", self.worker_id, key[:12])
        self.board.release_claim(claim_path, self.worker_id)

    # -- fencing -------------------------------------------------------------------
    def _fenced(self, state: _LeaseState, claim_path: Path,
                lease: float) -> bool:
        """Must this completion be demoted to a duplicate marker?

        Called with the heartbeat thread already joined, so the claim
        file is quiescent from our side. Proof of reclaim (a failed
        beat) fences outright; a partition (beats stopped, no proof)
        first waits out the reaper — a partitioned worker cannot
        distinguish "coordinator reclaimed me" from "coordinator is
        slow", and publishing before the reaper's horizon passes would
        reopen exactly the race fencing exists to close.
        """
        if state.partitioned:
            self._await_partition_verdict(claim_path, lease)
        if state.fenced.is_set():
            return True
        doc = read_json(claim_path)
        if doc is None:
            # Missing (reclaimed from under us) or unreadable: without
            # positive proof of ownership we must not publish. The
            # result, if committed, resurfaces as a free cache hit.
            return True
        return doc.get("worker") != self.worker_id

    def _await_partition_verdict(self, claim_path: Path,
                                 lease: float) -> None:
        """Wait until the reaper has decided our fate (claim reclaimed)
        or long enough that it never will (we still own the claim after
        its skew-tolerant horizon, ~2 leases, with margin)."""
        deadline = time.monotonic() + 4.0 * max(lease, 0.1) + 1.0
        while time.monotonic() < deadline:
            doc = read_json(claim_path)
            if doc is None or doc.get("worker") != self.worker_id:
                return
            time.sleep(0.05)

    def _heartbeat_loop(self, claim_path: Path, interval: float,
                        stop: threading.Event,
                        state: _LeaseState | None = None) -> None:
        state = state if state is not None else _LeaseState()
        stalled = False
        skewed = False
        while not stop.wait(interval):
            if stalled:
                continue
            if faultinject.fires("worker-partition"):
                # Full partition: the board is unreachable from here on.
                # Unlike a plain stall, the worker *knows* it cannot know
                # whether it still holds the lease — the publish path
                # must self-fence.
                log.warning("worker %s: partitioned from board (injected)",
                            self.worker_id)
                state.partitioned = True
                stalled = True
                continue
            if faultinject.fires("heartbeat-stall"):
                # Wedged-but-alive: the process keeps computing but the
                # lease goes quiet, so the reaper must treat it as dead.
                log.warning("worker %s: heartbeat stalled (injected)",
                            self.worker_id)
                stalled = True
                continue
            delay = faultinject.stall_seconds("lease-renew-latency")
            if delay:
                # Slow shared mount: the renewal itself lags.
                time.sleep(delay)
            if not self.board.heartbeat(claim_path,
                                        worker_id=self.worker_id):
                # Reclaimed from under us (our lease expired). Keep
                # computing — the store commit may still land first and
                # win — but flag the loss so the publish path fences.
                state.fenced.set()
                return
            if skewed or faultinject.fires("clock-skew"):
                # Clock-skewed host: the beat succeeded (seq advanced)
                # but the mtime tells the coordinator we died an hour
                # ago. The seq-aware reaper must not believe it.
                skewed = True
                past = time.time() - 3600.0
                try:
                    os.utime(claim_path, (past, past))
                except OSError:
                    state.fenced.set()
                    return
