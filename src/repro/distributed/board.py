"""The shared job board: filesystem primitives for the worker fleet.

The board lives under the cache directory (``<cache>/board/``) so that
the coordination substrate and the result substrate share one mount —
any host that can read the content-addressed store can also claim work::

    board/
      queue/<key>.json       job entries (posted O_EXCL; atomically
                             rewritten for reclaim bookkeeping)
      claims/<key>.claim     leases: created O_EXCL by exactly one
                             worker; heartbeat = the file's mtime,
                             refreshed by the holder
      done/<key>.json        receipts (created O_EXCL: first commit wins)
      workers/<id>.json      worker registrations (mtime heartbeat)
      workers/<id>.stats.json  periodic worker telemetry snapshots
                             (atomic rewrite; deliberately NOT removed
                             on deregister so fleet counters survive
                             worker death)
      hosts.json             coordinator-published registry of
                             legitimate fleet host labels (doctor
                             flags registrations from unknown hosts)

Every multi-writer decision point is a single atomic filesystem
operation, mirroring :mod:`repro.service.locking`:

- **exclusive publish** (queue entries, claims, receipts) writes a
  complete temp file and ``os.link``\\ s it onto the final name — the
  link either creates the full document or fails ``FileExistsError``,
  so readers never observe a torn file and two writers cannot both win;
- **reclaim** renames an expired claim aside
  (``<name>.reclaimed-<pid>-<ns>``) before unlinking it, the
  DirectoryLock stale-takeover discipline: two reapers cannot both
  "win" an unlink race, the loser's ``os.replace`` raises
  ``FileNotFoundError`` and it backs off;
- **heartbeats** rewrite the claim document *in place* (``pwrite`` at
  offset 0 with a bumped ``seq`` counter, never creating the file) so a
  beat both refreshes the mtime and advances a monotonic sequence
  number the reaper can read. The sequence is what distinguishes a
  clock-skewed-but-alive host (mtime looks ancient, seq advances) from
  a dead worker (both frozen); opening without ``O_CREAT`` is what
  makes a beat *fencing-safe* — once a reaper renames the claim aside,
  the holder's next beat fails instead of resurrecting the lease.

The board itself holds no results: workers commit through the
checksummed :class:`~repro.service.store.ResultStore` and the receipt
only records *who* finished and whether the mapper actually ran —
which is how a reclaimed job whose original owner finished anyway
becomes a free cache hit instead of a duplicate solve.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import time
from pathlib import Path

from repro.service.store import atomic_write_json
from repro.utils.logconf import get_logger

__all__ = [
    "BOARD_DIR",
    "QUEUE_DIR",
    "CLAIMS_DIR",
    "DONE_DIR",
    "WORKERS_DIR",
    "HOSTS_FILE",
    "ENV_HOST_LABEL",
    "BOARD_SCHEMA_VERSION",
    "exclusive_publish_json",
    "read_json",
    "node_host",
    "JobBoard",
]

log = get_logger("distributed.board")

#: Name of the board directory under a cache root.
BOARD_DIR = "board"
QUEUE_DIR = "queue"
CLAIMS_DIR = "claims"
DONE_DIR = "done"
WORKERS_DIR = "workers"
HOSTS_FILE = "hosts.json"

#: Environment override for this process's fleet host label. Spawners
#: set it (via ``repro worker --host-label``) so a worker's board
#: documents carry the *registry* name of its host, not whatever
#: ``gethostname()`` returns inside a container.
ENV_HOST_LABEL = "REPRO_HOST_LABEL"

#: Version stamped into every board document.
BOARD_SCHEMA_VERSION = 1


def node_host() -> str:
    """The host label this process stamps into board documents."""
    return os.environ.get(ENV_HOST_LABEL) or socket.gethostname()


def exclusive_publish_json(path: Path, doc: dict) -> bool:
    """Atomically publish ``doc`` at ``path`` iff nothing is there yet.

    The document is fully written to a sibling temp file first, then
    hard-linked onto the final name: the link is the atomic arbiter
    (``FileExistsError`` = somebody else won), and a reader can never
    see a partial document. Returns True when this caller won.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".bp-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(doc, handle)
            handle.flush()
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        return True
    finally:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass


def read_json(path: Path) -> dict | None:
    """Parse ``path`` as a JSON object, or None (missing/unreadable)."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


def _mtime_age(path: Path, now: float | None = None) -> float | None:
    """Seconds since ``path`` was last touched, or None when gone."""
    try:
        mtime = Path(path).stat().st_mtime
    except OSError:
        return None
    return (time.time() if now is None else now) - mtime


class JobBoard:
    """Typed accessors over one board directory tree."""

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.queue_dir = self.root / QUEUE_DIR
        self.claims_dir = self.root / CLAIMS_DIR
        self.done_dir = self.root / DONE_DIR
        self.workers_dir = self.root / WORKERS_DIR

    @classmethod
    def under_cache(cls, cache_dir: Path | str) -> "JobBoard":
        return cls(Path(cache_dir) / BOARD_DIR)

    def ensure_dirs(self) -> None:
        for d in (self.queue_dir, self.claims_dir, self.done_dir,
                  self.workers_dir):
            d.mkdir(parents=True, exist_ok=True)

    # -- queue entries -------------------------------------------------------------
    def entry_path(self, key: str) -> Path:
        return self.queue_dir / f"{key}.json"

    def post(self, key: str, entry: dict) -> bool:
        """Publish a job entry; False when the key is already posted
        (a second coordinator sharing the board joins instead)."""
        return exclusive_publish_json(self.entry_path(key), entry)

    def read_entry(self, key: str) -> dict | None:
        return read_json(self.entry_path(key))

    def rewrite_entry(self, key: str, entry: dict) -> None:
        """Atomically replace a job entry (reclaim bookkeeping).

        Coordination state is rebuildable, so the fsync steps of the
        commit protocol are skipped — atomicity is what matters here.
        """
        atomic_write_json(self.entry_path(key), entry, fsync=False)

    def remove_entry(self, key: str) -> bool:
        try:
            self.entry_path(key).unlink()
        except FileNotFoundError:
            return False
        return True

    def list_queue(self) -> list[str]:
        """Posted job keys, oldest entry first (FIFO-ish fairness)."""
        try:
            paths = list(self.queue_dir.glob("*.json"))
        except OSError:
            return []
        paths.sort(key=lambda p: (_mtime_age(p) is None,
                                  -(_mtime_age(p) or 0.0), p.name))
        return [p.stem for p in paths]

    # -- claims / leases -----------------------------------------------------------
    def claim_path(self, key: str) -> Path:
        return self.claims_dir / f"{key}.claim"

    def try_claim(self, key: str, worker_id: str, lease_seconds: float,
                  host: str | None = None) -> Path | None:
        """Take the claim for ``key`` with O_EXCL; None when already held."""
        path = self.claim_path(key)
        doc = {
            "kind": "fleet_claim",
            "schema": BOARD_SCHEMA_VERSION,
            "key": key,
            "worker": worker_id,
            "host": host or node_host(),
            "pid": os.getpid(),
            "claimed_unix": time.time(),
            "lease_seconds": float(lease_seconds),
            "seq": 0,
        }
        return path if exclusive_publish_json(path, doc) else None

    def heartbeat(self, claim_path: Path,
                  worker_id: str | None = None) -> bool:
        """Refresh a lease; False when the claim was reclaimed (fenced).

        A beat rewrites the claim document in place with an incremented
        ``seq`` and a fresh ``beat_unix`` — the write updates the mtime
        (the cheap liveness signal) *and* advances the sequence number
        (the skew-proof one). Two properties make this fencing-safe
        where an ``os.replace`` rewrite would not be:

        - the file is opened **without O_CREAT**: after a reaper's
          rename-aside, the open fails and the holder learns it lost
          the lease — it can never resurrect the claim file;
        - the document is padded with trailing whitespace (valid JSON)
          rather than truncated, and lands in a single ``pwrite`` at
          offset 0, so a concurrent reader sees either the old or the
          new document, at worst with a torn tail that falls into
          :meth:`claim_info`'s unparseable-claim grace for one beat.

        When ``worker_id`` is given, a claim now owned by someone else
        (reclaimed and re-claimed after a requeue) also returns False —
        the caller must treat that as a fence, not a beat. Unparseable
        claim files degrade to a bare ``os.utime`` so a legacy or
        half-written document still carries liveness.
        """
        doc = read_json(claim_path)
        if doc is None:
            # Missing file → fenced; present-but-unparseable → legacy
            # mtime-only beat (claim_info grants the same grace).
            try:
                os.utime(claim_path)
            except OSError:
                return False
            return True
        if worker_id is not None and doc.get("worker") != worker_id:
            return False
        try:
            doc["seq"] = int(doc.get("seq", 0)) + 1
        except (TypeError, ValueError):
            doc["seq"] = 1
        doc["beat_unix"] = time.time()
        data = json.dumps(doc).encode()
        try:
            fd = os.open(claim_path, os.O_WRONLY)
        except OSError:
            return False
        try:
            size = os.fstat(fd).st_size
            if len(data) < size:
                data += b" " * (size - len(data))
            os.pwrite(fd, data, 0)
        except OSError:  # pragma: no cover - mount dropped mid-beat
            return False
        finally:
            os.close(fd)
        return True

    def claim_info(self, key: str,
                   now: float | None = None) -> tuple[dict | None, float | None]:
        """``(claim_doc, heartbeat_age_seconds)`` for a claim file.

        ``(None, None)`` = no claim. ``(None, age)`` = a claim file
        exists but is unparseable (treated as held until its lease-sized
        grace passes — mirroring DirectoryLock's ``stale_grace``).
        """
        path = self.claim_path(key)
        age = _mtime_age(path, now=now)
        if age is None:
            return None, None
        return read_json(path), age

    def reclaim(self, key: str) -> bool:
        """Atomically remove an expired claim (rename-aside discipline).

        Returns True when *this* caller reclaimed it; False when the
        claim vanished first (the holder released it, or another reaper
        won the ``os.replace`` race).
        """
        path = self.claim_path(key)
        aside = path.with_name(
            f"{path.name}.reclaimed-{os.getpid()}-{time.monotonic_ns()}")
        try:
            os.replace(path, aside)
        except FileNotFoundError:
            return False
        try:
            os.unlink(aside)
        except OSError:  # pragma: no cover - debris is doctor-cleanable
            pass
        return True

    def release_claim(self, claim_path: Path, worker_id: str) -> bool:
        """Drop a claim we hold — unless a reaper already took it over."""
        doc = read_json(claim_path)
        if doc is not None and doc.get("worker") not in (None, worker_id):
            return False
        try:
            os.unlink(claim_path)
        except FileNotFoundError:
            return False
        return True

    # -- receipts ------------------------------------------------------------------
    def receipt_path(self, key: str) -> Path:
        return self.done_dir / f"{key}.json"

    def publish_receipt(self, key: str, receipt: dict) -> bool:
        """First-commit-wins completion record for ``key``."""
        return exclusive_publish_json(self.receipt_path(key), receipt)

    def read_receipt(self, key: str) -> dict | None:
        return read_json(self.receipt_path(key))

    def remove_receipt(self, key: str) -> bool:
        try:
            self.receipt_path(key).unlink()
        except FileNotFoundError:
            return False
        return True

    def record_duplicate(self, key: str, worker_id: str,
                         reason: str = "lost-receipt-race",
                         executed: bool = True,
                         host: str | None = None) -> None:
        """Mark a demoted completion: a receipt this worker did *not* publish.

        Written on a lost first-commit-wins race (``lost-receipt-race``)
        and by a self-fencing worker whose lease was reclaimed while it
        worked (``fenced``). The marker is what lets tests (and
        operators) prove how many duplicate mapper executions the fleet
        actually paid for; the doctor sweeps the files as board debris.
        """
        path = self.done_dir / f"{key}.dup-{worker_id}-{time.monotonic_ns()}"
        try:
            atomic_write_json(path, {
                "kind": "fleet_duplicate_execution",
                "schema": BOARD_SCHEMA_VERSION,
                "key": key,
                "worker": worker_id,
                "host": host or node_host(),
                "reason": reason,
                "executed": bool(executed),
                "time_unix": time.time(),
            }, fsync=False)
        except OSError:  # pragma: no cover - marker is best-effort
            pass

    # -- worker registrations ------------------------------------------------------
    def worker_path(self, worker_id: str) -> Path:
        safe = "".join(c if c.isalnum() or c in "-_." else "-"
                       for c in worker_id)
        return self.workers_dir / f"{safe}.json"

    def register_worker(self, worker_id: str, heartbeat_interval: float,
                        host: str | None = None, seq: int = 0,
                        started_unix: float | None = None) -> Path:
        path = self.worker_path(worker_id)
        atomic_write_json(path, {
            "kind": "fleet_worker",
            "schema": BOARD_SCHEMA_VERSION,
            "worker": worker_id,
            "host": host or node_host(),
            "pid": os.getpid(),
            "started_unix": time.time() if started_unix is None
            else float(started_unix),
            "heartbeat_interval": float(heartbeat_interval),
            # Monotonic refresh counter — paired against the stats
            # file's seq by the doctor to spot skew debris (a stats
            # snapshot "newer" by mtime but older by sequence).
            "seq": int(seq),
            # Recorded so a doctor on *any* host can age-test the
            # registration without knowing the worker's configuration.
            "stale_after": max(10.0 * float(heartbeat_interval), 10.0),
        }, fsync=False)
        return path

    def deregister_worker(self, worker_id: str) -> None:
        try:
            self.worker_path(worker_id).unlink()
        except FileNotFoundError:
            pass

    def list_workers(self) -> list[tuple[Path, dict | None, float]]:
        """``(path, registration_doc, heartbeat_age)`` per registration."""
        try:
            paths = sorted(
                p
                for p in self.workers_dir.glob("*.json")
                if not p.name.endswith(".stats.json")
            )
        except OSError:
            return []
        out = []
        now = time.time()
        for path in paths:
            age = _mtime_age(path, now=now)
            if age is None:
                continue
            out.append((path, read_json(path), age))
        return out

    # -- worker telemetry ----------------------------------------------------------
    def worker_stats_path(self, worker_id: str) -> Path:
        reg = self.worker_path(worker_id)
        return reg.with_name(f"{reg.stem}.stats.json")

    def publish_worker_stats(self, worker_id: str, stats: dict,
                             host: str | None = None) -> Path:
        """Atomically (re)write one worker's telemetry snapshot.

        Same discipline as registrations (full temp file + rename, no
        fsync — rebuildable diagnostics), but a *separate* file so a
        stats rewrite never perturbs the registration heartbeat, and the
        snapshot outlives :meth:`deregister_worker`: a SIGKILLed
        worker's last published counters stay mergeable into the fleet
        totals.
        """
        path = self.worker_stats_path(worker_id)
        doc = {
            "kind": "fleet_worker_stats",
            "schema": BOARD_SCHEMA_VERSION,
            "worker": worker_id,
            "host": host or node_host(),
            "pid": os.getpid(),
            "time_unix": time.time(),
            **stats,
        }
        try:
            atomic_write_json(path, doc, fsync=False)
        except OSError:  # pragma: no cover - telemetry is best-effort
            pass
        return path

    def read_worker_stats(self, worker_id: str) -> dict | None:
        return read_json(self.worker_stats_path(worker_id))

    def list_worker_stats(self) -> list[tuple[str, dict | None, float]]:
        """``(worker_id, stats_doc, age_seconds)`` per published snapshot."""
        try:
            paths = sorted(self.workers_dir.glob("*.stats.json"))
        except OSError:
            return []
        out = []
        now = time.time()
        for path in paths:
            age = _mtime_age(path, now=now)
            if age is None:
                continue
            doc = read_json(path)
            worker_id = path.name[: -len(".stats.json")]
            if isinstance(doc, dict) and doc.get("worker"):
                worker_id = str(doc["worker"])
            out.append((worker_id, doc, age))
        return out

    def alive_workers(self, now: float | None = None) -> int:
        """Registrations whose heartbeat is fresher than their own
        ``stale_after`` horizon."""
        count = 0
        for _, doc, age in self.list_workers():
            stale_after = 10.0
            if isinstance(doc, dict):
                try:
                    stale_after = float(doc.get("stale_after", 10.0))
                except (TypeError, ValueError):
                    pass
            if age <= stale_after:
                count += 1
        return count

    # -- host registry -------------------------------------------------------------
    @property
    def hosts_path(self) -> Path:
        return self.root / HOSTS_FILE

    def write_host_registry(self, hosts) -> Path:
        """Publish the coordinator's view of legitimate fleet hosts.

        The doctor flags worker registrations whose host label is not in
        this list — a split-brain symptom (a worker from another rig
        writing into this board) worth surfacing even though it cannot
        corrupt results (the store is still first-commit-wins).
        """
        path = self.hosts_path
        atomic_write_json(path, {
            "kind": "fleet_hosts",
            "schema": BOARD_SCHEMA_VERSION,
            "hosts": sorted({str(h) for h in hosts}),
            "written_by": node_host(),
            "time_unix": time.time(),
        }, fsync=False)
        return path

    def read_host_registry(self) -> list[str] | None:
        """Known host labels, or None when no registry was published."""
        doc = read_json(self.hosts_path)
        if not isinstance(doc, dict):
            return None
        hosts = doc.get("hosts")
        if not isinstance(hosts, list):
            return None
        return [str(h) for h in hosts]

    # -- introspection -------------------------------------------------------------
    def snapshot(self) -> dict:
        """Cheap board depths for gauges and ``/healthz``."""
        def count(directory: Path, pattern: str) -> int:
            try:
                return sum(1 for _ in directory.glob(pattern))
            except OSError:
                return 0

        return {
            "queued": count(self.queue_dir, "*.json"),
            "claimed": count(self.claims_dir, "*.claim"),
            "receipts": count(self.done_dir, "*.json"),
            "workers_alive": self.alive_workers(),
        }
