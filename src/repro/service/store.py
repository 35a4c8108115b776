"""Durable, content-addressed result store (v2 on-disk format).

Artifacts are JSON files named by their job's cache key, sharded by the
key's first two hex digits (``<root>/ab/ab12....json``) so directories
stay small at production scale. Since v2, every artifact is an
**envelope** carrying an integrity header over the payload::

    {"schema": 2, "key": "<cache key>",
     "sha256": "<hex over canonical payload JSON>", "payload": {...}}

**Commit protocol** — crash-consistent against SIGKILL at every step:

1. the envelope is serialized into a ``.tmp`` file in the destination
   shard directory;
2. the file is flushed and ``fsync``'d (skippable via ``fsync=False``
   for throwaway test stores);
3. it is atomically ``os.replace``'d onto its final name — readers can
   never observe a torn artifact, and concurrent writers of one key are
   last-writer-wins with either writer's file complete;
4. the shard directory is fsync'd so the rename itself survives power
   loss.

A writer killed between any two steps leaves either an orphaned tmp
file (no committed entry was touched) or the complete new artifact;
``repro doctor`` finds and removes orphans. The
``store-kill-*`` fault-injection points sit exactly at these seams and
the subprocess crash harness proves the invariant for each of them.

**Reads verify the checksum.** A corrupt entry (unparseable JSON, bad
checksum, key/header mismatch) is not silently evicted: it is moved to
``<root>/quarantine/`` next to a structured corruption report, counted
in ``store.quarantined``, and the read is a miss. Only *stale-schema*
entries — valid artifacts from an older format version — are evicted,
so schema bumps still invalidate old caches transparently.

**Shared directories.** Concurrent engines can share one store root:
single-artifact operations need no coordination, and multi-step
maintenance (``clear``, doctor repairs) takes the advisory
:class:`~repro.service.locking.DirectoryLock` (pid lockfile with
stale-dead-holder takeover, counted in ``store.stale_locks_taken``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ServiceError
from repro.observability.metrics import get_registry
from repro.resilience import faultinject
from repro.service.locking import LOCK_NAME, DirectoryLock
from repro.utils.logconf import get_logger

__all__ = [
    "STORE_SCHEMA_VERSION",
    "QUARANTINE_DIR",
    "PENDING_NAME",
    "StoreStats",
    "ResultStore",
    "canonical_json",
    "payload_checksum",
    "verify_artifact",
    "atomic_write_json",
    "fsync_dir",
]

log = get_logger("service.store")

#: On-disk envelope schema version. v2 wraps payloads in a checksummed
#: envelope; v1 artifacts (bare payloads) miss cleanly as stale schema.
STORE_SCHEMA_VERSION = 2

#: Subdirectory receiving corrupt artifacts and their reports.
QUARANTINE_DIR = "quarantine"

#: Root-level file recording the jobs of a drained (SIGTERM'd) batch.
PENDING_NAME = "pending.json"


# -- canonical serialization / checksums ----------------------------------------------
def canonical_json(payload: dict) -> str:
    """The canonical serialization checksums are computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_checksum(payload: dict) -> str:
    """SHA-256 hex digest of the canonical payload JSON."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def fsync_dir(path: Path) -> None:
    """Best-effort fsync of a directory (makes renames durable)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_json(path: Path, doc: dict, fsync: bool = True) -> Path:
    """Write ``doc`` to ``path`` via the tmp → fsync → rename protocol."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".aw-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(doc, handle)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        if fsync:
            fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    return path


def verify_artifact(path: Path, expected_key: str | None = None,
                    schema_version: int = STORE_SCHEMA_VERSION):
    """Classify one artifact file.

    Returns ``(status, detail, payload)`` where status is one of
    ``"ok"`` (payload is the verified inner dict), ``"missing"``,
    ``"stale-schema"`` (valid envelope, older format) or ``"corrupt"``
    (unparseable, wrong shape, key mismatch, or checksum mismatch).
    ``expected_key`` defaults to the filename stem.
    """
    path = Path(path)
    key = expected_key if expected_key is not None else path.stem
    try:
        text = path.read_text()
    except FileNotFoundError:
        return "missing", "", None
    except UnicodeDecodeError as exc:
        return "corrupt", f"not valid UTF-8: {exc}", None
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return "corrupt", f"unparseable JSON: {exc}", None
    if not isinstance(doc, dict):
        return "corrupt", "artifact is not a JSON object", None
    if doc.get("schema") != schema_version:
        return ("stale-schema",
                f"envelope schema {doc.get('schema')!r} != "
                f"{schema_version}", None)
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        return "corrupt", "envelope has no payload object", None
    if doc.get("key") != key:
        return ("corrupt",
                f"key mismatch: header says {doc.get('key')!r}, "
                f"file is {key!r}", None)
    digest = payload_checksum(payload)
    if doc.get("sha256") != digest:
        return ("corrupt",
                f"checksum mismatch: header {doc.get('sha256')!r}, "
                f"computed {digest}", None)
    return "ok", "", payload


@dataclass
class StoreStats:
    """Counters for one store instance.

    Every bump is mirrored into the process-wide metrics registry
    (``store.hits`` etc.), so registry snapshots see cache traffic
    aggregated over all stores in the process.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    quarantined: int = 0
    stale_locks_taken: int = 0
    put_failures: int = 0

    def bump(self, field_name: str, n: int = 1) -> None:
        setattr(self, field_name, getattr(self, field_name) + n)
        get_registry().counter(f"store.{field_name}").inc(n)

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "evictions": self.evictions,
                "quarantined": self.quarantined,
                "stale_locks_taken": self.stale_locks_taken,
                "put_failures": self.put_failures}


@dataclass
class ResultStore:
    """Content-addressed JSON artifact store under ``root``.

    ``fsync=False`` skips the durability syncs (steps 2 and 4 of the
    commit protocol) — atomicity against *crashes of this process* is
    preserved, durability against power loss is not. Tests and
    throwaway caches use it; production roots keep the default.
    """

    root: Path
    schema_version: int = STORE_SCHEMA_VERSION
    fsync: bool = True
    stats: StoreStats = field(default_factory=StoreStats)

    def __post_init__(self):
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        if len(key) < 3 or any(c not in "0123456789abcdef" for c in key):
            raise ServiceError(f"malformed cache key {key!r}")
        return self.root / key[:2] / f"{key}.json"

    @property
    def lock_path(self) -> Path:
        return self.root / LOCK_NAME

    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIR

    def lock(self, timeout: float = 10.0) -> DirectoryLock:
        """An advisory lock over the whole store (multi-step maintenance)."""
        return DirectoryLock(
            self.root, timeout=timeout,
            on_stale_takeover=lambda: self.stats.bump("stale_locks_taken"),
        )

    # -- read ---------------------------------------------------------------------
    def get(self, key: str) -> dict | None:
        """Return the verified payload for ``key`` or None (hit/miss).

        Corrupt entries are quarantined with a report; stale-schema
        entries are evicted. Both count as misses.
        """
        path = self.path_for(key)
        status, detail, payload = verify_artifact(
            path, expected_key=key, schema_version=self.schema_version)
        if status == "missing":
            self.stats.bump("misses")
            return None
        if status == "stale-schema":
            log.info("evicting artifact %s: %s", path, detail)
            self._evict_path(path)
            self.stats.bump("misses")
            return None
        if status == "corrupt":
            log.warning("quarantining corrupt artifact %s: %s", path, detail)
            self.quarantine_path(path, key=key, reason=detail)
            self.stats.bump("misses")
            return None
        self.stats.bump("hits")
        return payload

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def _shard_files(self):
        """Committed artifact files, excluding quarantine and tmp files."""
        hexdigits = set("0123456789abcdef")
        for shard in sorted(self.root.iterdir()):
            if (shard.is_dir() and len(shard.name) == 2
                    and set(shard.name) <= hexdigits):
                yield from sorted(shard.glob("*.json"))

    def __len__(self) -> int:
        return sum(1 for _ in self._shard_files())

    # -- write --------------------------------------------------------------------
    def put(self, key: str, payload: dict) -> Path:
        """Durably persist ``payload`` under ``key``; returns the path.

        Any failure (including injected ENOSPC) cleans up the partial
        tmp file — an aborted put never litters the cache directory.
        """
        path = self.path_for(key)
        doc = {
            "schema": self.schema_version,
            "key": key,
            "sha256": payload_checksum(payload),
            "payload": payload,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                faultinject.inject("store-kill-tmp")
                if faultinject.fires("store-corrupt"):
                    handle.write('{"schema": ')  # deliberately torn JSON
                else:
                    text = json.dumps(doc)
                    half = len(text) // 2
                    handle.write(text[:half])
                    handle.flush()
                    faultinject.inject("store-kill-mid-write")
                    faultinject.inject("store-enospc")
                    handle.write(text[half:])
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            faultinject.inject("store-kill-pre-rename")
            os.replace(tmp, path)
            faultinject.inject("store-kill-post-rename")
            if self.fsync:
                fsync_dir(path.parent)
        except BaseException as exc:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            if isinstance(exc, Exception):
                self.stats.bump("put_failures")
            raise
        self.stats.bump("writes")
        return path

    # -- pending (drained-batch) queue ---------------------------------------------
    @property
    def pending_path(self) -> Path:
        return self.root / PENDING_NAME

    def read_pending(self) -> dict | None:
        """The drained-batch document, or None (missing/unreadable).

        The engine writes ``<root>/pending.json`` when a batch is
        drained mid-shutdown; the daemon's startup requeue and ``repro
        doctor --requeue`` read it back through here.
        """
        try:
            doc = json.loads(self.pending_path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            log.warning("unreadable pending queue %s: %s",
                        self.pending_path, exc)
            return None
        if not isinstance(doc, dict) or not isinstance(doc.get("jobs"), list):
            log.warning("malformed pending queue %s", self.pending_path)
            return None
        return doc

    def write_pending(self, entries: list[dict]) -> Path:
        """Atomically write the drained-batch document listing ``entries``.

        Each entry describes one job that never ran (its ``key``, ``spec``
        and ``describe``, plus whatever the writer adds); :meth:`read_pending`
        reads the document back.
        """
        return atomic_write_json(self.pending_path, {
            "kind": "pending_batch",
            "schema": 1,
            "time_unix": time.time(),
            "jobs": entries,
        })

    def clear_pending(self) -> bool:
        """Remove the drained-batch file; True if one existed."""
        try:
            self.pending_path.unlink()
        except FileNotFoundError:
            return False
        return True

    # -- quarantine ---------------------------------------------------------------
    def quarantine_path(self, path: Path, key: str | None = None,
                        reason: str = "corrupt") -> Path | None:
        """Move a corrupt artifact aside with a structured report.

        Returns the quarantined path, or None when the file vanished
        first (a concurrent store already dealt with it — the rename is
        the atomic arbiter, so exactly one process wins).
        """
        path = Path(path)
        qdir = self.quarantine_dir
        qdir.mkdir(parents=True, exist_ok=True)
        nonce = f"{os.getpid()}-{time.monotonic_ns()}"
        dest = qdir / f"{path.name}.{nonce}.quarantined"
        try:
            os.replace(path, dest)
        except FileNotFoundError:
            return None
        report = {
            "kind": "corruption_report",
            "schema": 1,
            "key": key if key is not None else path.stem,
            "reason": reason,
            "original_path": str(path),
            "quarantined_path": str(dest),
            "time_unix": time.time(),
        }
        try:
            atomic_write_json(dest.with_name(dest.name + ".report.json"),
                              report, fsync=self.fsync)
        except OSError:
            log.warning("could not write corruption report for %s", dest)
        self.stats.bump("quarantined")
        return dest

    def quarantine_key(self, key: str, reason: str = "corrupt") -> Path | None:
        """Quarantine the artifact stored under ``key`` (if any)."""
        return self.quarantine_path(self.path_for(key), key=key,
                                    reason=reason)

    def write_quarantine_report(self, stem: str, doc: dict) -> Path:
        """Persist a standalone report (e.g. a poison-job postmortem)
        into the quarantine directory for ``repro doctor`` to list."""
        nonce = f"{os.getpid()}-{time.monotonic_ns()}"
        path = self.quarantine_dir / f"{stem}.{nonce}.report.json"
        atomic_write_json(path, doc, fsync=self.fsync)
        self.stats.bump("quarantined")
        return path

    def list_quarantine(self) -> list[dict]:
        """Quarantine contents: one entry per report/data file."""
        qdir = self.quarantine_dir
        if not qdir.is_dir():
            return []
        entries = []
        for path in sorted(qdir.iterdir()):
            entry: dict = {"file": path.name}
            if path.name.endswith(".report.json"):
                try:
                    entry["report"] = json.loads(path.read_text())
                except (OSError, ValueError):
                    entry["report"] = None
            entries.append(entry)
        return entries

    # -- eviction -----------------------------------------------------------------
    def _evict_path(self, path: Path) -> bool:
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        self.stats.bump("evictions")
        return True

    def evict(self, key: str) -> bool:
        """Drop one artifact; True if it existed."""
        return self._evict_path(self.path_for(key))

    def clear(self) -> int:
        """Drop every committed artifact; returns the number evicted.

        Takes the directory lock: clearing is a multi-step sweep that
        must not interleave with another process's repair or clear.
        """
        count = 0
        with self.lock():
            for path in list(self._shard_files()):
                if self._evict_path(path):
                    count += 1
        return count
