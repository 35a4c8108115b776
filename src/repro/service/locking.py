"""Cross-process advisory directory locks.

Concurrent mapping engines may share one cache directory (parallel CI
shards, two operators on one NFS scratch space). Single-artifact writes are already
safe — the store's commit protocol is one atomic rename — but multi-step
maintenance (``repro doctor --repair``, ``ResultStore.clear``, quarantine
sweeps) must not interleave across processes. :class:`DirectoryLock`
provides the classic lockfile protocol for that:

- acquisition creates ``<dir>/.lock`` with ``O_CREAT | O_EXCL`` (atomic on
  POSIX and NFSv3+) and records the holder's pid, host, and acquire time
  as JSON;
- a lockfile whose recorded pid is dead (same host, ``os.kill(pid, 0)``
  fails) is **stale**: the contender atomically renames it aside and
  retries, so a crashed holder never wedges the directory. Takeovers are
  counted (``stale_locks_taken``) and reported to an optional callback so
  store stats and ``repro doctor`` can surface them;
- an unparseable lockfile (the holder died mid-write, or junk) is only
  stolen once it is demonstrably old (``stale_grace`` seconds by mtime) —
  a live writer finishes its few-byte write long before that;
- a lock held by a live pid on *another* host is always honoured: pids
  cannot be probed remotely.

The lock is advisory: readers and single-artifact writers never take it.
"""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path

from repro.errors import StoreLockError
from repro.utils.logconf import get_logger

__all__ = ["LOCK_NAME", "DirectoryLock", "pid_alive", "read_lock_info"]

log = get_logger("service.locking")

#: Default lockfile name inside the locked directory.
LOCK_NAME = ".lock"


def pid_alive(pid: int) -> bool:
    """True when ``pid`` exists on this host (signal-0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


def read_lock_info(path: Path) -> dict | None:
    """The holder record in ``path``, or None (missing/unparseable)."""
    try:
        raw = Path(path).read_text()
    except OSError:
        return None
    try:
        info = json.loads(raw)
    except ValueError:
        return None
    return info if isinstance(info, dict) else None


class DirectoryLock:
    """Advisory pid-lockfile over one directory, with stale takeover.

    Usable as a context manager::

        with DirectoryLock(cache_dir, timeout=10.0):
            ...  # exclusive multi-step maintenance

    Parameters
    ----------
    directory:
        The directory to lock (created if missing).
    timeout:
        Seconds to keep contending before :class:`StoreLockError`.
    poll:
        Sleep between contention attempts.
    stale_grace:
        Age (mtime, seconds) past which an *unparseable* lockfile is
        treated as crash debris and stolen.
    on_stale_takeover:
        Optional ``callback()`` invoked once per stale lock taken over
        (the store wires its ``stale_locks_taken`` counter here).
    """

    def __init__(self, directory, name: str = LOCK_NAME,
                 timeout: float = 10.0, poll: float = 0.05,
                 stale_grace: float = 5.0, on_stale_takeover=None):
        self.directory = Path(directory)
        self.path = self.directory / name
        self.timeout = float(timeout)
        self.poll = float(poll)
        self.stale_grace = float(stale_grace)
        self.on_stale_takeover = on_stale_takeover
        #: Stale locks this instance has taken over (monotonic).
        self.stale_takeovers = 0
        self._held = False

    # -- acquisition ----------------------------------------------------------------
    def acquire(self) -> "DirectoryLock":
        if self._held:
            return self
        self.directory.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fd = os.open(self.path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                if self._takeover_if_stale():
                    continue
                if time.monotonic() >= deadline:
                    holder = read_lock_info(self.path) or {}
                    raise StoreLockError(
                        f"could not lock {self.directory} within "
                        f"{self.timeout:.3g}s; held by pid "
                        f"{holder.get('pid', '?')} on "
                        f"{holder.get('host', '?')} ({self.path})"
                    )
                time.sleep(self.poll)
                continue
            with os.fdopen(fd, "w") as handle:
                json.dump({
                    "pid": os.getpid(),
                    "host": socket.gethostname(),
                    "acquired_unix": time.time(),
                }, handle)
                handle.flush()
            self._held = True
            return self

    def _takeover_if_stale(self) -> bool:
        """Remove a provably-dead holder's lockfile; True if removed."""
        info = read_lock_info(self.path)
        if info is None:
            # Missing (released between our O_EXCL and this read): retry.
            if not self.path.exists():
                return True
            # Unparseable: steal only once older than the write grace.
            try:
                age = time.time() - self.path.stat().st_mtime
            except OSError:
                return True
            if age < self.stale_grace:
                return False
        else:
            host = info.get("host")
            if host is not None and host != socket.gethostname():
                return False  # cannot probe pids across hosts
            try:
                pid = int(info.get("pid", -1))
            except (TypeError, ValueError):
                pid = -1
            if pid_alive(pid):
                return False
        # Atomic steal: rename the dead lock aside so two contenders
        # cannot both "win" an unlink-then-create race; the loser's
        # os.replace fails with FileNotFoundError and it re-contends.
        aside = self.path.with_name(
            f"{self.path.name}.stale-{os.getpid()}-{time.monotonic_ns()}"
        )
        try:
            os.replace(self.path, aside)
        except FileNotFoundError:
            return True  # someone else stole it; re-contend
        try:
            os.unlink(aside)
        except OSError:
            pass
        self.stale_takeovers += 1
        log.warning("took over stale lock %s (dead holder %s)",
                    self.path, info)
        if self.on_stale_takeover is not None:
            self.on_stale_takeover()
        return True

    # -- release --------------------------------------------------------------------
    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        info = read_lock_info(self.path)
        if info is not None and info.get("pid") not in (None, os.getpid()):
            # Someone declared us dead and took over; their lock, not ours.
            log.warning("lock %s no longer ours (taken by pid %s); "
                        "leaving it", self.path, info.get("pid"))
            return
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass

    @property
    def held(self) -> bool:
        return self._held

    def __enter__(self) -> "DirectoryLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()
