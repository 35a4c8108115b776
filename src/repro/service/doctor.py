"""``repro doctor`` — fsck for cache and checkpoint directories.

The store's commit protocol guarantees a crash can only leave two kinds
of debris: orphaned ``.tmp`` files (the writer died before its rename)
and a stale lockfile (the holder died mid-maintenance). Bit rot and
torn non-atomic writers additionally produce corrupt artifacts, which
normal reads already quarantine lazily. :func:`diagnose` makes all of
that *eagerly* visible for one directory tree:

- every committed artifact is checksum-verified
  (:func:`~repro.service.store.verify_artifact`): corrupt entries and
  stale-schema entries are reported (and, under ``--repair``,
  quarantined resp. evicted);
- orphaned ``*.tmp`` files are reported (removed under ``--repair``);
- the lockfile is classified live (informational) or stale — dead
  holder — (removed under ``--repair``);
- the quarantine directory and any drained-batch ``pending.json`` are
  listed so an operator sees what needs a postmortem or a resubmit;
- a ``checkpoints/`` subdirectory (the default phase-checkpoint
  location) is fsck'd recursively with the same rules;
- a ``board/`` subdirectory (the distributed fleet's job board, see
  :mod:`repro.distributed`) is swept for dead coordination state:
  claims whose heartbeat outlived their lease (``expired-lease``),
  claims whose queue entry is gone (``orphan-claim``), worker
  registrations whose process died or stopped heartbeating
  (``stale-worker``), registrations whose host label is absent from the
  coordinator-published ``board/hosts.json`` registry
  (``unknown-host``, informational — possibly a live foreign worker,
  never swept), stats snapshots whose heartbeat sequence regressed
  behind their registration's (skew debris: mtimes on that host cannot
  be trusted), and reclaim/duplicate-marker/temp debris
  (``board-debris``, informational). Repairs reuse the board's own
  rename-aside reclaim discipline, so a doctor racing a live reaper is
  safe.

The exit contract is binary: a directory is **clean** when it has no
*problem* findings (``corrupt-artifact``, ``stale-schema``,
``orphan-tmp``, ``stale-lock``, ``missing-root``, ``orphan-claim``,
``expired-lease``, ``stale-worker``). Informational findings
(``quarantine-entry``, ``active-lock``, ``pending-batch``,
``board-debris``, ``unknown-host``) never fail a directory —
quarantine is where problems go to be *handled*, so its contents are
news, not sickness.

Repairs run under the store's :class:`~repro.service.locking.DirectoryLock`
so two doctors (or a doctor and a ``clear``) never interleave sweeps.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.service.locking import read_lock_info, pid_alive
from repro.service.store import (
    PENDING_NAME,
    QUARANTINE_DIR,
    ResultStore,
    verify_artifact,
)
from repro.utils.logconf import get_logger

__all__ = ["DOCTOR_SCHEMA_VERSION", "PROBLEM_KINDS", "Finding",
           "DoctorReport", "diagnose"]

log = get_logger("service.doctor")

#: Schema of the JSON artifact written by ``repro doctor --out``.
DOCTOR_SCHEMA_VERSION = 1

#: Finding kinds that make a directory unhealthy (exit 1).
PROBLEM_KINDS = frozenset({
    "missing-root", "corrupt-artifact", "stale-schema", "orphan-tmp",
    "stale-lock", "orphan-claim", "expired-lease", "stale-worker",
})

#: Age past which a worker stats snapshot counts as board debris.
STALE_STATS_SECONDS = 3600.0


@dataclass
class Finding:
    """One observation about the directory under diagnosis."""

    kind: str
    path: str
    detail: str
    key: str | None = None
    repaired: bool = False
    action: str | None = None

    @property
    def problem(self) -> bool:
        return self.kind in PROBLEM_KINDS

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "path": self.path,
            "detail": self.detail,
            "key": self.key,
            "repaired": self.repaired,
            "action": self.action,
        }


@dataclass
class DoctorReport:
    """Everything :func:`diagnose` learned about one directory."""

    root: str
    repair: bool
    scanned: int = 0
    findings: list[Finding] = field(default_factory=list)
    checkpoints: "DoctorReport | None" = None
    #: Parsed drained-batch queue (``pending.json``), when one exists —
    #: carried whole so ``--requeue`` can clear the file without losing
    #: the job specs an operator needs to resubmit.
    pending: dict | None = None

    @property
    def problems(self) -> list[Finding]:
        nested = self.checkpoints.problems if self.checkpoints else []
        return [f for f in self.findings if f.problem] + nested

    @property
    def clean(self) -> bool:
        """True when nothing is wrong — or everything wrong was repaired."""
        return all(f.repaired for f in self.problems)

    def to_dict(self) -> dict:
        return {
            "kind": "doctor_report",
            "schema": DOCTOR_SCHEMA_VERSION,
            "root": self.root,
            "repair": self.repair,
            "scanned": self.scanned,
            "clean": self.clean,
            "time_unix": time.time(),
            "findings": [f.to_dict() for f in self.findings],
            "checkpoints": (self.checkpoints.to_dict()
                            if self.checkpoints else None),
            "pending": self.pending,
        }

    def to_text(self) -> str:
        lines = [f"doctor: {self.root}",
                 f"  scanned {self.scanned} artifact(s)"]
        reports = [("", self)]
        if self.checkpoints is not None:
            reports.append(("checkpoints/", self.checkpoints))
            lines[-1] += (f" (+{self.checkpoints.scanned} "
                          "checkpoint artifact(s))")
        shown = 0
        for prefix, report in reports:
            for finding in report.findings:
                mark = ("repaired" if finding.repaired
                        else "PROBLEM" if finding.problem else "info")
                action = f" -> {finding.action}" if finding.action else ""
                lines.append(f"  [{mark}] {finding.kind}: "
                             f"{prefix}{finding.path} — "
                             f"{finding.detail}{action}")
                shown += 1
        if not shown:
            lines.append("  no findings")
        lines.append(f"  verdict: {'CLEAN' if self.clean else 'UNHEALTHY'}")
        return "\n".join(lines)


def diagnose(root, repair: bool = False, requeue: bool = False,
             _recurse: bool = True) -> DoctorReport:
    """Fsck the store directory at ``root``.

    With ``repair=True``, problems are fixed in place (corrupt →
    quarantined, stale schema → evicted, orphan tmp / stale lock →
    removed) under the store's directory lock, and each finding is
    marked ``repaired`` with the action taken.

    With ``requeue=True``, a drained-batch ``pending.json`` is consumed:
    its parsed contents land in :attr:`DoctorReport.pending` (so the
    jobs can be surfaced or resubmitted) and the file is removed —
    matching what a restarting ``repro serve`` does automatically.
    """
    root = Path(root)
    report = DoctorReport(root=str(root), repair=repair)
    if not root.is_dir():
        report.findings.append(Finding(
            kind="missing-root", path=str(root),
            detail="directory does not exist"))
        return report
    store = ResultStore(root)
    if repair:
        # Handle a stale lock *before* acquiring our own: acquisition
        # would silently take it over and the finding would be lost.
        _scan_lock(store, report, repair=True)
        with store.lock():
            _scan(root, store, report, repair=True, requeue=requeue,
                  include_lock=False)
    else:
        _scan(root, store, report, repair=False, requeue=requeue)
    if _recurse:
        ckdir = root / "checkpoints"
        if ckdir.is_dir():
            report.checkpoints = diagnose(ckdir, repair=repair,
                                          _recurse=False)
    return report


def _scan(root: Path, store: ResultStore, report: DoctorReport,
          repair: bool, requeue: bool = False,
          include_lock: bool = True) -> None:
    _scan_artifacts(store, report, repair)
    _scan_orphan_tmps(root, report, repair)
    if include_lock:
        _scan_lock(store, report, repair)
    _scan_quarantine(store, report)
    _scan_pending(root, report, requeue)
    _scan_board(root, report, repair)


def _scan_artifacts(store: ResultStore, report: DoctorReport,
                    repair: bool) -> None:
    for path in store._shard_files():
        report.scanned += 1
        status, detail, _ = verify_artifact(
            path, schema_version=store.schema_version)
        if status == "ok" or status == "missing":
            continue
        if status == "stale-schema":
            finding = Finding(kind="stale-schema", path=path.name,
                              detail=detail, key=path.stem)
            if repair:
                store._evict_path(path)
                finding.repaired = True
                finding.action = "evicted"
            report.findings.append(finding)
        else:  # corrupt
            finding = Finding(kind="corrupt-artifact", path=path.name,
                              detail=detail, key=path.stem)
            if repair:
                dest = store.quarantine_path(path, key=path.stem,
                                             reason=f"doctor: {detail}")
                finding.repaired = True
                finding.action = (f"quarantined as {dest.name}"
                                  if dest else "already handled")
            report.findings.append(finding)


def _scan_orphan_tmps(root: Path, report: DoctorReport,
                      repair: bool) -> None:
    candidates = sorted(
        set(root.glob("*.tmp")) | set(root.glob(".*.tmp"))
        | set(root.glob("*/*.tmp")) | set(root.glob("*/.*.tmp"))
        | set(root.glob(".lock.stale-*"))  # takeover debris
    )
    for path in candidates:
        if QUARANTINE_DIR in path.parts:
            continue
        finding = Finding(
            kind="orphan-tmp", path=str(path.relative_to(root)),
            detail="uncommitted temp file left by a crashed writer")
        if repair:
            try:
                os.unlink(path)
                finding.repaired = True
                finding.action = "removed"
            except FileNotFoundError:
                finding.repaired = True
                finding.action = "already gone"
        report.findings.append(finding)


def _scan_lock(store: ResultStore, report: DoctorReport,
               repair: bool) -> None:
    path = store.lock_path
    if not path.exists():
        return
    info = read_lock_info(path)
    holder = f"pid {info.get('pid')} on {info.get('host')}" if info else None
    same_host = bool(info) and info.get("host") in (None,
                                                    socket.gethostname())
    alive = (same_host and isinstance(info.get("pid"), int)
             and pid_alive(info["pid"]))
    if repair and info is not None and info.get("pid") == os.getpid():
        # Under --repair the doctor itself holds the lock; that is not
        # a finding, it is the procedure.
        return
    if alive or (info is not None and not same_host):
        report.findings.append(Finding(
            kind="active-lock", path=path.name,
            detail=f"held by live {holder}" if same_host
            else f"held by {holder} (remote host; cannot probe)"))
        return
    finding = Finding(
        kind="stale-lock", path=path.name,
        detail=(f"holder {holder} is dead" if info
                else "unparseable lockfile (crash debris)"))
    if repair:
        try:
            os.unlink(path)
            finding.repaired = True
            finding.action = "removed"
        except FileNotFoundError:
            finding.repaired = True
            finding.action = "already gone"
    report.findings.append(finding)


def _scan_quarantine(store: ResultStore, report: DoctorReport) -> None:
    for entry in store.list_quarantine():
        doc = entry.get("report")
        detail = "quarantined artifact"
        key = None
        if isinstance(doc, dict):
            key = doc.get("key")
            detail = (f"{doc.get('kind', 'report')}: "
                      f"{doc.get('reason') or doc.get('error') or ''}"
                      .rstrip(": "))
        report.findings.append(Finding(
            kind="quarantine-entry",
            path=f"{QUARANTINE_DIR}/{entry['file']}",
            detail=detail, key=key))


def _scan_board(root: Path, report: DoctorReport, repair: bool) -> None:
    """Sweep a distributed fleet's job board for dead coordination state.

    Imported lazily (and by submodule, not the ``repro.distributed``
    package) to keep the service layer's import graph acyclic: the
    board module only depends on ``repro.service.store``.
    """
    from repro.distributed.board import BOARD_DIR, JobBoard, read_json

    board_root = root / BOARD_DIR
    if not board_root.is_dir():
        return
    board = JobBoard(board_root)
    now = time.time()

    def _relative(path: Path) -> str:
        return str(path.relative_to(root))

    def _repair_unlink(finding: Finding, path: Path) -> None:
        if not repair:
            return
        try:
            os.unlink(path)
            finding.repaired = True
            finding.action = "removed"
        except FileNotFoundError:
            finding.repaired = True
            finding.action = "already gone"

    # -- claims: expired leases and orphans ---------------------------------
    try:
        claim_paths = sorted(board.claims_dir.glob("*.claim"))
    except OSError:
        claim_paths = []
    for path in claim_paths:
        key = path.name[: -len(".claim")]
        try:
            age = now - path.stat().st_mtime
        except OSError:
            continue  # released/reclaimed mid-scan
        doc = read_json(path)
        lease = 10.0
        if isinstance(doc, dict):
            try:
                lease = float(doc.get("lease_seconds", 10.0))
            except (TypeError, ValueError):
                pass
        if age <= lease:
            continue  # heartbeat is fresh: the holder is alive
        holder = (f"worker {doc.get('worker')}" if isinstance(doc, dict)
                  else "unparseable claim")
        seq_note = ""
        if isinstance(doc, dict) and isinstance(doc.get("seq"), int):
            seq_note = f", heartbeat seq {doc['seq']}"
        if board.entry_path(key).exists():
            finding = Finding(
                kind="expired-lease", path=_relative(path), key=key,
                detail=(f"{holder} stopped heartbeating "
                        f"{age:.1f}s ago (lease {lease:.1f}s{seq_note}); "
                        "a live coordinator would reclaim and requeue "
                        "this job"))
        else:
            finding = Finding(
                kind="orphan-claim", path=_relative(path), key=key,
                detail=(f"{holder}'s claim outlived its queue entry by "
                        f"{age:.1f}s (job settled or poisoned)"))
        if repair and board.reclaim(key):
            finding.repaired = True
            finding.action = "reclaimed (rename-aside)"
        elif repair:
            finding.repaired = True
            finding.action = "already reclaimed"
        report.findings.append(finding)

    # -- worker registrations -----------------------------------------------
    known_hosts = board.read_host_registry()
    reg_seq: dict[str, int] = {}
    for path, doc, age in board.list_workers():
        stale_after = 10.0
        host = pid = None
        if isinstance(doc, dict):
            host, pid = doc.get("host"), doc.get("pid")
            try:
                stale_after = float(doc.get("stale_after", 10.0))
            except (TypeError, ValueError):
                pass
            worker = doc.get("worker")
            if isinstance(doc.get("seq"), int) and worker:
                reg_seq[str(worker)] = doc["seq"]
        if (known_hosts is not None and isinstance(host, str)
                and host not in known_hosts
                and host != socket.gethostname()):
            # Informational, never swept: possibly a live worker from a
            # rig nobody told this coordinator about (split brain) — the
            # store stays safe either way, but the operator should know.
            report.findings.append(Finding(
                kind="unknown-host", path=_relative(path),
                detail=(f"registration of {doc.get('worker') if doc else '?'}"
                        f" claims host {host!r}, which is not in the "
                        "board's host registry")))
        same_host = host in (None, socket.gethostname())
        dead = (same_host and isinstance(pid, int)
                and not pid_alive(pid))
        if not dead and age <= stale_after:
            continue
        why = (f"pid {pid} is dead" if dead
               else f"no heartbeat for {age:.1f}s "
                    f"(stale after {stale_after:.1f}s)")
        finding = Finding(
            kind="stale-worker", path=_relative(path),
            detail=f"registration of {doc.get('worker') if doc else '?'}: "
                   f"{why}")
        _repair_unlink(finding, path)
        report.findings.append(finding)

    # -- worker stats snapshots ---------------------------------------------
    # Stats files deliberately outlive their worker (the fleet totals of
    # a SIGKILLed worker stay mergeable), so only sweep truly ancient
    # ones — an hour with no publish means nobody is merging them — plus
    # sequence regressions: a snapshot lagging its own registration's
    # heartbeat seq by more than one publish means mtimes on that host
    # went backwards (clock skew debris) or its stats writes are failing.
    for worker_id, doc, age in board.list_worker_stats():
        path = board.worker_stats_path(worker_id)
        stats_seq = doc.get("seq") if isinstance(doc, dict) else None
        expected = reg_seq.get(worker_id)
        if (isinstance(stats_seq, int) and expected is not None
                and stats_seq + 2 < expected):
            finding = Finding(
                kind="board-debris", path=_relative(path),
                detail=(f"worker stats snapshot of {worker_id}: heartbeat "
                        f"sequence went backwards (stats seq {stats_seq} "
                        f"vs registration seq {expected}; clock-skew "
                        "debris)"))
            _repair_unlink(finding, path)
            report.findings.append(finding)
            continue
        if age <= STALE_STATS_SECONDS:
            continue
        finding = Finding(
            kind="board-debris", path=_relative(path),
            detail=f"worker stats snapshot of {worker_id}: "
                   f"last published {age:.0f}s ago")
        _repair_unlink(finding, path)
        report.findings.append(finding)

    # -- debris: reclaim asides, duplicate markers, torn publishes ----------
    debris = (
        sorted(board.claims_dir.glob("*.claim.reclaimed-*"))
        + sorted(board.done_dir.glob("*.dup-*"))
        + sorted(board_root.rglob(".*.tmp"))  # covers .bp-* publishes too
    )
    for path in debris:
        kinds = {"reclaimed": "reaper rename-aside debris",
                 "dup": "duplicate-execution marker (lost a "
                        "first-commit-wins race)"}
        what = ("torn exclusive-publish temp file"
                if path.suffix == ".tmp"
                else kinds["dup" if ".dup-" in path.name else "reclaimed"])
        finding = Finding(kind="board-debris", path=_relative(path),
                          detail=what)
        _repair_unlink(finding, path)
        report.findings.append(finding)


def _scan_pending(root: Path, report: DoctorReport,
                  requeue: bool = False) -> None:
    path = root / PENDING_NAME
    if not path.exists():
        return
    doc = None
    try:
        doc = json.loads(path.read_text())
        n = len(doc.get("jobs", [])) if isinstance(doc, dict) else 0
        detail = (f"{n} drained job(s) awaiting resubmission "
                  "(rerun the batch; completed jobs hit the cache)")
    except (OSError, ValueError):
        detail = "unreadable pending-batch file"
    finding = Finding(kind="pending-batch", path=path.name, detail=detail)
    if isinstance(doc, dict):
        report.pending = doc
    if requeue:
        try:
            os.unlink(path)
            finding.repaired = True
            finding.action = ("cleared (specs carried in this report)"
                              if isinstance(doc, dict)
                              else "cleared (unreadable; nothing to carry)")
        except FileNotFoundError:
            finding.repaired = True
            finding.action = "already gone"
    report.findings.append(finding)
