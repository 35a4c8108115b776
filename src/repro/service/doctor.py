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
  location) is fsck'd recursively with the same rules.

The exit contract is binary: a directory is **clean** when it has no
*problem* findings (``corrupt-artifact``, ``stale-schema``,
``orphan-tmp``, ``stale-lock``, ``missing-root``). Informational
findings (``quarantine-entry``, ``active-lock``, ``pending-batch``)
never fail a directory — quarantine is where problems go to be *handled*, so its contents are
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
    "stale-lock",
})


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
