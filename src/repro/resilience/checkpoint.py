"""Phase-level checkpoint/resume for mapping jobs.

``RAHTMMapper.map()`` persists intermediate state after each completed
phase — the phase-2 pseudo-pin and the phase-3 merge result of the
uniform map (the half map, when arity-2 dimensions are mirrored) — into a
content-addressed :class:`~repro.service.store.ResultStore`. Checkpoint
keys are derived from the owning job's cache key plus a stage name, so a
killed or timed-out job that reruns (same spec ⇒ same job key) resumes
from the last completed phase instead of recomputing: in particular a
resumed job performs **zero repeat MILP solves** for checkpointed stages.

Checkpoints are written on completion of a stage (atomic store writes),
loaded only when resume is enabled, and cleared once the whole mapping
succeeds — at that point the job's final artifact supersedes them.

Durability follows the store's discipline end to end: checkpoint
artifacts carry the store's per-entry SHA-256 checksum, a torn or
bit-flipped checkpoint is quarantined (with a corruption report) on
load rather than silently dropped, and a checkpoint that *parses* but
fails semantic validation (wrong stage/job/shape) is quarantined too —
both degrade to "recompute this stage", never to wrong results. Saving
is best-effort: a full disk (ENOSPC) loses the checkpoint, not the job.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CheckpointError
from repro.resilience import faultinject
from repro.utils.hashing import stable_hash
from repro.utils.logconf import get_logger

__all__ = ["CHECKPOINT_SCHEMA_VERSION", "MapperCheckpoint"]

log = get_logger("resilience.checkpoint")

#: Version of the checkpoint state schema; bump on shape changes so stale
#: checkpoints from older code miss cleanly.
CHECKPOINT_SCHEMA_VERSION = 1


class MapperCheckpoint:
    """Stage-keyed checkpoint reader/writer for one mapping job.

    Parameters
    ----------
    store:
        A :class:`~repro.service.store.ResultStore` (or anything with its
        ``get``/``put``/``path_for``/``evict`` surface) holding the
        checkpoint artifacts.
    job_key:
        The owning job's content-addressed cache key; every stage key is
        a hash over ``(job_key, stage)``, so checkpoints can never leak
        between jobs.
    resume:
        When False, :meth:`load` always misses (writes still happen), so
        a non-``--resume`` run never trusts leftover state.
    """

    def __init__(self, store, job_key: str, resume: bool = True):
        if not job_key:
            raise CheckpointError("checkpoint requires a non-empty job key")
        self.store = store
        self.job_key = str(job_key)
        self.resume = resume
        self.loaded: list[str] = []
        self.saved: list[str] = []

    def key_for(self, stage: str) -> str:
        return stable_hash({
            "checkpoint": CHECKPOINT_SCHEMA_VERSION,
            "job": self.job_key,
            "stage": stage,
        })

    # -- read ---------------------------------------------------------------------
    def load(self, stage: str) -> dict | None:
        """The saved state for ``stage``, or None (miss/corrupt/disabled)."""
        if not self.resume:
            return None
        payload = self.store.get(self.key_for(stage))
        if payload is None:
            return None
        if (payload.get("kind") != "checkpoint"
                or payload.get("stage") != stage
                or payload.get("job") != self.job_key
                or not isinstance(payload.get("state"), dict)):
            log.warning("quarantining malformed checkpoint for stage %r",
                        stage)
            self._discard(stage, "malformed checkpoint state")
            return None
        self.loaded.append(stage)
        log.info("resumed stage %r from checkpoint", stage)
        return payload["state"]

    def _discard(self, stage: str, reason: str) -> None:
        """Quarantine a bad checkpoint (evict when the store predates
        quarantine support — the documented duck-typed surface)."""
        quarantine = getattr(self.store, "quarantine_key", None)
        if callable(quarantine):
            quarantine(self.key_for(stage), reason=reason)
        else:
            self.store.evict(self.key_for(stage))

    def load_assignment(self, stage: str, field: str = "assignment",
                        expect_len: int | None = None) -> np.ndarray | None:
        """Load one integer-array field, validating its length."""
        state = self.load(stage)
        if state is None:
            return None
        try:
            arr = np.asarray(state[field], dtype=np.int64)
        except (KeyError, TypeError, ValueError):
            log.warning("checkpoint stage %r has no usable %r field",
                        stage, field)
            return None
        if expect_len is not None and len(arr) != expect_len:
            log.warning("checkpoint stage %r length %d != expected %d; "
                        "recomputing", stage, len(arr), expect_len)
            return None
        return arr

    # -- write --------------------------------------------------------------------
    def save(self, stage: str, state: dict) -> None:
        """Persist ``state`` (JSON-safe) for ``stage``."""
        key = self.key_for(stage)
        payload = {
            "kind": "checkpoint",
            "job": self.job_key,
            "stage": stage,
            "state": state,
        }
        if faultinject.fires("checkpoint-torn-write"):
            # Simulate a power-loss/non-atomic writer: the artifact exists
            # but holds truncated JSON. Resume must detect and recompute.
            path = self.store.path_for(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text('{"kind": "checkpoint", "stage": "' + stage)
            self.saved.append(stage)
            return
        try:
            self.store.put(key, payload)
        except OSError as exc:
            # Checkpoints are an optimization: a full disk costs this
            # stage's resume point, never the mapping itself.
            log.warning("checkpoint save for stage %r failed (%s); "
                        "continuing without it", stage, exc)
            return
        self.saved.append(stage)

    def save_assignment(self, stage: str, assignment: np.ndarray,
                        **extra) -> None:
        self.save(stage, {
            "assignment": [int(x) for x in np.asarray(assignment).ravel()],
            **extra,
        })

    # -- lifecycle ----------------------------------------------------------------
    def clear(self) -> int:
        """Drop every stage this run touched; returns the number evicted."""
        count = 0
        for stage in dict.fromkeys(self.saved + self.loaded):
            if self.store.evict(self.key_for(stage)):
                count += 1
        self.saved.clear()
        self.loaded.clear()
        return count

    def stats(self) -> dict:
        return {"loaded": list(self.loaded), "saved": list(self.saved)}
