"""Deterministic, seeded fault injection for chaos testing.

The pipeline carries named **injection points** at its failure-prone
seams; each is a no-op unless a :class:`FaultPlan` arms it:

===================== ============================================== =========================
point                 placed at                                      effect when armed
===================== ============================================== =========================
solver-fail           ``core.milp.solve_cluster_{milp,mar}`` entry    raises ``SolverError``
solver-slow           ``core.milp.solve_cluster_{milp,mar}`` entry    sleeps ``delay`` seconds
worker-crash          executor worker entry (``_invoke``)             ``os._exit(13)`` in a pool
                                                                      worker; raises
                                                                      ``FaultInjectionError``
                                                                      in-process
store-corrupt         ``ResultStore.put``                             writes a corrupt artifact
store-enospc          ``ResultStore.put`` mid-write                   raises ``OSError(ENOSPC)``
checkpoint-torn-write ``MapperCheckpoint.save``                       writes a torn (truncated)
                                                                      checkpoint file
serve-enqueue         ``MappingDaemon.submit`` before enqueue         raises
                                                                      ``FaultInjectionError``
===================== ============================================== =========================

A second family of **kill points** (:data:`KILL_POINTS`) SIGKILLs the
*current process* at a precise step of the store's commit protocol:

===================== ==============================================
kill point            process dies with
===================== ==============================================
store-kill-tmp        an empty temp file created, nothing written
store-kill-mid-write  a torn (half-written) temp file
store-kill-pre-rename temp file complete + fsynced, not yet renamed
store-kill-post-rename artifact renamed into place, directory not
                      yet fsynced
===================== ==============================================

Kill points are never part of :data:`INJECTION_POINTS` (the chaos
matrix must not SIGKILL the test runner); they are armed via
``REPRO_FAULTS`` inside the dedicated subprocess crash harness
(``tests/test_crash_consistency.py``), which asserts the store stays
consistent after every one of them.

Plans are activated programmatically (:func:`activate`, the
:func:`injected_faults` context manager) or via the environment — which
worker processes inherit::

    REPRO_FAULTS="solver-fail,worker-crash:1,solver-slow:2:0.25"
    REPRO_FAULT_HITS_DIR=/tmp/hits    # cross-process hit accounting
    REPRO_FAULT_SEED=7                # probability draws (rarely needed)

Each spec is ``point[:max_hits[:delay]]``; ``max_hits`` bounds how many
times the fault fires (``*`` = unlimited) and defaults to 1, so a chaos
run exercises the failure path once and then proves recovery. Hit
counters are per-process by default; ``REPRO_FAULT_HITS_DIR`` shares
them across processes via atomically-claimed marker files, which keeps
plans deterministic under the process-pool executor (a fault that fired
in a crashed worker stays consumed in its replacement).
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import random
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigError, FaultInjectionError, SolverError

__all__ = [
    "INJECTION_POINTS",
    "KILL_POINTS",
    "FaultSpec",
    "FaultPlan",
    "activate",
    "deactivate",
    "injected_faults",
    "inject",
    "fires",
]

INJECTION_POINTS = (
    "solver-fail",
    "solver-slow",
    "worker-crash",
    "store-corrupt",
    "store-enospc",
    "checkpoint-torn-write",
    "serve-enqueue",
)

#: SIGKILL-the-writer points along the store commit protocol. Deliberately
#: not in INJECTION_POINTS: the chaos matrix iterates that tuple in the
#: test runner's own process, and these points kill whoever hits them.
KILL_POINTS = (
    "store-kill-tmp",
    "store-kill-mid-write",
    "store-kill-pre-rename",
    "store-kill-post-rename",
)

ENV_FAULTS = "REPRO_FAULTS"
ENV_HITS_DIR = "REPRO_FAULT_HITS_DIR"
ENV_SEED = "REPRO_FAULT_SEED"


@dataclass(frozen=True)
class FaultSpec:
    """One armed injection point.

    ``max_hits=None`` means unlimited; ``delay`` only matters for
    ``solver-slow``; ``probability < 1`` makes each potential hit a
    seeded coin flip (draws come from the plan's RNG, so runs with the
    same seed and call sequence inject identically).
    """

    point: str
    max_hits: int | None = 1
    delay: float = 0.05
    probability: float = 1.0

    def __post_init__(self):
        known = INJECTION_POINTS + KILL_POINTS
        if self.point not in known:
            raise ConfigError(
                f"unknown injection point {self.point!r}; choose from {known}"
            )
        if self.max_hits is not None and self.max_hits < 0:
            raise ConfigError("max_hits must be >= 0 (or None for unlimited)")
        if self.delay < 0:
            raise ConfigError("delay must be >= 0")
        if not (0.0 <= self.probability <= 1.0):
            raise ConfigError("probability must be in [0, 1]")


class FaultPlan:
    """A set of armed faults plus deterministic hit accounting."""

    def __init__(self, specs, seed: int = 0, hits_dir=None):
        self.specs: dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.point in self.specs:
                raise ConfigError(f"duplicate fault spec for {spec.point!r}")
            self.specs[spec.point] = spec
        self.hits_dir = Path(hits_dir) if hits_dir is not None else None
        self.seed = seed
        self._rng = random.Random(seed)
        self._local_hits: dict[str, int] = {}

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan | None":
        environ = os.environ if environ is None else environ
        raw = environ.get(ENV_FAULTS, "").strip()
        if not raw:
            return None
        specs = []
        for chunk in raw.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            point = parts[0]
            max_hits: int | None = 1
            if len(parts) > 1 and parts[1]:
                max_hits = None if parts[1] in ("*", "inf") else int(parts[1])
            delay = float(parts[2]) if len(parts) > 2 and parts[2] else 0.05
            specs.append(FaultSpec(point, max_hits=max_hits, delay=delay))
        return cls(
            specs,
            seed=int(environ.get(ENV_SEED, "0")),
            hits_dir=environ.get(ENV_HITS_DIR) or None,
        )

    # -- hit accounting -----------------------------------------------------------
    def _claim_shared(self, spec: FaultSpec) -> bool:
        """Claim the next cross-process hit slot for ``spec`` (marker files
        created O_EXCL, so exactly one process wins each slot)."""
        assert self.hits_dir is not None and spec.max_hits is not None
        self.hits_dir.mkdir(parents=True, exist_ok=True)
        for i in range(spec.max_hits):
            path = self.hits_dir / f"{spec.point}.{i}"
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False

    def claim(self, point: str) -> FaultSpec | None:
        """The spec to fire at ``point`` now, or None (consumes a hit)."""
        spec = self.specs.get(point)
        if spec is None:
            return None
        if spec.probability < 1.0 and self._rng.random() >= spec.probability:
            return None
        if spec.max_hits is None:
            return spec
        if self.hits_dir is not None:
            return spec if self._claim_shared(spec) else None
        used = self._local_hits.get(point, 0)
        if used >= spec.max_hits:
            return None
        self._local_hits[point] = used + 1
        return spec


# -- active-plan resolution -----------------------------------------------------------
_ACTIVE: FaultPlan | None = None
_ENV_CACHE: tuple[tuple, FaultPlan | None] = ((), None)


def activate(plan: FaultPlan | None) -> None:
    """Arm ``plan`` for this process (overrides the environment)."""
    global _ACTIVE
    _ACTIVE = plan


def deactivate() -> None:
    """Disarm any programmatic plan (environment plans resume applying)."""
    activate(None)


@contextmanager
def injected_faults(*specs: FaultSpec, seed: int = 0, hits_dir=None):
    """Arm the given faults for the duration of the block (tests)."""
    previous = _ACTIVE
    activate(FaultPlan(specs, seed=seed, hits_dir=hits_dir))
    try:
        yield
    finally:
        activate(previous)


def _active() -> FaultPlan | None:
    if _ACTIVE is not None:
        return _ACTIVE
    global _ENV_CACHE
    key = (
        os.environ.get(ENV_FAULTS, ""),
        os.environ.get(ENV_HITS_DIR, ""),
        os.environ.get(ENV_SEED, ""),
    )
    # Rebuilding on every call would reset per-process hit counters, so
    # the parsed plan is cached until the environment actually changes.
    if _ENV_CACHE[0] != key:
        _ENV_CACHE = (key, FaultPlan.from_env())
    return _ENV_CACHE[1]


# -- the two hook shapes --------------------------------------------------------------
def _in_pool_worker() -> bool:
    return multiprocessing.parent_process() is not None


def inject(point: str) -> None:
    """Raising/sleeping injection hook; a no-op unless ``point`` is armed."""
    plan = _active()
    if plan is None:
        return
    spec = plan.claim(point)
    if spec is None:
        return
    if point in KILL_POINTS:
        # Simulate a hard crash (power loss, OOM kill) at this exact
        # step: no cleanup handlers, no atexit, no flushing.
        os.kill(os.getpid(), signal.SIGKILL)
    if point == "solver-slow":
        time.sleep(spec.delay)
        return
    if point == "solver-fail":
        raise SolverError(f"injected fault at {point!r}")
    if point == "store-enospc":
        raise OSError(errno.ENOSPC, f"injected fault at {point!r}: "
                                    "no space left on device")
    if point == "worker-crash" and _in_pool_worker():
        os._exit(13)
    raise FaultInjectionError(f"injected fault at {point!r}")


def fires(point: str) -> bool:
    """Behavioral injection hook: True when the caller should corrupt its
    own write path (store-corrupt, checkpoint-torn-write)."""
    plan = _active()
    if plan is None:
        return False
    return plan.claim(point) is not None
