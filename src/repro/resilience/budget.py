"""The wall-clock budget of the mapping pipeline.

A :class:`Budget` is created once per mapping job (CLI ``--deadline``,
:class:`~repro.service.jobs.JobRuntime`) and threaded through
``RAHTMMapper.map()`` into phase 2 (MILP subproblems) and phase 3 (merge
levels). It tracks the seconds remaining until the global deadline;
phase 2 divides what remains across its outstanding subproblems so every
MILP gets a shrinking ``time_limit`` and the sum stays under the deadline.

An exhausted budget never raises: each phase falls down its degradation
ladder and still produces a valid mapping. A job that must fail instead
of overrunning takes a ``--job-timeout``.
"""

from __future__ import annotations

import time

from repro.errors import ConfigError

__all__ = ["Budget"]

#: Smallest per-subproblem solver time limit worth issuing (seconds);
#: below this the MILP cannot find an incumbent and the greedy ladder
#: rung is both faster and better.
MIN_SOLVER_SLICE = 0.05


class Budget:
    """A depleting wall-clock budget.

    Parameters
    ----------
    wall_seconds:
        Global deadline in seconds from construction (None = unlimited).
    clock:
        Monotonic time source, injectable for tests.
    """

    def __init__(
        self,
        wall_seconds: float | None = None,
        clock=time.monotonic,
    ):
        if wall_seconds is not None and wall_seconds <= 0:
            raise ConfigError("wall_seconds must be > 0 (or None)")
        self.wall_seconds = wall_seconds
        self._clock = clock
        self._start = clock()

    # -- wall clock ---------------------------------------------------------------
    def elapsed(self) -> float:
        return self._clock() - self._start

    def remaining(self) -> float:
        """Seconds left; ``inf`` when no wall deadline is set."""
        if self.wall_seconds is None:
            return float("inf")
        return self.wall_seconds - self.elapsed()

    def exhausted(self) -> bool:
        """True once the deadline has passed: the caller must degrade."""
        return self.remaining() <= 0.0

    def solver_slice(self, default: float | None, parts: int = 1) -> float | None:
        """Per-subproblem solver ``time_limit``: the configured default
        capped by an even share of the remaining wall clock over ``parts``
        outstanding subproblems.

        Returns None (no limit) only when both the default and the wall
        deadline are unlimited; returns at most the remaining wall time so
        a single solve can never blow the global deadline.
        """
        rem = self.remaining()
        if rem == float("inf"):
            return default
        share = max(rem / max(parts, 1), MIN_SOLVER_SLICE)
        share = min(share, max(rem, MIN_SOLVER_SLICE))
        if default is None:
            return share
        return min(default, share)

    # -- reporting ----------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe summary for ``mapper.stats['budget']`` / telemetry."""
        return {
            "wall_seconds": self.wall_seconds,
            "elapsed_seconds": self.elapsed(),
        }

    def __repr__(self) -> str:
        wall = "inf" if self.wall_seconds is None else f"{self.wall_seconds:g}s"
        return f"Budget(wall={wall}, remaining={self.remaining():.3f}s)"
