"""Robustness layer: budgets, graceful degradation, checkpoints, chaos.

``repro.resilience`` makes long-running mapping jobs survivable:

- :mod:`~repro.resilience.budget` — a depleting wall-clock :class:`Budget`
  threaded from the CLI and service runtime into every phase, so a
  global ``--deadline`` is enforced end to end;
- :mod:`~repro.resilience.degrade` — structured
  :class:`DegradationEvent` records of every fallback-ladder step
  (MILP → greedy → static placement, full merge → first-fit);
- :mod:`~repro.resilience.checkpoint` — phase-level
  :class:`MapperCheckpoint` state in the content-addressed store, so a
  killed job resumes with zero repeat MILP solves;
- :mod:`~repro.resilience.faultinject` — deterministic fault injection
  at named points, powering the chaos test suite.

The package sits just above ``errors``/``utils`` in the layering: core
and service both import it, it imports neither.
"""

from repro.resilience.budget import Budget
from repro.resilience.checkpoint import MapperCheckpoint
from repro.resilience.degrade import DegradationEvent, DegradationLog
from repro.resilience.faultinject import (
    INJECTION_POINTS,
    KILL_POINTS,
    FaultPlan,
    FaultSpec,
    injected_faults,
)

__all__ = [
    "Budget",
    "MapperCheckpoint",
    "DegradationEvent",
    "DegradationLog",
    "INJECTION_POINTS",
    "KILL_POINTS",
    "FaultPlan",
    "FaultSpec",
    "injected_faults",
]
