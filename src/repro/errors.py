"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` from
misuse of numpy, etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TopologyError",
    "RoutingError",
    "MappingError",
    "CommGraphError",
    "WorkloadError",
    "SolverError",
    "InfeasibleError",
    "ConfigError",
    "SimulationError",
    "ServiceError",
    "StoreLockError",
    "JobTimeoutError",
    "CheckpointError",
    "FaultInjectionError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class TopologyError(ReproError):
    """Invalid topology construction or query (bad shape, unknown node...)."""


class RoutingError(ReproError):
    """Routing failure: no legal path, malformed flow, unsupported topology."""


class MappingError(ReproError):
    """Invalid task-to-node mapping (non-bijective, capacity violation...)."""


class CommGraphError(ReproError):
    """Malformed communication graph (negative volume, self-loop misuse...)."""


class WorkloadError(ReproError):
    """Workload generator misuse (non-square process count for BT...)."""


class SolverError(ReproError):
    """LP/MILP solver failure other than infeasibility (numerical, limits)."""


class InfeasibleError(SolverError):
    """The optimization model was proven infeasible."""


class ConfigError(ReproError):
    """Invalid experiment or algorithm configuration."""


class SimulationError(ReproError):
    """Network/application simulation failure."""


class ServiceError(ReproError):
    """Mapping-service failure (job spec, result store, executor, engine)."""


class StoreLockError(ServiceError):
    """A cross-process store lock could not be acquired before timeout."""


class JobTimeoutError(ServiceError):
    """A mapping job exceeded its configured time budget."""


class CheckpointError(ReproError):
    """Phase-checkpoint persistence failure (malformed state, bad store)."""


class FaultInjectionError(ReproError):
    """An injected fault from the chaos harness (never raised in production
    unless fault injection was explicitly armed)."""
