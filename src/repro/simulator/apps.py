"""Calibrated benchmark application models.

Builders return an :class:`ApplicationModel` whose per-iteration phases
carry the benchmark's serialized communication structure (BT/SP sweep
directions, CG reduction steps) and whose compute time is calibrated so
the communication fraction under a *reference mapping* matches the paper's
Figure 9 (CG > 70%, BT/SP ~35-40%).
"""

from __future__ import annotations

from repro.commgraph.graph import CommGraph
from repro.simulator.app import ApplicationModel
from repro.workloads.nas import (
    _resolve_class,
    cg_phase_edges,
    multipartition_face_bytes,
    multipartition_phase_pairs,
)
from repro.workloads.stencil import halo_nd

__all__ = [
    "bt_application",
    "sp_application",
    "cg_application",
    "halo_application",
    "PAPER_COMM_FRACTIONS",
]

# Figure 9 of the paper: communication share of execution time under the
# default ABCDET mapping.
PAPER_COMM_FRACTIONS = {"BT": 0.35, "SP": 0.40, "CG": 0.72}


def _multipartition_application(
    name: str, num_tasks: int, problem_class, words: int, sweeps: int,
) -> ApplicationModel:
    problem = _resolve_class(problem_class)
    q, face_bytes = multipartition_face_bytes(
        num_tasks, problem, words, sweeps
    )
    phases = tuple(
        CommGraph.from_edges(
            num_tasks, [(s, d, face_bytes) for s, d in pairs],
            grid_shape=(q, q),
        )
        for pairs in multipartition_phase_pairs(q)
    )
    return ApplicationModel(
        name=name, phases=phases, iterations=problem.iterations,
        compute_seconds_per_iter=0.0,
    )


def bt_application(num_tasks: int, problem_class="C") -> ApplicationModel:
    """NAS BT: six serialized face-exchange phases per time step."""
    return _multipartition_application("BT", num_tasks, problem_class, 25, 1)


def sp_application(num_tasks: int, problem_class="C") -> ApplicationModel:
    """NAS SP: the same sweeps with scalar payloads, two passes each."""
    return _multipartition_application("SP", num_tasks, problem_class, 5, 2)


def cg_application(num_tasks: int, problem_class="C") -> ApplicationModel:
    """NAS CG: transpose exchange + recursive-halving reduction steps."""
    problem = _resolve_class(problem_class)
    phase_edges, grid = cg_phase_edges(num_tasks, problem_class)
    phases = tuple(
        CommGraph.from_edges(num_tasks, edges, grid_shape=grid)
        for edges in phase_edges if edges
    )
    return ApplicationModel(
        name="CG", phases=phases, iterations=problem.iterations,
        compute_seconds_per_iter=0.0,
    )


def halo_application(
    grid_shape, volume: float = 1.0, iterations: int = 100, wrap: bool = True,
) -> ApplicationModel:
    """Generic stencil: one phase per (dimension, direction)."""
    import numpy as np

    full = halo_nd(grid_shape, volume=volume, wrap=wrap)
    # Split the aggregate halo into per-(dimension, direction) phases.
    gs = np.asarray(full.grid_shape, dtype=np.int64)
    n = len(gs)
    strides = np.ones(n, dtype=np.int64)
    for d in range(n - 2, -1, -1):
        strides[d] = strides[d + 1] * gs[d + 1]

    def coords(t):
        return (t[:, None] // strides[None, :]) % gs[None, :]

    diff = coords(full.dsts) - coords(full.srcs)
    # Reduce each dimension's offset to the wrapped representative.
    wrapped = diff.copy()
    for d in range(n):
        k = int(gs[d])
        wrapped[:, d] = np.where(diff[:, d] == k - 1, -1, wrapped[:, d])
        wrapped[:, d] = np.where(diff[:, d] == -(k - 1), 1, wrapped[:, d])
    phases = []
    for d in range(n):
        others_zero = np.ones(len(diff), dtype=bool)
        for dd in range(n):
            if dd != d:
                others_zero &= wrapped[:, dd] == 0
        for sign in (1, -1):
            mask = (wrapped[:, d] == sign) & others_zero
            if mask.any():
                phases.append(CommGraph(
                    full.num_tasks, full.srcs[mask], full.dsts[mask],
                    full.vols[mask], grid_shape=full.grid_shape,
                ))
    if not phases:
        phases = [full]
    return ApplicationModel(
        name="halo", phases=tuple(phases), iterations=iterations,
        compute_seconds_per_iter=0.0,
    )
