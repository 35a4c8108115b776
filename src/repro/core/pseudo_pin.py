"""Phase 2 — top-down hierarchical MILP mapping ("pseudo-pinning").

Starting at the root, each cluster's ``2^n`` children are mapped onto the
parent block's child cube (Figures 5-6): exactly under MAR by enumeration
on cubes of up to 8 vertices, by the Table II MILP on larger ones. The
placements are *pseudo*-pins: phase 3 may later reorient whole blocks,
but the relative arrangement inside each block is decided here.

Identical sibling subproblems (same child communication graph) are solved
once and copied — the paper's symmetry trick for reducing compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.clustering import ClusterHierarchy
from repro.core.milp import (
    MAR_ENUMERATION_MAX_VERTICES,
    MILPResult,
    greedy_assignment,
    solve_cluster_mar,
    solve_cluster_milp,
    static_assignment,
)
from repro.errors import ConfigError, SolverError
from repro.observability.metrics import get_registry
from repro.observability.trace import span
from repro.topology.hierarchy import CubeHierarchy
from repro.utils.logconf import get_logger

__all__ = ["PinResult", "pseudo_pin"]

log = get_logger("core.pseudo_pin")


@dataclass
class PinResult:
    """Phase-2 output.

    Attributes
    ----------
    cluster_to_node:
        Topology node id per node-cluster (a bijection onto block nodes).
    milp_stats:
        One entry per *distinct* subproblem solved.
    cache_hits:
        Subproblems satisfied from the symmetry cache.
    """

    cluster_to_node: np.ndarray
    milp_stats: list[MILPResult] = field(default_factory=list)
    cache_hits: int = 0

    @property
    def all_optimal(self) -> bool:
        return all(r.optimal for r in self.milp_stats)


def _signature(local_edges, num_children: int, cube) -> tuple:
    return (
        cube.shape,
        cube.wrap,
        num_children,
        tuple(sorted((int(s), int(d), round(float(v), 9))
                     for s, d, v in local_edges)),
    )


def pseudo_pin(
    hierarchy: ClusterHierarchy,
    cube_h: CubeHierarchy,
    time_limit: float | None = 120.0,
    mip_rel_gap: float | None = None,
    use_milp: bool = True,
    budget=None,
    degradation=None,
) -> PinResult:
    """Map every node-cluster to a topology node, top-down.

    Cubes of up to :data:`~repro.core.milp.MAR_ENUMERATION_MAX_VERTICES`
    vertices are solved exactly under MAR by
    :func:`repro.core.milp.solve_cluster_mar`. Larger ones go to
    :func:`repro.core.milp.solve_cluster_milp`, which solves the full
    Table II model (C3 and the symmetry break) within ``time_limit`` and
    ``mip_rel_gap``. ``use_milp=False`` swaps in the greedy placer
    (ablation of the paper's optimal-leaf-solve design decision).

    ``budget`` (a :class:`~repro.resilience.Budget`) turns on the
    degradation ladder: each MILP's ``time_limit`` shrinks to an even
    share of the remaining wall clock over the outstanding levels; a
    solver failure drops to the greedy placer; an exhausted wall budget
    drops to the static dimension-order placement. Every ladder step is
    appended to ``degradation`` (a :class:`~repro.resilience.DegradationLog`).
    """
    q = cube_h.num_levels
    if len(hierarchy.levels) != q:
        raise ConfigError(
            f"hierarchy has {len(hierarchy.levels)} levels, topology needs {q}"
        )
    if hierarchy.graph_at(q).num_tasks != 1:
        raise ConfigError("hierarchy root must be a single cluster")
    branching = 2**cube_h.n

    # block_at[level][cluster] = block id containing that cluster.
    block_at: dict[int, np.ndarray] = {
        q: np.zeros(1, dtype=np.int64)
    }
    cache: dict[tuple, np.ndarray] = {}
    stats: list[MILPResult] = []
    cache_hits = 0

    for level in range(q, 0, -1):
        with span("rahtm.pseudo_pin.level", level=level,
                  parents=hierarchy.graph_at(level).num_tasks) as level_span:
            solved_before, hits_before = len(stats), cache_hits
            child_graph = hierarchy.graph_at(level - 1)
            parents = hierarchy.graph_at(level).num_tasks
            cube = cube_h.child_cube(level)
            child_blocks = np.empty(child_graph.num_tasks, dtype=np.int64)
            for parent in range(parents):
                children = hierarchy.children_of(level, parent)
                if len(children) != branching:
                    raise ConfigError(
                        f"cluster {parent} at level {level} has "
                        f"{len(children)} children, expected {branching}"
                    )
                # Local intra-parent subgraph (children relabeled 0..2^n-1).
                lookup = {int(c): i for i, c in enumerate(children)}
                mask = np.isin(child_graph.srcs, children) & np.isin(
                    child_graph.dsts, children
                )
                local_edges = [
                    (lookup[int(s)], lookup[int(d)], float(v))
                    for s, d, v in zip(
                        child_graph.srcs[mask],
                        child_graph.dsts[mask],
                        child_graph.vols[mask],
                    )
                ]
                sig = _signature(local_edges, branching, cube)
                assignment = cache.get(sig)
                if assignment is None:
                    from repro.commgraph.graph import CommGraph

                    local = CommGraph.from_edges(branching, local_edges)
                    # Degradation ladder: MILP -> greedy -> static. The wall
                    # budget kills everything but the O(A) static placement;
                    # a solver error only demotes the MILP rung.
                    mode = "milp" if use_milp else "greedy"
                    reason = None
                    if budget is not None and budget.enforce("phase2"):
                        mode, reason = "static", "budget-exhausted"
                    if mode == "milp":
                        try:
                            if cube.num_nodes <= MAR_ENUMERATION_MAX_VERTICES:
                                res = solve_cluster_mar(cube, local)
                            else:
                                limit = time_limit
                                if budget is not None:
                                    limit = budget.solver_slice(
                                        time_limit, parts=level)
                                res = solve_cluster_milp(
                                    cube, local,
                                    time_limit=limit, mip_rel_gap=mip_rel_gap,
                                )
                        except SolverError as exc:
                            mode, reason = "greedy", "solver-error"
                            log.warning(
                                "phase 2 MILP at level %d failed (%s); "
                                "greedy fallback", level, exc,
                            )
                            if degradation is not None:
                                degradation.record(
                                    "phase2", "milp->greedy", "solver-error",
                                    level=level, error=str(exc),
                                )
                        else:
                            assignment = res.assignment
                            stats.append(res)
                    if mode == "greedy":
                        assignment, mcl = greedy_assignment(cube, local)
                        stats.append(MILPResult(
                            assignment=assignment, mcl=mcl, optimal=False,
                            status="greedy" if reason is None
                            else f"degraded:{reason}",
                            method="greedy",
                        ))
                    elif mode == "static":
                        assignment, mcl = static_assignment(cube, local)
                        stats.append(MILPResult(
                            assignment=assignment, mcl=mcl, optimal=False,
                            status=f"degraded:{reason}", method="static",
                        ))
                        if degradation is not None:
                            degradation.record("phase2", "milp->static",
                                               reason, level=level)
                    cache[sig] = assignment
                else:
                    cache_hits += 1
                parent_block = int(block_at[level][parent])
                for i, child in enumerate(children):
                    corner = int(assignment[i])
                    origin = cube_h.corner_origin(level, parent_block, corner)
                    node = int(cube_h.topology.index(origin))
                    child_blocks[int(child)] = cube_h.block_of(node, level - 1)
            block_at[level - 1] = child_blocks
            level_span.set(solved=len(stats) - solved_before,
                           cache_hits=cache_hits - hits_before)

    # Level-0 blocks are single nodes.
    cluster_to_node = np.empty(hierarchy.num_node_clusters, dtype=np.int64)
    for c in range(hierarchy.num_node_clusters):
        nodes = cube_h.block_nodes(0, int(block_at[0][c]))
        if len(nodes) != 1:
            raise ConfigError(
                "level-0 block spans multiple nodes; topology has non-trivial "
                "inactive dimensions — fold them first (RAHTMMapper)"
            )
        cluster_to_node[c] = nodes[0]
    if len(np.unique(cluster_to_node)) != len(cluster_to_node):
        raise ConfigError("pseudo-pinning produced a non-injective placement")
    registry = get_registry()
    registry.counter("pin.subproblems").inc(len(stats))
    registry.counter("pin.cache_hits").inc(cache_hits)
    log.info(
        "phase 2: %d subproblems solved, %d cache hits",
        len(stats), cache_hits,
    )
    return PinResult(cluster_to_node, stats, cache_hits)
