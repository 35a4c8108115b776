"""Phase 2's optimizer: the Table II MILP and its companions.

The mixed-integer linear program maps a cluster graph onto a small 2-ary
n-cube while *jointly* choosing the routing, minimizing the maximum
channel load:

- **C1** — every cluster on exactly one vertex, every vertex holding at
  most one cluster (binary placement variables ``g[a, v]``).
- **C2** — per-flow conservation with *floating endpoints*: the net
  outflow at vertex ``v`` equals ``l_i * (g[s_i, v] - g[d_i, v])``, so the
  same constraints serve source, destination, and intermediate vertices.
- **C3** — minimal routing: per flow and dimension a binary ``r[i, dim]``
  allows flow in only one direction (the paper notes this is exact for the
  mesh sub-cubes; the root's 2-ary torus reduces to a mesh with double-wide
  links, which we model as arc multiplicity 2).

The objective is the max channel load ``z`` with ``sum_i f_i(arc) <=
mult(arc) * z`` per arc.

Companions: :func:`solve_routing_lp` (optimal minimal routing for a fixed
placement — pure LP), :func:`brute_force_mapping` (exhaustive placement
search for cross-checking optimality on tiny cubes), and
:func:`greedy_assignment` (the no-MILP fallback/ablation).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.commgraph.graph import CommGraph
from repro.errors import SolverError
from repro.lp import Model, SolveStatus, lpsum
from repro.observability.metrics import get_registry
from repro.observability.trace import span
from repro.resilience import faultinject
from repro.routing.minimal_adaptive import MinimalAdaptiveRouter
from repro.topology.cartesian import CartesianTopology
from repro.utils.logconf import get_logger

__all__ = [
    "CubeArcs",
    "MILPResult",
    "solve_cluster_milp",
    "solve_routing_lp",
    "brute_force_mapping",
    "greedy_assignment",
    "static_assignment",
]

log = get_logger("core.milp")


@dataclass(frozen=True)
class CubeArcs:
    """Directed arcs of a small cube with parallel channels merged.

    Attributes
    ----------
    srcs, dsts:
        Arc endpoints (node ids).
    dims:
        Dimension each arc spans.
    signs:
        Mesh-direction label (+1 / -1); for arity-2 torus dimensions the
        two parallel channels merge into one arc labelled by coordinate
        order, carrying ``mult == 2``.
    mults:
        Channel multiplicity (capacity in links).
    """

    srcs: np.ndarray
    dsts: np.ndarray
    dims: np.ndarray
    signs: np.ndarray
    mults: np.ndarray

    @property
    def num_arcs(self) -> int:
        return len(self.srcs)

    @classmethod
    def from_topology(cls, topo: CartesianTopology) -> "CubeArcs":
        coords = topo.coords_array
        merged: dict[tuple[int, int, int], list] = {}
        for slot in np.flatnonzero(topo.channel_valid):
            u = int(topo.channel_src[slot])
            v = int(topo.channel_dst[slot])
            d = int(topo.channel_dim[slot])
            key = (u, v, d)
            if key in merged:
                merged[key][1] += 1
                continue
            cu, cv = int(coords[u, d]), int(coords[v, d])
            k = topo.shape[d]
            if abs(cv - cu) == 1:
                sign = 1 if cv > cu else -1
            else:  # wraparound hop on a k>2 torus keeps its slot direction
                sign = 1 if topo.channel_dir[slot] == 0 else -1
            merged[key] = [sign, 1]
        keys = sorted(merged)
        return cls(
            srcs=np.array([k[0] for k in keys], dtype=np.int64),
            dsts=np.array([k[1] for k in keys], dtype=np.int64),
            dims=np.array([k[2] for k in keys], dtype=np.int64),
            signs=np.array([merged[k][0] for k in keys], dtype=np.int64),
            mults=np.array([merged[k][1] for k in keys], dtype=np.float64),
        )


@dataclass
class MILPResult:
    """Outcome of a cluster-mapping solve."""

    assignment: np.ndarray  # cluster -> vertex
    mcl: float
    optimal: bool
    status: str
    solve_seconds: float = 0.0
    num_vars: int = 0
    num_constraints: int = 0
    method: str = "milp"
    extras: dict = field(default_factory=dict)


def _network_flows(graph: CommGraph):
    mask = graph.srcs != graph.dsts
    return graph.srcs[mask], graph.dsts[mask], graph.vols[mask]


def solve_cluster_milp(
    cube: CartesianTopology,
    graph: CommGraph,
    time_limit: float | None = 120.0,
    mip_rel_gap: float | None = None,
    enforce_minimal: bool = True,
    fix_first: bool = True,
) -> MILPResult:
    """Solve the Table II MILP: place ``graph``'s clusters on ``cube``.

    Parameters
    ----------
    cube:
        Target topology (a 2-ary n-cube in RAHTM; any small mesh/torus
        works).
    graph:
        Cluster communication graph with ``num_tasks <= cube.num_nodes``.
    time_limit, mip_rel_gap:
        Solver budget; hitting the limit with an incumbent returns it with
        ``optimal=False``. No incumbent at all falls back to
        :func:`greedy_assignment`.
    enforce_minimal:
        Emit the C3 direction constraints.
    fix_first:
        Pin the heaviest cluster to vertex 0 — valid symmetry breaking on
        vertex-transitive cubes, cuts solve time substantially.
    """
    A = graph.num_tasks
    V = cube.num_nodes
    if A > V:
        raise SolverError(f"{A} clusters exceed {V} cube vertices")
    faultinject.inject("solver-fail")
    faultinject.inject("solver-slow")
    srcs, dsts, vols = _network_flows(graph)
    m = len(srcs)
    if m == 0:
        return MILPResult(
            assignment=np.arange(A, dtype=np.int64),
            mcl=0.0, optimal=True, status="trivial", method="trivial",
        )
    arcs = CubeArcs.from_topology(cube)
    E = arcs.num_arcs

    model = Model(f"rahtm-fission-{A}x{V}")
    z = model.add_var("mcl", lb=0.0)
    g = [[model.add_var(f"g[{a},{v}]", binary=True) for v in range(V)]
         for a in range(A)]
    f = [[model.add_var(f"f[{i},{e}]", lb=0.0, ub=float(vols[i]))
          for e in range(E)] for i in range(m)]

    # C1: each cluster on exactly one vertex; each vertex at most one cluster.
    for a in range(A):
        model.add_constraint(lpsum(g[a]) == 1, name=f"C1a[{a}]")
    for v in range(V):
        model.add_constraint(lpsum(g[a][v] for a in range(A)) <= 1,
                             name=f"C1v[{v}]")

    # Arc incidence lists per vertex.
    out_arcs = [np.flatnonzero(arcs.srcs == v) for v in range(V)]
    in_arcs = [np.flatnonzero(arcs.dsts == v) for v in range(V)]

    # C2: flow conservation with floating endpoints.
    for i in range(m):
        li = float(vols[i])
        si, di = int(srcs[i]), int(dsts[i])
        for v in range(V):
            net = lpsum(f[i][int(e)] for e in out_arcs[v]) - lpsum(
                f[i][int(e)] for e in in_arcs[v]
            )
            model.add_constraint(
                net == li * g[si][v] - li * g[di][v], name=f"C2[{i},{v}]"
            )

    # C3: minimal routing via one-direction-per-dimension binaries.
    if enforce_minimal:
        r = [[model.add_var(f"r[{i},{d}]", binary=True)
              for d in range(cube.ndim)] for i in range(m)]
        for i in range(m):
            li = float(vols[i])
            for e in range(E):
                d = int(arcs.dims[e])
                if arcs.signs[e] > 0:
                    model.add_constraint(f[i][e] <= li * r[i][d])
                else:
                    model.add_constraint(f[i][e] <= li * (1 - r[i][d]))

    # Objective: minimize max per-link load (arc load / multiplicity).
    for e in range(E):
        model.add_constraint(
            lpsum(f[i][e] for i in range(m)) <= float(arcs.mults[e]) * z,
            name=f"mcl[{e}]",
        )
    if fix_first:
        heaviest = int(np.argmax(np.bincount(
            np.r_[srcs, dsts], weights=np.r_[vols, vols], minlength=A
        )))
        model.add_constraint(g[heaviest][0] == 1, name="symbreak")
    model.set_objective(z, sense="min")

    registry = get_registry()
    registry.histogram("milp.lp_rows").record(model.num_constraints)
    registry.histogram("milp.lp_cols").record(model.num_vars)
    with span("milp.solve", clusters=A, vertices=V,
              rows=model.num_constraints, cols=model.num_vars) as solve_span:
        sol = model.solve(time_limit=time_limit, mip_rel_gap=mip_rel_gap)
        solve_span.set(status=sol.status.value)
    registry.counter("milp.solves").inc()
    registry.histogram("milp.solve_seconds").record(sol.solve_seconds)
    if not sol.has_solution:
        log.warning("MILP found no incumbent (%s); greedy fallback", sol.status)
        assignment, mcl = greedy_assignment(cube, graph)
        return MILPResult(
            assignment=assignment, mcl=mcl, optimal=False,
            status=f"fallback:{sol.status.value}", method="greedy",
            num_vars=model.num_vars, num_constraints=model.num_constraints,
        )
    assignment = np.empty(A, dtype=np.int64)
    for a in range(A):
        vals = np.array([sol.value(g[a][v]) for v in range(V)])
        assignment[a] = int(np.argmax(vals))
    if len(np.unique(assignment)) != A:
        raise SolverError("MILP solution decodes to a non-injective placement")
    return MILPResult(
        assignment=assignment,
        mcl=float(sol.objective),
        optimal=sol.is_optimal,
        status=sol.status.value,
        solve_seconds=sol.solve_seconds,
        num_vars=model.num_vars,
        num_constraints=model.num_constraints,
    )


def solve_routing_lp(
    cube: CartesianTopology,
    srcs,
    dsts,
    vols,
    minimal: bool = True,
    time_limit: float | None = None,
) -> float:
    """Optimal-MCL *routing* of fixed-placement flows (a pure LP).

    This answers "what could an ideal (minimal) adaptive router achieve
    for this placement" — the quantity the MILP optimizes over placements.
    With ``minimal=True`` each flow may only use arcs whose direction makes
    progress toward its destination (both directions on tie dimensions),
    which makes every unit of flow traverse a minimal path.
    """
    srcs = np.asarray(srcs, dtype=np.int64)
    dsts = np.asarray(dsts, dtype=np.int64)
    vols = np.asarray(vols, dtype=np.float64)
    keep = srcs != dsts
    srcs, dsts, vols = srcs[keep], dsts[keep], vols[keep]
    m = len(srcs)
    if m == 0:
        return 0.0
    arcs = CubeArcs.from_topology(cube)
    E = arcs.num_arcs
    model = Model("routing-lp")
    z = model.add_var("mcl", lb=0.0)

    deltas = cube.delta(srcs, dsts)
    fvars: list[dict[int, object]] = []
    for i in range(m):
        allowed: dict[int, object] = {}
        for e in range(E):
            d = int(arcs.dims[e])
            off = int(deltas[i, d])
            k = cube.shape[d]
            if off == 0:
                continue
            tie = cube.wrap[d] and k % 2 == 0 and abs(off) == k // 2
            if minimal and not tie and np.sign(off) != arcs.signs[e]:
                continue
            allowed[e] = model.add_var(f"f[{i},{e}]", lb=0.0, ub=float(vols[i]))
        fvars.append(allowed)

    for i in range(m):
        li = float(vols[i])
        si, di = int(srcs[i]), int(dsts[i])
        for v in range(cube.num_nodes):
            terms = [fvars[i][e] for e in fvars[i] if arcs.srcs[e] == v]
            terms_in = [fvars[i][e] for e in fvars[i] if arcs.dsts[e] == v]
            net = lpsum(terms) - lpsum(terms_in)
            rhs = li * ((v == si) - (v == di))
            model.add_constraint(net == rhs)
    for e in range(E):
        terms = [fvars[i][e] for i in range(m) if e in fvars[i]]
        if terms:
            model.add_constraint(lpsum(terms) <= float(arcs.mults[e]) * z)
    model.set_objective(z, sense="min")
    registry = get_registry()
    registry.counter("lp.routing_solves").inc()
    registry.histogram("lp.lp_rows").record(model.num_constraints)
    registry.histogram("lp.lp_cols").record(model.num_vars)
    sol = model.solve(time_limit=time_limit, raise_on_infeasible=True)
    registry.histogram("lp.solve_seconds").record(sol.solve_seconds)
    if not sol.has_solution:
        raise SolverError(f"routing LP failed: {sol.status}")
    return float(sol.objective)


def brute_force_mapping(
    cube: CartesianTopology,
    graph: CommGraph,
    evaluator: str = "lp",
    fix_first: bool = True,
) -> MILPResult:
    """Exhaustive placement search for tiny cubes (testing oracle).

    ``evaluator="lp"`` scores each placement with :func:`solve_routing_lp`
    (matches the MILP objective exactly); ``"uniform"`` scores with the
    all-minimal-paths router (matches the merge phase's evaluator).
    """
    A, V = graph.num_tasks, cube.num_nodes
    if A > V:
        raise SolverError(f"{A} clusters exceed {V} vertices")
    if V > 8:
        raise SolverError(f"brute force limited to 8 vertices, got {V}")
    srcs, dsts, vols = _network_flows(graph)
    router = MinimalAdaptiveRouter(cube) if evaluator == "uniform" else None
    best_mcl, best_assign = np.inf, None
    tried = 0
    first_positions = [0] if (fix_first and A == V) else range(V)
    for v0 in first_positions:
        others = [v for v in range(V) if v != v0]
        for perm in itertools.permutations(others, A - 1):
            assignment = np.array((v0,) + perm, dtype=np.int64)
            ns, nd = assignment[srcs], assignment[dsts]
            if evaluator == "uniform":
                mcl = router.max_channel_load(ns, nd, vols)
            elif evaluator == "lp":
                mcl = solve_routing_lp(cube, ns, nd, vols)
            else:
                raise SolverError(f"unknown evaluator {evaluator!r}")
            tried += 1
            if mcl < best_mcl - 1e-9:
                best_mcl, best_assign = mcl, assignment
    assert best_assign is not None
    return MILPResult(
        assignment=best_assign, mcl=float(best_mcl), optimal=True,
        status="enumerated", method=f"brute-force:{evaluator}",
        extras={"placements_tried": tried},
    )


def greedy_assignment(
    cube: CartesianTopology, graph: CommGraph
) -> tuple[np.ndarray, float]:
    """Volume-ordered greedy placement scored by the uniform router.

    Fallback when the MILP yields no incumbent; also the "no-MILP"
    ablation of the paper's optimal-leaf-solve design choice.
    """
    A, V = graph.num_tasks, cube.num_nodes
    srcs, dsts, vols = _network_flows(graph)
    router = MinimalAdaptiveRouter(cube)
    order = np.argsort(
        -np.bincount(np.r_[srcs, dsts], weights=np.r_[vols, vols], minlength=A),
        kind="stable",
    )
    assignment = np.full(A, -1, dtype=np.int64)
    free = [True] * V
    for a in order:
        placed = assignment >= 0
        best_v, best_mcl = -1, np.inf
        for v in range(V):
            if not free[v]:
                continue
            assignment[a] = v
            mask = placed.copy()
            mask[a] = True
            emask = mask[srcs] & mask[dsts]
            mcl = router.max_channel_load(
                assignment[srcs[emask]], assignment[dsts[emask]], vols[emask]
            )
            if mcl < best_mcl - 1e-12:
                best_v, best_mcl = v, mcl
        assignment[a] = best_v
        free[best_v] = False
    ns, nd = assignment[srcs], assignment[dsts]
    return assignment, router.max_channel_load(ns, nd, vols)


def static_assignment(
    cube: CartesianTopology, graph: CommGraph
) -> tuple[np.ndarray, float]:
    """Dimension-order placement: cluster ``i`` on vertex ``i`` (C order).

    The bottom rung of the phase-2 degradation ladder — O(A) with no MCL
    evaluations at all, for when the budget cannot even afford the greedy
    placer. Always a valid injective placement.
    """
    A = graph.num_tasks
    if A > cube.num_nodes:
        raise SolverError(f"{A} clusters exceed {cube.num_nodes} vertices")
    assignment = np.arange(A, dtype=np.int64)
    srcs, dsts, vols = _network_flows(graph)
    if len(srcs) == 0:
        return assignment, 0.0
    router = MinimalAdaptiveRouter(cube)
    return assignment, router.max_channel_load(
        assignment[srcs], assignment[dsts], vols
    )
