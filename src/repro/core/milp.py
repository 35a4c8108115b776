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
mult(arc) * z`` per arc. The program is built directly as sparse arrays —
columns ``z``, ``g``, ``f``, ``r``; row blocks C1, C2, C3, the per-arc load
rows and the symmetry break — and solved by :func:`scipy.optimize.milp`
(HiGHS). scipy is imported by the first solve, not with this module:
maps that never solve a Table II MILP or a routing LP do not pay its
import at start-up.

Table II's objective is the MCL under the placement's *best* minimal
routing. RAHTM is scored under minimal adaptive routing (MAR), modelled
as an even split over minimal paths, which can load the same placement
more. On cubes of at most :data:`MAR_ENUMERATION_MAX_VERTICES` vertices
phase 2 therefore uses :func:`solve_cluster_mar` instead: it scores
every placement under MAR in batches and keeps the best, which is exact
for the router that judges the mapping.

Solves that finish optimal are memoized per process
(:func:`clear_milp_memo`), keyed by model: both solvers are
deterministic, so a repeated subproblem — another serve request, another
hierarchy level — gets the stored optimum without a solve.

Companions: :func:`solve_routing_lp` (optimal minimal routing for a fixed
placement — pure LP), :func:`brute_force_mapping` (exhaustive placement
search for cross-checking optimality on tiny cubes), and
:func:`greedy_assignment` (the no-MILP fallback/ablation).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.commgraph.graph import CommGraph
from repro.errors import InfeasibleError, SolverError
from repro.observability.metrics import get_registry
from repro.observability.trace import span
from repro.resilience import faultinject
from repro.routing.minimal_adaptive import MinimalAdaptiveRouter
from repro.topology.cartesian import CartesianTopology
from repro.utils.logconf import get_logger

__all__ = [
    "CubeArcs",
    "MILPResult",
    "clear_milp_memo",
    "MAR_ENUMERATION_MAX_VERTICES",
    "solve_cluster_mar",
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


# Process-wide memo of optimal phase-2 solves, keyed by the model's name
# and everything that defines it except the time limit. Both solvers are
# deterministic, so a stored optimum is what a fresh solve returns
# whenever that solve also finishes optimal; where a fresh Table II solve
# would stop at its limit, the hit returns the optimum instead.
# Incumbents and fallbacks are never stored.
_MILP_MEMO: dict[tuple, MILPResult] = {}
_MILP_MEMO_CAP = 10_000


def clear_milp_memo() -> None:
    """Drop the process-wide memo of optimal solves (tests, benchmarks)."""
    _MILP_MEMO.clear()


def _memo_get(key: tuple) -> MILPResult | None:
    """A copy of the memoized solve under ``key``, counted as a hit."""
    hit = _MILP_MEMO.get(key)
    if hit is None:
        return None
    get_registry().counter("milp.memo_hits").inc()
    return replace(hit, assignment=hit.assignment.copy(), solve_seconds=0.0,
                   extras={**hit.extras, "memo_hit": True})


def _memo_put(key: tuple, result: MILPResult) -> None:
    if len(_MILP_MEMO) < _MILP_MEMO_CAP:
        _MILP_MEMO[key] = replace(result, assignment=result.assignment.copy())


def _network_flows(graph: CommGraph):
    mask = graph.srcs != graph.dsts
    return graph.srcs[mask], graph.dsts[mask], graph.vols[mask]


def _heaviest(A: int, srcs, dsts, vols) -> int:
    """The cluster with the most traffic in and out (first on ties)."""
    return int(np.argmax(np.bincount(
        np.r_[srcs, dsts], weights=np.r_[vols, vols], minlength=A)))


class _Rows:
    """Row blocks of a sparse constraint matrix, appended in order.

    Each block is ``count`` rows with bounds ``lb``/``ub`` (scalars or one
    value per row) and terms ``(rows, cols, coeffs)`` that broadcast
    together; ``rows`` are local to the block. Callers write zero
    right-hand sides as ``-0.0``: the solver input then stays byte-equal
    to the one that produced the recorded MCLs.
    """

    def __init__(self):
        self.count = 0
        self.entries: list[tuple[np.ndarray, ...]] = []
        self.lb: list[np.ndarray] = []
        self.ub: list[np.ndarray] = []

    def add(self, count: int, lb, ub, *terms) -> None:
        for rows, cols, coeffs in terms:
            rows, cols, coeffs = np.broadcast_arrays(rows, cols, coeffs)
            self.entries.append(
                (self.count + rows.ravel(), cols.ravel(), coeffs.ravel())
            )
        self.lb.append(np.broadcast_to(np.ravel(lb), count))
        self.ub.append(np.broadcast_to(np.ravel(ub), count))
        self.count += count

    def matrix(self, num_cols: int):
        """``(A, lb, ub)`` with ``A`` in CSR; exact-zero coefficients dropped."""
        import scipy.sparse as sp

        rows, cols, data = (np.concatenate(part) for part in zip(*self.entries))
        keep = data != 0.0
        a = sp.csr_matrix(
            (data[keep], (rows[keep], cols[keep])),
            shape=(self.count, num_cols),
        )
        return a, np.concatenate(self.lb), np.concatenate(self.ub)


def _highs_status(res, raise_infeasible: bool = False) -> str:
    """Name a HiGHS result: ``optimal``, ``feasible`` (stopped at a limit
    with an incumbent), ``limit`` (stopped before any incumbent),
    ``infeasible`` or ``unbounded``.

    Infeasibility raises :class:`InfeasibleError` when ``raise_infeasible``;
    any other failure is status ``error`` and raises :class:`SolverError`.
    """
    if res.status == 0:
        return "optimal"
    if res.status == 2:
        if raise_infeasible:
            raise InfeasibleError(f"model is infeasible: {res.message}")
        return "infeasible"
    if res.status == 3:
        return "unbounded"
    if res.x is not None:
        return "feasible"
    if res.status == 1:
        return "limit"
    raise SolverError(f"solver status error: {res.message}")


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
    registry = get_registry()
    memo_key = ("table2", type(cube), cube.shape, cube.wrap, A,
                srcs.tobytes(), dsts.tobytes(), vols.tobytes(), mip_rel_gap,
                enforce_minimal, fix_first)
    hit = _memo_get(memo_key)
    if hit is not None:
        return hit
    import scipy.optimize as spo

    arcs = CubeArcs.from_topology(cube)
    E, D = arcs.num_arcs, cube.ndim

    # Columns: z, then g[a, v], f[i, e] and (with C3) r[i, d].
    g = 1 + np.arange(A * V).reshape(A, V)
    f = 1 + A * V + np.arange(m * E).reshape(m, E)
    r = 1 + A * V + m * E + np.arange(m * D).reshape(m, D)
    num_vars = 1 + A * V + m * E + (m * D if enforce_minimal else 0)
    vol = vols[:, None]
    rows = _Rows()

    # C1: each cluster on exactly one vertex; each vertex at most one cluster.
    rows.add(A, 1.0, 1.0, (np.arange(A)[:, None], g, 1.0))
    rows.add(V, -np.inf, 1.0, (np.arange(V), g, 1.0))

    # C2: flow conservation with floating endpoints, row (i, v):
    # out_i(v) - in_i(v) - l_i g[s_i, v] + l_i g[d_i, v] == 0.
    iv = np.arange(m)[:, None] * V
    rows.add(m * V, -0.0, -0.0,
             (iv + arcs.srcs, f, 1.0), (iv + arcs.dsts, f, -1.0),
             (iv + np.arange(V), g[srcs], -vol), (iv + np.arange(V), g[dsts], vol))

    # C3: minimal routing via one-direction-per-dimension binaries, row
    # (i, e): f[i, e] <= l_i r[i, d_e] on + arcs, l_i (1 - r[i, d_e]) on -.
    if enforce_minimal:
        up = arcs.signs > 0
        ie = np.arange(m * E).reshape(m, E)
        rows.add(m * E, -np.inf, np.where(up, -0.0, vol),
                 (ie, f, 1.0), (ie, r[:, arcs.dims], np.where(up, -vol, vol)))

    # Objective: minimize max per-link load (arc load / multiplicity).
    rows.add(E, -np.inf, -0.0,
             (np.arange(E), f, 1.0), (np.arange(E), 0, -arcs.mults))
    if fix_first:
        rows.add(1, 1.0, 1.0, (0, g[_heaviest(A, srcs, dsts, vols), 0], 1.0))
    matrix, row_lb, row_ub = rows.matrix(num_vars)
    num_constraints = rows.count

    c = np.zeros(num_vars)
    c[0] = 1.0
    col_ub = np.ones(num_vars)  # g and r are binary
    col_ub[0] = np.inf
    col_ub[f] = vol
    integrality = np.ones(num_vars, dtype=np.int64)
    integrality[0] = 0
    integrality[f] = 0
    options: dict = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if mip_rel_gap is not None:
        options["mip_rel_gap"] = float(mip_rel_gap)

    registry.histogram("milp.lp_rows").record(num_constraints)
    registry.histogram("milp.lp_cols").record(num_vars)
    with span("milp.solve", clusters=A, vertices=V, method="milp",
              rows=num_constraints, cols=num_vars) as solve_span:
        start = time.perf_counter()
        res = spo.milp(
            c,
            constraints=spo.LinearConstraint(matrix, row_lb, row_ub),
            integrality=integrality,
            bounds=spo.Bounds(np.zeros(num_vars), col_ub),
            options=options,
        )
        solve_seconds = time.perf_counter() - start
        status = _highs_status(res)
        solve_span.set(status=status)
    registry.counter("milp.solves").inc()
    registry.histogram("milp.solve_seconds").record(solve_seconds)
    if status not in ("optimal", "feasible"):
        log.warning("MILP found no incumbent (%s); greedy fallback", status)
        assignment, mcl = greedy_assignment(cube, graph)
        return MILPResult(
            assignment=assignment, mcl=mcl, optimal=False,
            status=f"fallback:{status}", method="greedy",
            num_vars=num_vars, num_constraints=num_constraints,
        )
    assignment = np.argmax(res.x[g], axis=1)
    if len(np.unique(assignment)) != A:
        raise SolverError("MILP solution decodes to a non-injective placement")
    result = MILPResult(
        assignment=assignment,
        mcl=float(res.x[0]),
        optimal=status == "optimal",
        status=status,
        solve_seconds=solve_seconds,
        num_vars=num_vars,
        num_constraints=num_constraints,
    )
    if result.optimal:
        _memo_put(memo_key, result)
    return result


#: Largest cube :func:`solve_cluster_mar` enumerates: 7! = 5,040
#: placements once the heaviest cluster is pinned. A 16-vertex cube has
#: 15! (about 1.3e12), so phase 2 keeps Table II there.
MAR_ENUMERATION_MAX_VERTICES = 8

# Placements :func:`solve_cluster_mar` scores per link_loads_many call.
# All 5,040 rows of a 2x2x2 cube in one call raised the peak RSS of a
# ``cg:32:C`` map on 2x2x2 by 15 MB, 512-row chunks by 3.6 MB. Rows are
# independent, so the chunk size never changes the placement picked.
_MAR_CHUNK_ROWS = 512


def solve_cluster_mar(cube: CartesianTopology, graph: CommGraph) -> MILPResult:
    """Place ``graph``'s clusters on ``cube`` at the least MCL under MAR.

    Enumerates every placement with the heaviest cluster pinned to vertex
    0 (the symmetry break of :func:`solve_cluster_milp`; 2-ary cubes are
    vertex-transitive), the other clusters taking the remaining vertices
    in :func:`itertools.permutations` order. Each chunk of placements is
    scored by one :meth:`~repro.routing.base.Router.link_loads_many` call
    of the :class:`MinimalAdaptiveRouter`, and the first placement with
    the least maximum load wins. Its ``mcl`` is therefore bitwise the
    router's :meth:`~repro.routing.base.Router.max_channel_load` of that
    placement.
    """
    A, V = graph.num_tasks, cube.num_nodes
    if A > V:
        raise SolverError(f"{A} clusters exceed {V} cube vertices")
    if V > MAR_ENUMERATION_MAX_VERTICES:
        raise SolverError(
            f"MAR enumeration is limited to {MAR_ENUMERATION_MAX_VERTICES} "
            f"vertices, got {V}")
    faultinject.inject("solver-fail")
    faultinject.inject("solver-slow")
    srcs, dsts, vols = _network_flows(graph)
    if len(srcs) == 0:
        return MILPResult(
            assignment=np.arange(A, dtype=np.int64),
            mcl=0.0, optimal=True, status="trivial", method="trivial",
        )
    memo_key = ("mar-enumerate", type(cube), cube.shape, cube.wrap, A,
                srcs.tobytes(), dsts.tobytes(), vols.tobytes())
    hit = _memo_get(memo_key)
    if hit is not None:
        return hit
    heaviest = _heaviest(A, srcs, dsts, vols)
    others = np.flatnonzero(np.arange(A) != heaviest)
    perms = itertools.permutations(range(1, V), A - 1)
    router = MinimalAdaptiveRouter(cube)
    best_mcl, best = np.inf, None
    placements = 0
    with span("milp.solve", clusters=A, vertices=V,
              method="enumerate") as solve_span:
        start = time.perf_counter()
        while True:
            flat = np.fromiter(
                itertools.chain.from_iterable(
                    itertools.islice(perms, _MAR_CHUNK_ROWS)),
                dtype=np.int64)
            if len(flat) == 0:
                break
            # The heaviest cluster's column stays 0: it is pinned there.
            chunk = np.zeros((len(flat) // (A - 1), A), dtype=np.int64)
            chunk[:, others] = flat.reshape(len(chunk), A - 1)
            loads = router.link_loads_many(
                chunk[:, srcs], chunk[:, dsts], vols,
                np.zeros((len(chunk), cube.num_channel_slots)))
            peaks = loads.max(axis=1)
            row = int(np.argmin(peaks))  # the first of the least
            if peaks[row] < best_mcl:
                best_mcl, best = float(peaks[row]), chunk[row].copy()
            placements += len(chunk)
        solve_seconds = time.perf_counter() - start
        solve_span.set(status="optimal", placements=placements)
    registry = get_registry()
    registry.counter("milp.solves").inc()
    registry.histogram("milp.solve_seconds").record(solve_seconds)
    result = MILPResult(
        assignment=best, mcl=best_mcl, optimal=True, status="optimal",
        solve_seconds=solve_seconds, method="enumerate",
        extras={"placements": placements},
    )
    _memo_put(memo_key, result)
    return result


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
    import scipy.optimize as spo

    arcs = CubeArcs.from_topology(cube)
    V = cube.num_nodes

    # Columns: z, then one f per (flow, arc) the flow may use, flow-major.
    off = cube.delta(srcs, dsts)[:, arcs.dims]
    k = np.asarray(cube.shape)[arcs.dims]
    tie = np.asarray(cube.wrap)[arcs.dims] & (k % 2 == 0) & (np.abs(off) == k // 2)
    allowed = off != 0
    if minimal:
        allowed &= tie | (np.sign(off) == arcs.signs)
    fi, fe = np.nonzero(allowed)
    f = 1 + np.arange(len(fi))
    num_vars = 1 + len(fi)

    # Conservation, row (i, v) — empty where flow i can reach no arc of v:
    # out_i(v) - in_i(v) == l_i at s_i, -l_i at d_i, 0 elsewhere.
    rhs = np.full((m, V), -0.0)
    rhs[np.arange(m), srcs] = vols
    rhs[np.arange(m), dsts] = -vols
    conserve = _Rows()
    conserve.add(m * V, rhs, rhs,
                 (fi * V + arcs.srcs[fe], f, 1.0),
                 (fi * V + arcs.dsts[fe], f, -1.0))
    # Loads on the arcs some flow may use: sum_i f[i, e] <= mult_e z.
    used = allowed.any(axis=0)
    loads = _Rows()
    loads.add(int(used.sum()), -np.inf, -0.0,
              ((np.cumsum(used) - 1)[fe], f, 1.0),
              (np.arange(used.sum()), 0, -arcs.mults[used]))
    a_eq, b_eq, _ = conserve.matrix(num_vars)
    a_ub, _, b_ub = loads.matrix(num_vars)

    c = np.zeros(num_vars)
    c[0] = 1.0
    bounds = np.column_stack([np.zeros(num_vars), np.r_[np.inf, vols[fi]]])
    options: dict = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    registry = get_registry()
    registry.counter("lp.routing_solves").inc()
    registry.histogram("lp.lp_rows").record(conserve.count + loads.count)
    registry.histogram("lp.lp_cols").record(num_vars)
    start = time.perf_counter()
    res = spo.linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=bounds, method="highs", options=options)
    registry.histogram("lp.solve_seconds").record(time.perf_counter() - start)
    status = _highs_status(res, raise_infeasible=True)
    if status != "optimal":
        raise SolverError(f"routing LP failed: {status}")
    return float(res.x[0])


def brute_force_mapping(
    cube: CartesianTopology,
    graph: CommGraph,
    evaluator: str = "lp",
    fix_first: bool = True,
) -> MILPResult:
    """Exhaustive placement search for tiny cubes (testing oracle).

    ``evaluator="lp"`` scores each placement with :func:`solve_routing_lp`
    (matches the MILP objective exactly); ``"uniform"`` scores with the
    all-minimal-paths router (matches the merge phase's evaluator and
    :func:`solve_cluster_mar`). With ``fix_first`` and as many clusters as
    vertices, the heaviest cluster stays on vertex 0, as in the MILP. The
    first placement with the least score wins, so on equal enumerations
    this oracle and :func:`solve_cluster_mar` agree bitwise.
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
    pinned = _heaviest(A, srcs, dsts, vols)
    rest = [a for a in range(A) if a != pinned]
    first_positions = [0] if (fix_first and A == V) else range(V)
    for v0 in first_positions:
        others = [v for v in range(V) if v != v0]
        for perm in itertools.permutations(others, A - 1):
            assignment = np.empty(A, dtype=np.int64)
            assignment[pinned] = v0
            assignment[rest] = perm
            ns, nd = assignment[srcs], assignment[dsts]
            if evaluator == "uniform":
                mcl = router.max_channel_load(ns, nd, vols)
            elif evaluator == "lp":
                mcl = solve_routing_lp(cube, ns, nd, vols)
            else:
                raise SolverError(f"unknown evaluator {evaluator!r}")
            tried += 1
            if mcl < best_mcl:
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
