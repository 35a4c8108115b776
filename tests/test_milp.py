"""Table II MILP tests: optimality, constraints, cross-checks."""

import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize as spo

from repro.commgraph import CommGraph
from repro.core.milp import (
    CubeArcs,
    brute_force_mapping,
    clear_milp_memo,
    greedy_assignment,
    solve_cluster_milp,
    solve_routing_lp,
)
from repro.core.rahtm import RAHTMMapper
from repro.errors import InfeasibleError, SolverError
from repro.experiments.config import get_scale
from repro.observability import get_registry
from repro.observability.trace import Tracer, activate
from repro.resilience.faultinject import FaultSpec, injected_faults
from repro.routing import MinimalAdaptiveRouter
from repro.topology import hypercube, mesh, torus
from repro.utils.rng import as_rng
from repro.workloads.registry import parse_workload


def random_graph(n, seed, density=0.6):
    rng = as_rng(seed)
    edges = []
    for s in range(n):
        for d in range(n):
            if s != d and rng.random() < density:
                edges.append((s, d, float(rng.integers(1, 50))))
    return CommGraph.from_edges(n, edges)


# -- CubeArcs -----------------------------------------------------------------
def test_arcs_mesh_cube():
    arcs = CubeArcs.from_topology(hypercube(2))
    assert arcs.num_arcs == 8  # 4 undirected edges x 2 directions
    assert (arcs.mults == 1).all()


def test_arcs_torus_cube_merges_double_channels():
    arcs = CubeArcs.from_topology(hypercube(2, wrap=True))
    assert arcs.num_arcs == 8
    assert (arcs.mults == 2).all()  # double-wide links


def test_arcs_direction_labels():
    arcs = CubeArcs.from_topology(hypercube(2))
    for i in range(arcs.num_arcs):
        u, v = int(arcs.srcs[i]), int(arcs.dsts[i])
        d = int(arcs.dims[i])
        cu = hypercube(2).coords(u)[d]
        cv = hypercube(2).coords(v)[d]
        assert arcs.signs[i] == (1 if cv > cu else -1)


# -- MILP vs brute force ---------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_milp_matches_bruteforce_on_2x2(seed):
    cube = hypercube(2)
    g = random_graph(4, seed)
    milp = solve_cluster_milp(cube, g, time_limit=60)
    bf = brute_force_mapping(cube, g, evaluator="lp")
    assert milp.optimal
    assert milp.mcl == pytest.approx(bf.mcl, rel=1e-6)


@pytest.mark.parametrize("seed", [0, 1])
def test_milp_matches_bruteforce_on_2x2_torus(seed):
    cube = hypercube(2, wrap=True)
    g = random_graph(4, seed)
    milp = solve_cluster_milp(cube, g, time_limit=60)
    bf = brute_force_mapping(cube, g, evaluator="lp")
    assert milp.mcl == pytest.approx(bf.mcl, rel=1e-6)


def test_milp_assignment_is_injective_and_in_range():
    cube = hypercube(3)
    g = random_graph(8, 7)
    res = solve_cluster_milp(cube, g, time_limit=60, mip_rel_gap=0.05)
    assert len(np.unique(res.assignment)) == 8
    assert res.assignment.min() >= 0 and res.assignment.max() < 8


def test_milp_trivial_no_flows():
    cube = hypercube(2)
    g = CommGraph(4, [0], [0], [5.0])  # only a self loop
    res = solve_cluster_milp(cube, g)
    assert res.mcl == 0.0
    assert res.method == "trivial"


def test_milp_too_many_clusters():
    with pytest.raises(SolverError):
        solve_cluster_milp(hypercube(2), random_graph(5, 0))


def test_milp_figure1_heavy_pair_goes_diagonal():
    g = CommGraph.from_edges(4, [
        (0, 1, 100.0), (1, 0, 100.0),
        (0, 2, 1.0), (2, 0, 1.0), (1, 3, 1.0), (3, 1, 1.0),
        (2, 3, 1.0), (3, 2, 1.0),
    ])
    cube = mesh(2, 2)
    res = solve_cluster_milp(cube, g, time_limit=30)
    c0 = cube.coords(int(res.assignment[0]))
    c1 = cube.coords(int(res.assignment[1]))
    assert (c0 != c1).all()  # diagonal placement
    assert res.mcl == pytest.approx(51.5)


def test_fewer_clusters_than_vertices():
    cube = hypercube(2)
    g = CommGraph.from_edges(3, [(0, 1, 5.0), (1, 2, 5.0)])
    res = solve_cluster_milp(cube, g, time_limit=30)
    assert len(np.unique(res.assignment)) == 3


def test_minimal_constraint_can_only_help_or_match():
    cube = hypercube(2)
    g = random_graph(4, 11)
    with_c3 = solve_cluster_milp(cube, g, enforce_minimal=True)
    without = solve_cluster_milp(cube, g, enforce_minimal=False)
    # dropping C3 relaxes the model: optimum can only improve or match
    assert without.mcl <= with_c3.mcl + 1e-6


def test_model_size_matches_column_and_row_blocks():
    """Columns z, g[A x V], f[m x E], r[m x ndim]; rows C1a, C1v, C2
    (m*V), C3 (m*E), the E load rows and the symmetry break."""
    cube = hypercube(2)
    g = random_graph(4, 0)
    A, V, ndim = g.num_tasks, cube.num_nodes, cube.ndim
    E = CubeArcs.from_topology(cube).num_arcs
    m = int((g.srcs != g.dsts).sum())
    tracer = Tracer()
    with activate(tracer):
        full = solve_cluster_milp(cube, g)
    assert full.num_vars == 1 + A * V + m * E + m * ndim
    assert full.num_constraints == A + V + m * V + m * E + E + 1
    (solve,) = tracer.roots
    assert solve.name == "milp.solve"
    assert solve.attrs["rows"] == full.num_constraints
    assert solve.attrs["cols"] == full.num_vars
    assert solve.attrs["status"] == "optimal"

    reduced = solve_cluster_milp(cube, g, enforce_minimal=False,
                                 fix_first=False)
    assert reduced.num_vars == 1 + A * V + m * E
    assert reduced.num_constraints == A + V + m * V + E


# -- solver status mapping ---------------------------------------------------------
def _patch_solver(monkeypatch, name, **fields):
    """Replace ``scipy.optimize.<name>`` with a wrapper that solves for
    real, then overrides the result's ``fields``."""
    real = getattr(spo, name)

    def fake(*args, **kwargs):
        res = real(*args, **kwargs)
        res.update(fields)
        return res

    monkeypatch.setattr(spo, name, fake)


def test_status_optimal(monkeypatch):
    cube, g = hypercube(2), random_graph(4, 0)
    _patch_solver(monkeypatch, "milp")
    res = solve_cluster_milp(cube, g)
    assert res.status == "optimal" and res.optimal and res.method == "milp"


def test_status_incumbent_at_limit_is_feasible(monkeypatch):
    cube, g = hypercube(2), random_graph(4, 0)
    want = solve_cluster_milp(cube, g)
    clear_milp_memo()  # a memo hit would answer without the solver
    _patch_solver(monkeypatch, "milp", status=1,
                  message="Time limit reached.")
    res = solve_cluster_milp(cube, g)
    assert res.status == "feasible"
    assert res.optimal is False
    assert res.mcl == want.mcl
    assert res.assignment.tolist() == want.assignment.tolist()


@pytest.mark.parametrize("status,name", [(1, "limit"), (2, "infeasible")])
def test_status_no_incumbent_falls_back_to_greedy(monkeypatch, status, name):
    cube, g = hypercube(2), random_graph(4, 0)
    _patch_solver(monkeypatch, "milp", status=status, x=None)
    res = solve_cluster_milp(cube, g)
    assert res.status == f"fallback:{name}"
    assert res.method == "greedy" and res.optimal is False
    assignment, mcl = greedy_assignment(cube, g)
    assert res.assignment.tolist() == assignment.tolist()
    assert res.mcl == mcl


def test_status_solver_error_raises(monkeypatch):
    _patch_solver(monkeypatch, "milp", status=4, x=None,
                  message="HiGHS failed")
    with pytest.raises(SolverError, match="HiGHS failed"):
        solve_cluster_milp(hypercube(2), random_graph(4, 0))


def test_status_routing_lp_infeasible_raises(monkeypatch):
    _patch_solver(monkeypatch, "linprog", status=2, x=None)
    with pytest.raises(InfeasibleError):
        solve_routing_lp(mesh(2, 2), [0], [3], [100.0])


@pytest.mark.parametrize("status", [1, 3, 4])
def test_status_routing_lp_failure_raises(monkeypatch, status):
    _patch_solver(monkeypatch, "linprog", status=status, x=None)
    with pytest.raises(SolverError):
        solve_routing_lp(mesh(2, 2), [0], [3], [100.0])


# -- routing LP -------------------------------------------------------------------
def test_routing_lp_single_flow_splits():
    cube = mesh(2, 2)
    mcl = solve_routing_lp(cube, [0], [3], [100.0])
    assert mcl == pytest.approx(50.0)  # two disjoint minimal paths


def test_routing_lp_zero_without_flows():
    assert solve_routing_lp(mesh(2, 2), [0], [0], [5.0]) == 0.0


def test_routing_lp_lower_bounds_uniform_router():
    """Optimal routing can never be worse than uniform path splitting."""
    cube = hypercube(3)
    router = MinimalAdaptiveRouter(cube)
    g = random_graph(8, 3)
    rng = as_rng(5)
    assignment = rng.permutation(8)
    ns, nd = assignment[g.srcs], assignment[g.dsts]
    lp = solve_routing_lp(cube, ns, nd, g.vols)
    uniform = router.max_channel_load(ns, nd, g.vols)
    assert lp <= uniform + 1e-6


def test_routing_lp_double_links_halve_load():
    single = solve_routing_lp(hypercube(1), [0], [1], [100.0])
    double = solve_routing_lp(hypercube(1, wrap=True), [0], [1], [100.0])
    assert single == pytest.approx(100.0)
    assert double == pytest.approx(50.0)


# -- greedy fallback ---------------------------------------------------------------
def test_greedy_assignment_valid():
    cube = hypercube(3)
    g = random_graph(8, 9)
    assignment, mcl = greedy_assignment(cube, g)
    assert sorted(assignment.tolist()) == list(range(8))
    assert mcl > 0


def test_greedy_never_beats_milp():
    cube = hypercube(2)
    for seed in range(3):
        g = random_graph(4, seed + 20)
        milp = solve_cluster_milp(cube, g)
        _, greedy_mcl = greedy_assignment(cube, g)
        # compare in the same evaluator (uniform router)
        router = MinimalAdaptiveRouter(cube)
        a = milp.assignment
        mask = g.srcs != g.dsts
        milp_uniform = router.max_channel_load(
            a[g.srcs[mask]], a[g.dsts[mask]], g.vols[mask]
        )
        # MILP optimizes the LP objective; under the uniform evaluator it
        # may differ, but greedy should not win by a large margin.
        assert greedy_mcl >= milp_uniform * 0.5


def test_brute_force_guard():
    with pytest.raises(SolverError):
        brute_force_mapping(mesh(3, 3), random_graph(9, 0))
    with pytest.raises(SolverError):
        brute_force_mapping(mesh(2, 2), random_graph(4, 0), evaluator="nope")


# -- memo of optimal solves ---------------------------------------------------------
def _counter(name):
    return get_registry().counter(name).value


@pytest.mark.parametrize("wrap", [False, True])
def test_memo_hit_is_bitwise_equal_to_fresh_solve(wrap):
    cube, g = hypercube(2, wrap=wrap), random_graph(4, 3)
    tracer = Tracer()
    with activate(tracer):
        fresh = solve_cluster_milp(cube, g, time_limit=60)
        hit = solve_cluster_milp(cube, g, time_limit=5)
    assert fresh.status == "optimal" and "memo_hit" not in fresh.extras
    assert hit.extras == {"memo_hit": True}
    assert hit.assignment.tobytes() == fresh.assignment.tobytes()
    assert (hit.mcl, hit.status, hit.optimal, hit.method) == (
        fresh.mcl, fresh.status, fresh.optimal, fresh.method)
    assert (hit.num_vars, hit.num_constraints) == (
        fresh.num_vars, fresh.num_constraints)
    # A hit spent no solver time, so it reports none.
    assert fresh.solve_seconds > 0 and hit.solve_seconds == 0.0
    assert _counter("milp.solves") == 1 and _counter("milp.memo_hits") == 1
    assert [s.name for s in tracer.roots] == ["milp.solve"]
    # A hit is a copy: changing it does not reach the memo.
    hit.assignment[:] = -1
    again = solve_cluster_milp(cube, g)
    assert again.assignment.tobytes() == fresh.assignment.tobytes()
    # After a clear the solver runs again, and agrees bitwise.
    clear_milp_memo()
    resolved = solve_cluster_milp(cube, g)
    assert "memo_hit" not in resolved.extras
    assert resolved.assignment.tobytes() == fresh.assignment.tobytes()
    assert resolved.mcl == fresh.mcl
    assert _counter("milp.solves") == 2


def test_memo_key_covers_the_model():
    cube, g = hypercube(2), random_graph(4, 5)
    solve_cluster_milp(cube, g)
    for kwargs in ({"mip_rel_gap": 0.5}, {"enforce_minimal": False},
                   {"fix_first": False}):
        assert "memo_hit" not in solve_cluster_milp(cube, g, **kwargs).extras
    assert "memo_hit" not in solve_cluster_milp(
        hypercube(2, wrap=True), g).extras
    assert "memo_hit" not in solve_cluster_milp(
        cube, g.scaled(2.0)).extras
    assert _counter("milp.memo_hits") == 0
    assert "memo_hit" in solve_cluster_milp(cube, g, time_limit=1).extras


@pytest.mark.parametrize("status,x", [(1, "keep"), (1, None), (2, None)])
def test_memo_never_stores_incumbents_or_fallbacks(monkeypatch, status, x):
    cube, g = hypercube(2), random_graph(4, 0)
    fields = {"status": status, "message": "Time limit reached."}
    if x is None:
        fields["x"] = None
    with monkeypatch.context() as patch:
        _patch_solver(patch, "milp", **fields)
        first = solve_cluster_milp(cube, g)
    assert first.status in ("feasible", "fallback:limit",
                            "fallback:infeasible")
    res = solve_cluster_milp(cube, g)
    assert res.status == "optimal" and "memo_hit" not in res.extras
    assert _counter("milp.memo_hits") == 0 and _counter("milp.solves") == 2


def test_injection_points_fire_on_a_would_be_hit():
    cube, g = hypercube(2), random_graph(4, 0)
    solve_cluster_milp(cube, g)
    with injected_faults(FaultSpec("solver-fail")):
        with pytest.raises(SolverError, match="injected"):
            solve_cluster_milp(cube, g)
    with injected_faults(FaultSpec("solver-slow", delay=0.2)):
        t0 = time.perf_counter()
        res = solve_cluster_milp(cube, g)
        assert time.perf_counter() - t0 >= 0.2
    assert res.extras == {"memo_hit": True}


# -- the objective is an optimal routing, not MAR ---------------------------------
@pytest.mark.parametrize("wrap", [False, True])
@pytest.mark.parametrize("seed", [9, 10])
def test_milp_mcl_is_the_routing_lp_of_its_placement(wrap, seed):
    """Table II's objective is the optimal minimal routing of the
    placement it picks (:func:`solve_routing_lp`); MAR splits each flow
    uniformly over its minimal paths, so it can only match or exceed it."""
    cube, g = hypercube(2, wrap=wrap), random_graph(4, seed)
    res = solve_cluster_milp(cube, g, time_limit=60)
    a = res.assignment
    mask = g.srcs != g.dsts
    flows = a[g.srcs[mask]], a[g.dsts[mask]], g.vols[mask]
    assert res.mcl == pytest.approx(solve_routing_lp(cube, *flows), rel=1e-6)
    mar = MinimalAdaptiveRouter(cube).max_channel_load(*flows)
    assert mar >= res.mcl * (1 - 1e-9)


def test_small_milp_job_scores_higher_under_mar_than_its_objective():
    """The ``small-milp`` job (``cg:32:C`` on 2x2x2, ``small``, no
    refine): one leaf solve whose 7,500,400 is its placement's optimal
    routing, while MAR scores the same placement 11,875,633."""
    topo = torus(2, 2, 2)
    g = parse_workload("cg:32:C")
    config = replace(get_scale("small").rahtm, refine_iterations=0)
    mapper = RAHTMMapper(topo, config)
    flows = mapper.map(g).network_flows(g)
    (status, mcl, _), = mapper.stats["milp"]
    assert status == "optimal"
    assert mcl == pytest.approx(7_500_400, rel=1e-6)
    assert solve_routing_lp(topo, *flows) == pytest.approx(mcl, rel=1e-6)
    mar = MinimalAdaptiveRouter(topo).max_channel_load(*flows)
    assert mar == pytest.approx(11_875_633, rel=1e-6)
