"""Table II — the fission MILP, and the MAR enumeration beside it.

Benchmarks representative phase-2 subproblem solves (2-ary n-cubes for
n = 2, 3, with mesh and double-wide-torus variants) and prints the model
sizes, optima, and enumeration cross-checks. Every round clears the
memo of optimal solves, so the rows time the solver;
``test_table2_milp_memo_hit`` times the memo instead.

``test_small_milp_subproblem_*`` time both phase-2 solvers on the one
subproblem of the e2e ``small-milp`` job (``cg:32:C``'s 8 node clusters
on the 2x2x2 torus, ``small`` settings): Table II, which phase 2 used
there before, and the exact MAR enumeration it uses now.
"""

import pytest

from repro.commgraph import CommGraph
from repro.core.clustering import cluster_fixed_size
from repro.core.milp import clear_milp_memo, solve_cluster_mar, solve_cluster_milp
from repro.experiments import get_scale, table2
from repro.routing import MinimalAdaptiveRouter
from repro.topology import hypercube
from repro.utils.rng import as_rng
from repro.workloads import halo_nd
from repro.workloads.registry import parse_workload


def _random_graph(n, seed):
    rng = as_rng(seed)
    edges = [
        (s, d, float(rng.integers(1, 100)))
        for s in range(n)
        for d in range(n)
        if s != d and rng.random() < 0.6
    ]
    return CommGraph.from_edges(n, edges)


def _solve_fresh(*args):
    clear_milp_memo()
    return solve_cluster_milp(*args)


@pytest.mark.parametrize("n", [2, 3])
def test_table2_milp_halo(benchmark, n):
    cube = hypercube(n)
    graph = halo_nd((2,) * n, volume=10.0, wrap=False)
    res = benchmark(_solve_fresh, cube, graph, 60.0)
    assert res.optimal


def test_table2_milp_random_n2(benchmark):
    res = benchmark(_solve_fresh, hypercube(2), _random_graph(4, 0), 60.0)
    assert res.optimal


def test_table2_milp_torus_root(benchmark):
    res = benchmark(
        _solve_fresh, hypercube(2, wrap=True), _random_graph(4, 1), 60.0
    )
    assert res.optimal


def test_table2_milp_memo_hit(benchmark):
    """The torus-root solve again, answered by the memo."""
    args = (hypercube(2, wrap=True), _random_graph(4, 1), 60.0)
    _solve_fresh(*args)
    res = benchmark(solve_cluster_milp, *args)
    assert res.optimal and res.extras["memo_hit"]


def _small_milp_subproblem():
    graph = cluster_fixed_size(parse_workload("cg:32:C"), 4).graph
    return hypercube(3, wrap=True), graph


def _mar_mcl(cube, graph, assignment):
    mask = graph.srcs != graph.dsts
    return MinimalAdaptiveRouter(cube).max_channel_load(
        assignment[graph.srcs[mask]], assignment[graph.dsts[mask]],
        graph.vols[mask])


def test_small_milp_subproblem_table2(benchmark):
    cube, graph = _small_milp_subproblem()
    small = get_scale("small").rahtm
    res = benchmark.pedantic(
        _solve_fresh,
        args=(cube, graph, small.milp_time_limit, small.milp_rel_gap),
        rounds=3, iterations=1)
    assert res.mcl == pytest.approx(7_500_400, rel=1e-6)
    assert _mar_mcl(cube, graph, res.assignment) == pytest.approx(
        11_875_633, rel=1e-6)


def test_small_milp_subproblem_mar_enumeration(benchmark):
    cube, graph = _small_milp_subproblem()

    def enumerate_fresh():
        clear_milp_memo()
        return solve_cluster_mar(cube, graph)

    res = benchmark(enumerate_fresh)
    assert res.mcl == 7_500_400
    assert res.mcl == _mar_mcl(cube, graph, res.assignment)


def test_table2_report(benchmark, capsys):
    table = benchmark.pedantic(table2.run, kwargs={"time_limit": 60},
                               rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(table.to_text())
