"""Table II — the fission MILP.

Benchmarks representative phase-2 subproblem solves (2-ary n-cubes for
n = 2, 3, with mesh and double-wide-torus variants) and prints the model
sizes, optima, and enumeration cross-checks. Every round clears the
memo of optimal solves, so the rows time the solver;
``test_table2_milp_memo_hit`` times the memo instead.
"""

import pytest

from repro.commgraph import CommGraph
from repro.core.milp import clear_milp_memo, solve_cluster_milp
from repro.experiments import table2
from repro.topology import hypercube
from repro.utils.rng import as_rng
from repro.workloads import halo_nd


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


def test_table2_report(benchmark, capsys):
    table = benchmark.pedantic(table2.run, kwargs={"time_limit": 60},
                               rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(table.to_text())
