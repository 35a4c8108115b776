"""The refine walk's whole trajectory is pinned to a two-plan reference.

``refine_assignment`` moves each proposal's flows with one fused pair
plan (old endpoints negated, then new endpoints) and rolls a rejected
proposal back with the plan's reverse order. :func:`two_plan_refine` is
the loop it replaced: one load update per endpoint set, four on a
rejection, each a plain ``link_loads`` with signed volumes. Every load
vector of the walk feeds an acceptance decision, so equal ``(assignment,
cost)`` after hundreds of proposals pins every addition's order.
"""

import numpy as np
import pytest

from repro.core.refine import refine_assignment
from repro.routing import MinimalAdaptiveRouter
from repro.routing.base import clear_stencil_cache
from repro.topology import CartesianTopology
from repro.utils.rng import as_rng
from repro.workloads import random_uniform


def two_plan_refine(router, node_graph, assignment, iterations, seed=0):
    """Reference refine loop: remove, swap, add; on rejection remove the
    new endpoints, swap back, add the old ones."""
    assignment = np.asarray(assignment, dtype=np.int64).copy()
    mask = node_graph.srcs != node_graph.dsts
    srcs, dsts = node_graph.srcs[mask], node_graph.dsts[mask]
    vols = node_graph.vols[mask]
    n = node_graph.num_tasks
    incident = [np.flatnonzero((srcs == c) | (dsts == c)) for c in range(n)]
    loads = router.link_loads(assignment[srcs], assignment[dsts], vols)
    cost = float(loads.max())
    rng = as_rng(seed)
    temp = 0.02 * cost
    alpha = (1e-3) ** (1.0 / iterations)
    best, best_cost = assignment.copy(), cost
    for _ in range(iterations):
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a == b:
            temp *= alpha
            continue
        edges = np.union1d(incident[a], incident[b])
        es, ed, ev = srcs[edges], dsts[edges], vols[edges]
        router.link_loads(assignment[es], assignment[ed], -ev, out=loads)
        assignment[a], assignment[b] = assignment[b], assignment[a]
        router.link_loads(assignment[es], assignment[ed], ev, out=loads)
        new_cost = float(loads.max())
        delta = new_cost - cost
        if delta <= 0 or rng.random() < np.exp(-delta / max(temp, 1e-30)):
            cost = new_cost
            if cost < best_cost - 1e-12:
                best_cost, best = cost, assignment.copy()
        else:
            router.link_loads(assignment[es], assignment[ed], -ev, out=loads)
            assignment[a], assignment[b] = assignment[b], assignment[a]
            router.link_loads(assignment[es], assignment[ed], ev, out=loads)
        temp *= alpha
    return best, best_cost


def _tables_off(router):
    router._pair_table_limit = 0


def _cold_stencils(router):
    clear_stencil_cache()


# (id, shape, wrap, router tweak, flows per node). The cold-stencils
# graph is sparse enough that its starting placement leaves offsets the
# walk reaches later, so pair_scatter builds those stencils mid-walk.
SETUPS = [
    ("torus4x4", (4, 4), True, None, 6),
    ("mixed4x4x2", (4, 4, 2), (True, True, False), None, 6),
    ("tables-off", (4, 4), True, _tables_off, 6),
    ("cold-stencils", (4, 4, 4), True, _cold_stencils, 1),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shape,wrap,tweak,degree", [s[1:] for s in SETUPS],
                         ids=[s[0] for s in SETUPS])
def test_refine_matches_two_plan_reference_bitwise(shape, wrap, tweak, degree,
                                                   seed):
    topo = CartesianTopology(shape, wrap=wrap)
    V = topo.num_nodes
    graph = random_uniform(V, degree * V, max_volume=1e3, seed=seed)
    start = np.random.default_rng(seed + 100).permutation(V)
    router = MinimalAdaptiveRouter(topo)
    if tweak is not None:
        tweak(router)
    got, got_cost = refine_assignment(router, graph, start, 600, seed=seed)
    want, want_cost = two_plan_refine(
        MinimalAdaptiveRouter(topo), graph, start, 600, seed=seed
    )
    assert np.array_equal(got, want)
    assert got_cost == want_cost
    if tweak is _cold_stencils:
        # The starting loads build only the starting offsets; the rest of
        # the table came from pair_scatter.
        mask = graph.srcs != graph.dsts
        offsets = topo.delta(start[graph.srcs[mask]], start[graph.dsts[mask]])
        assert len(router._stencil_seq) > len(np.unique(offsets, axis=0))
