"""The refine walk's whole trajectory is pinned to a two-plan reference.

``refine_assignment`` moves each proposal's flows with one fused pair
plan (old endpoints negated, then new endpoints) and rolls a rejected
proposal back with the plan's reverse order. :func:`two_plan_refine` is
the loop it replaced: one load update per endpoint set, four on a
rejection, each a plain ``link_loads`` with signed volumes. Every load
vector of the walk feeds an acceptance decision, so equal ``(assignment,
cost)`` after hundreds of proposals pins every addition's order.

The walk also draws the next proposals ahead as one batch and replays
the generator on an acceptance; the scenario tests below pin that
replay, with the depth rule modelled from the reference's own
trajectory by :func:`depth_rule_batches`.
"""

import numpy as np
import pytest

from repro.commgraph.graph import CommGraph
from repro.core.refine import refine_assignment
from repro.routing import DimensionOrderRouter, MinimalAdaptiveRouter
from repro.routing.base import clear_stencil_cache
from repro.topology import CartesianTopology
from repro.utils.rng import as_rng
from repro.workloads import random_uniform


def two_plan_refine(router, node_graph, assignment, iterations, seed=0,
                    temperature=None, trace=None):
    """Reference refine loop: remove, swap, add; on rejection remove the
    new endpoints, swap back, add the old ones. ``trace``, if given,
    receives ``(a, b, accepted, delta)`` per proposal."""
    assignment = np.asarray(assignment, dtype=np.int64).copy()
    mask = node_graph.srcs != node_graph.dsts
    srcs, dsts = node_graph.srcs[mask], node_graph.dsts[mask]
    vols = node_graph.vols[mask]
    n = node_graph.num_tasks
    incident = [np.flatnonzero((srcs == c) | (dsts == c)) for c in range(n)]
    loads = router.link_loads(assignment[srcs], assignment[dsts], vols)
    cost = float(loads.max())
    rng = as_rng(seed)
    temp = 0.02 * cost if temperature is None else temperature
    alpha = (1e-3) ** (1.0 / iterations)
    best, best_cost = assignment.copy(), cost
    for _ in range(iterations):
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a == b:
            temp *= alpha
            if trace is not None:
                trace.append((a, b, False, None))
            continue
        edges = np.union1d(incident[a], incident[b])
        es, ed, ev = srcs[edges], dsts[edges], vols[edges]
        router.link_loads(assignment[es], assignment[ed], -ev, out=loads)
        assignment[a], assignment[b] = assignment[b], assignment[a]
        router.link_loads(assignment[es], assignment[ed], ev, out=loads)
        new_cost = float(loads.max())
        delta = new_cost - cost
        accepted = delta <= 0 or rng.random() < np.exp(-delta / max(temp, 1e-30))
        if trace is not None:
            trace.append((a, b, accepted, delta))
        if accepted:
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


def depth_rule_batches(trace):
    """The walk's batches with no entry cap, from the reference's
    trajectory: ``(proposals, accepted index or None)`` each. The depth
    starts at 1, doubles after a fully rejected batch and returns to 1
    after an acceptance, which ends its batch."""
    batches, depth, i = [], 1, 0
    while i < len(trace):
        batch = trace[i:i + depth]
        hit = next((j for j, t in enumerate(batch) if t[2]), None)
        if hit is None:
            batches.append((batch, None))
            depth *= 2
            i += len(batch)
        else:
            batches.append((batch, hit))
            depth = 1
            i += hit + 1
    return batches


def walk_stats(batches):
    """The ``stats`` the walk reports for ``batches``. A batch cut by an
    acceptance always planned its accepted proposal."""
    return {
        "batches": sum(1 for b, hit in batches
                       if hit is not None or any(t[0] != t[1] for t in b)),
        "speculated": sum(len(b) for b, _ in batches if len(b) > 1),
        "discarded": sum(len(b) - hit - 1 for b, hit in batches
                         if hit is not None),
    }


def _uncapped(router):
    router._pair_batch_entries = 10**12
    return router


def _run_both(topo, graph, start, iterations, seed, temperature=None,
              router_cls=MinimalAdaptiveRouter, tweak=_uncapped):
    """refine_assignment and the reference on the same inputs; returns
    both results, the walk's stats and the reference's trajectory."""
    stats, trace = {}, []
    got = refine_assignment(tweak(router_cls(topo)), graph, start, iterations,
                            seed=seed, temperature=temperature, stats=stats)
    want = two_plan_refine(router_cls(topo), graph, start, iterations,
                           seed=seed, temperature=temperature, trace=trace)
    return got, want, stats, trace


def _assert_same(got, want):
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]


# (seed, temperature) of a 4x4 torus walk whose batches include every
# case the replay must get right; the test asserts that they do.
SCENARIO_SEED, SCENARIO_TEMPERATURE = 4, 400.0


def _scenario():
    topo = CartesianTopology((4, 4), wrap=True)
    graph = random_uniform(16, 96, max_volume=1e3, seed=SCENARIO_SEED)
    start = np.random.default_rng(SCENARIO_SEED + 100).permutation(16)
    return topo, graph, start


def test_speculative_batches_replay_every_acceptance_case():
    """Acceptances mid-batch with delta <= 0 and with delta > 0, on a
    batch's last proposal, and ``a == b`` draws inside batches: the walk
    matches the reference bitwise, and its stats match the depth rule
    run over the reference's trajectory."""
    topo, graph, start = _scenario()
    got, want, stats, trace = _run_both(topo, graph, start, 400, SCENARIO_SEED,
                                        temperature=SCENARIO_TEMPERATURE)
    _assert_same(got, want)
    batches = depth_rule_batches(trace)
    assert stats == walk_stats(batches)
    deep = [(b, hit) for b, hit in batches if len(b) > 1]
    mid = [b[hit][3] for b, hit in deep if hit is not None and hit < len(b) - 1]
    assert any(delta <= 0 for delta in mid)
    assert any(delta > 0 for delta in mid)
    assert any(hit == len(b) - 1 for b, hit in deep)
    assert any(t[0] == t[1] for b, _ in deep for t in b)


@pytest.mark.parametrize("iterations", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_walks_shorter_than_one_batch(iterations, seed):
    topo, graph, start = _scenario()
    got, want, stats, trace = _run_both(topo, graph, start, iterations, seed,
                                        temperature=SCENARIO_TEMPERATURE)
    _assert_same(got, want)
    assert stats == walk_stats(depth_rule_batches(trace))


def test_cluster_without_incident_flows():
    """Clusters 12..15 have no flows: a swap of two of them moves
    nothing, its delta is 0 and the walk accepts it without a draw."""
    topo = CartesianTopology((4, 4), wrap=True)
    rng = np.random.default_rng(9)
    srcs = rng.integers(0, 12, 60)
    dsts = (srcs + rng.integers(1, 12, 60)) % 12
    graph = CommGraph(16, srcs, dsts, rng.random(60) * 1e3)
    start = rng.permutation(16)
    got, want, stats, trace = _run_both(topo, graph, start, 300, 5)
    _assert_same(got, want)
    assert stats == walk_stats(depth_rule_batches(trace))
    assert any(a != b and a >= 12 and b >= 12 and acc for a, b, acc, _ in trace)


@pytest.mark.parametrize("router_cls", [MinimalAdaptiveRouter,
                                        DimensionOrderRouter])
def test_entry_budget_holds_depth_at_one(router_cls):
    """A budget below one proposal's entries keeps every batch at one
    proposal: no saved state, no speculation, one plan per proposal."""
    topo, graph, start = _scenario()

    def tight(router):
        router._pair_batch_entries = 1
        return router

    got, want, stats, trace = _run_both(topo, graph, start, 300, 6,
                                        router_cls=router_cls, tweak=tight)
    _assert_same(got, want)
    assert stats == {"batches": sum(a != b for a, b, _, _ in trace),
                     "speculated": 0, "discarded": 0}


@pytest.mark.parametrize("iterations", [3, 250])
def test_generator_seed_ends_in_the_sequential_state(iterations):
    """A Generator passed as ``seed`` is left exactly where the
    sequential walk leaves it, replays included."""
    topo, graph, start = _scenario()
    mine, theirs = np.random.default_rng(77), np.random.default_rng(77)
    stats = {}
    got = refine_assignment(_uncapped(MinimalAdaptiveRouter(topo)), graph,
                            start, iterations, seed=mine,
                            temperature=SCENARIO_TEMPERATURE, stats=stats)
    want = two_plan_refine(MinimalAdaptiveRouter(topo), graph, start,
                           iterations, seed=theirs,
                           temperature=SCENARIO_TEMPERATURE)
    _assert_same(got, want)
    assert mine.bit_generator.state == theirs.bit_generator.state
    if iterations > 3:
        assert stats["discarded"] > 0
