"""Phase-2 pseudo-pinning tests."""

import numpy as np
import pytest

from repro.core.clustering import build_cluster_hierarchy
from repro.core.pseudo_pin import pseudo_pin
from repro.errors import ConfigError
from repro.mapping import Mapping
from repro.metrics import evaluate_mapping
from repro.routing import MinimalAdaptiveRouter
from repro.topology import CubeHierarchy, torus
from repro.workloads import halo2d, random_uniform


def build(graph, topo):
    cube_h = CubeHierarchy(topo)
    hierarchy = build_cluster_hierarchy(
        graph, topo.num_nodes, 2**cube_h.n, cube_h.num_levels
    )
    return hierarchy, cube_h


def test_pin_is_bijection():
    topo = torus(4, 4)
    hierarchy, cube_h = build(random_uniform(16, 60, seed=0), topo)
    pin = pseudo_pin(hierarchy, cube_h, time_limit=20)
    assert sorted(pin.cluster_to_node.tolist()) == list(range(16))


def test_pin_with_greedy_fallback_is_bijection():
    topo = torus(4, 4)
    hierarchy, cube_h = build(random_uniform(16, 60, seed=1), topo)
    pin = pseudo_pin(hierarchy, cube_h, use_milp=False)
    assert sorted(pin.cluster_to_node.tolist()) == list(range(16))
    assert all(r.method == "greedy" for r in pin.milp_stats)


def test_symmetry_cache_fires_for_identical_subproblems():
    topo = torus(4, 4)
    # perfectly symmetric workload: all leaf subproblems identical
    hierarchy, cube_h = build(halo2d(4, 4, volume=1.0), topo)
    pin = pseudo_pin(hierarchy, cube_h, time_limit=20)
    assert pin.cache_hits > 0
    assert len(pin.milp_stats) + pin.cache_hits == 1 + 4  # root + 4 leaves


def test_pin_places_heavy_pairs_within_blocks():
    """Clusters that communicate heavily end up in the same level-1 block
    when the clustering put them under the same parent."""
    topo = torus(4, 4)
    graph = halo2d(8, 8, volume=5.0)  # 64 tasks, conc 4
    cube_h = CubeHierarchy(topo)
    hierarchy = build_cluster_hierarchy(graph, 16, 4, 2)
    pin = pseudo_pin(hierarchy, cube_h, time_limit=20)
    labels = hierarchy.levels[0].labels  # node-cluster -> level-1 cluster
    blocks = cube_h.block_of(pin.cluster_to_node, 1)
    # siblings share the level-1 block
    for parent in range(4):
        members = np.flatnonzero(labels == parent)
        assert len(set(blocks[members].tolist())) == 1


def test_pin_quality_beats_random_on_modular_workload():
    """On a strongly modular graph (heavy cliques + light ring), phase 2
    keeps each clique inside one leaf block, beating random placements."""
    from repro.commgraph import CommGraph

    edges = []
    for grp in range(4):
        members = range(4 * grp, 4 * grp + 4)
        for a in members:
            for b in members:
                if a != b:
                    edges.append((a, b, 100.0))
        edges.append((4 * grp, (4 * grp + 4) % 16, 1.0))
    graph = CommGraph.from_edges(16, edges)
    topo = torus(4, 4)
    hierarchy, cube_h = build(graph, topo)
    pin = pseudo_pin(hierarchy, cube_h, time_limit=20)
    router = MinimalAdaptiveRouter(topo)
    pinned = evaluate_mapping(
        router, Mapping(topo, pin.cluster_to_node), hierarchy.node_graph
    ).mcl
    rng = np.random.default_rng(0)
    random_mcls = [
        evaluate_mapping(
            router, Mapping(topo, rng.permutation(16)), hierarchy.node_graph
        ).mcl
        for _ in range(20)
    ]
    assert pinned < np.median(random_mcls)


def test_pin_deterministic():
    topo = torus(4, 4)
    graph = random_uniform(16, 60, seed=9)
    hierarchy, cube_h = build(graph, topo)
    a = pseudo_pin(hierarchy, cube_h, time_limit=20).cluster_to_node
    b = pseudo_pin(hierarchy, cube_h, time_limit=20).cluster_to_node
    assert np.array_equal(a, b)


def test_level_mismatch_rejected():
    topo = torus(4, 4)
    graph = random_uniform(16, 30, seed=0)
    cube_h = CubeHierarchy(topo)
    bad = build_cluster_hierarchy(graph, 16, 16, 1)  # wrong branching
    with pytest.raises(ConfigError):
        pseudo_pin(bad, cube_h)


@pytest.mark.parametrize("shape,want", [
    ((4, 4), "mar"), ((4, 4, 4), "mar"), ((2, 2, 2, 2), "milp"),
])
def test_cubes_up_to_8_vertices_are_enumerated_larger_go_to_table2(
        monkeypatch, shape, want):
    """Phase 2 solves 4- and 8-vertex cubes exactly under MAR and keeps
    the Table II MILP (with its time limit) for 16-vertex cubes."""
    import repro.core.pseudo_pin as pp
    from repro.core.milp import MILPResult

    calls = []
    real_mar = pp.solve_cluster_mar

    def mar(cube, graph):
        calls.append(("mar", cube.num_nodes))
        return real_mar(cube, graph)

    def milp(cube, graph, time_limit, mip_rel_gap):
        calls.append(("milp", cube.num_nodes, time_limit))
        return MILPResult(np.arange(graph.num_tasks), 0.0, True, "optimal")

    monkeypatch.setattr(pp, "solve_cluster_mar", mar)
    monkeypatch.setattr(pp, "solve_cluster_milp", milp)
    topo = torus(*shape)
    graph = random_uniform(topo.num_nodes, 4 * topo.num_nodes, seed=2)
    hierarchy, cube_h = build(graph, topo)
    pin = pseudo_pin(hierarchy, cube_h, time_limit=7.0)
    assert sorted(pin.cluster_to_node.tolist()) == list(range(topo.num_nodes))
    vertices = 2**cube_h.n
    expected = (("mar", vertices) if want == "mar"
                else ("milp", vertices, 7.0))
    assert calls and set(calls) == {expected}
    assert len(calls) == len(pin.milp_stats)
