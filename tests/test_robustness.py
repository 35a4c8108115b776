"""Robustness and degenerate-input tests across the pipeline."""

import numpy as np
import pytest

from repro import CommGraph, Mapping, RAHTMConfig, RAHTMMapper, torus
from repro.core.milp import solve_cluster_milp
from repro.metrics import evaluate_mapping
from repro.routing import MinimalAdaptiveRouter
from repro.topology import hypercube
from repro.workloads import halo2d

FAST = RAHTMConfig(beam_width=4, max_orientations=4, milp_time_limit=5.0,
                   order_mode="identity", seed=0)


def test_rahtm_on_silent_application():
    """No communication at all: any placement is optimal; the pipeline
    must still return a valid permutation."""
    topo = torus(4, 4)
    g = CommGraph(16, [], [], [])
    mapping = RAHTMMapper(topo, FAST).map(g)
    assert mapping.is_permutation()
    r = MinimalAdaptiveRouter(topo)
    assert evaluate_mapping(r, mapping, g).mcl == 0.0


def test_rahtm_on_self_loop_only_graph():
    """All traffic is rank-internal: nothing touches the network."""
    topo = torus(4, 4)
    g = CommGraph(16, np.arange(16), np.arange(16), np.full(16, 100.0))
    mapping = RAHTMMapper(topo, FAST).map(g)
    assert mapping.is_permutation()


def test_rahtm_single_heavy_pair():
    """Two chatty ranks among silent ones — the Figure 1 situation at
    pipeline scale; must not crash and must spread the pair's load."""
    topo = torus(4, 4)
    g = CommGraph(16, [3, 7], [7, 3], [1000.0, 1000.0])
    mapping = RAHTMMapper(topo, FAST).map(g)
    r = MinimalAdaptiveRouter(topo)
    rep = evaluate_mapping(r, mapping, g)
    # worst possible placement puts 1000 on one channel; routing-aware
    # placement must do better
    assert rep.mcl < 1000.0


def test_rahtm_huge_volumes_no_overflow():
    topo = torus(4, 4)
    g = halo2d(4, 4, volume=1e15)
    mapping = RAHTMMapper(topo, FAST).map(g)
    r = MinimalAdaptiveRouter(topo)
    rep = evaluate_mapping(r, mapping, g)
    assert np.isfinite(rep.mcl)
    assert rep.mcl >= 1e15


def test_rahtm_tiny_volumes():
    topo = torus(4, 4)
    g = halo2d(4, 4, volume=1e-9)
    mapping = RAHTMMapper(topo, FAST).map(g)
    assert mapping.is_permutation()


def test_rahtm_without_minimal_constraint():
    """Table II without C3 (the paper notes C3 may be omitted) still
    places one heavy pair among silent clusters injectively, at an MCL
    no worse than the full model's."""
    cube = hypercube(2)
    g = CommGraph(4, [0, 1], [1, 0], [1000.0, 1000.0])
    full = solve_cluster_milp(cube, g)
    relaxed = solve_cluster_milp(cube, g, enforce_minimal=False)
    assert sorted(relaxed.assignment.tolist()) == [0, 1, 2, 3]
    assert relaxed.mcl <= full.mcl + 1e-6


def test_rahtm_without_symmetry_breaking():
    """Pinning the heaviest cluster is a valid symmetry break on a
    vertex-transitive cube: dropping it leaves the optimum unchanged."""
    cube = hypercube(2)
    g = halo2d(2, 2, volume=2.0)
    pinned = solve_cluster_milp(cube, g)
    free = solve_cluster_milp(cube, g, fix_first=False)
    assert pinned.optimal and free.optimal
    assert free.mcl == pytest.approx(pinned.mcl)


def test_rahtm_asymmetric_directed_traffic():
    """Strictly one-directional ring: directed flows must be handled
    (volumes are per direction, not symmetrized)."""
    topo = torus(4, 4)
    edges = [(t, (t + 1) % 16, 10.0) for t in range(16)]
    g = CommGraph.from_edges(16, edges)
    mapping = RAHTMMapper(topo, FAST).map(g)
    r = MinimalAdaptiveRouter(topo)
    rep = evaluate_mapping(r, mapping, g)
    assert rep.mcl >= 10.0  # some channel carries at least one edge


def test_rahtm_on_8x8_three_level_hierarchy():
    """Depth-3 hierarchy (q=3): two merge levels plus the root."""
    topo = torus(8, 8)
    g = halo2d(8, 8, volume=3.0)
    cfg = RAHTMConfig(beam_width=4, max_orientations=4, milp_time_limit=10.0,
                      order_mode="identity", seed=0)
    mapping = RAHTMMapper(topo, cfg).map(g)
    assert mapping.is_permutation()
    r = MinimalAdaptiveRouter(topo)
    rep = evaluate_mapping(r, mapping, g)
    assert rep.mcl <= 4 * 3.0  # sane bound: a few halo volumes


def test_mapping_rejects_wrong_graph_size():
    topo = torus(4, 4)
    mapping = Mapping.identity(topo)
    from repro.errors import MappingError

    with pytest.raises(MappingError):
        mapping.network_flows(CommGraph(8, [0], [1], [1.0]))
