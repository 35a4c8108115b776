"""End-to-end RAHTM mapper tests."""

import numpy as np
import pytest

from repro.baselines import DimOrderMapper, RandomMapper
from repro.core import RAHTMConfig, RAHTMMapper
from repro.core.clustering import greedy_fixed_size_labels
from repro.errors import ConfigError
from repro.metrics import evaluate_mapping
from repro.routing import MinimalAdaptiveRouter
from repro.topology import BGQTopology, torus
from repro.workloads import halo2d, nas_cg, random_uniform

FAST = RAHTMConfig(beam_width=8, max_orientations=8, milp_time_limit=15.0,
                   order_mode="identity", seed=0)


def test_mapping_is_valid_permutation():
    topo = torus(4, 4)
    mapping = RAHTMMapper(topo, FAST).map(random_uniform(16, 60, seed=0))
    assert mapping.is_permutation()


def test_concentration_handled():
    topo = torus(4, 4)
    g = halo2d(8, 8, volume=3.0)  # 64 tasks on 16 nodes
    mapping = RAHTMMapper(topo, FAST).map(g)
    assert mapping.tasks_per_node == 4
    assert mapping.used_nodes == 16
    assert (mapping.node_counts == 4).all()


def test_beats_default_with_concentration_on_halo():
    topo = torus(4, 4)
    g = halo2d(8, 8, volume=3.0)
    router = MinimalAdaptiveRouter(topo)
    rahtm = evaluate_mapping(router, RAHTMMapper(topo, FAST).map(g), g).mcl
    default = evaluate_mapping(
        router, DimOrderMapper(topo, "ABT").map(g), g
    ).mcl
    assert rahtm <= default


def test_beats_random_on_cg():
    topo = torus(4, 4)
    g = nas_cg(64, "W")
    router = MinimalAdaptiveRouter(topo)
    rahtm = evaluate_mapping(router, RAHTMMapper(topo, FAST).map(g), g).mcl
    rand = evaluate_mapping(
        router, RandomMapper(topo, seed=0).map(g), g
    ).mcl
    assert rahtm < rand


def test_partitioned_topology_path():
    """Non-uniform torus (arity-2 third dimension) takes the mirror path:
    one half is mapped and each matched partner sits across that
    dimension (no stitch)."""
    topo = torus(4, 4, 2)
    g = halo2d(8, 4, volume=2.0)
    mapper = RAHTMMapper(topo, FAST)
    mapping = mapper.map(g)
    assert mapping.is_permutation()
    assert "phase3-stitch" not in mapper.timer.totals
    assert "phase1-partition" in mapper.timer.totals
    pairs = greedy_fixed_size_labels(g, 2)  # concentration 1: g is the node graph
    coords = topo.coords(mapping.task_to_node)
    for label in range(16):
        a, b = coords[pairs == label]
        assert (a[:2] == b[:2]).all() and a[2] != b[2]


def test_mirror_path_folds_two_dimensions():
    topo = torus(4, 4, 2, 2)
    mapper = RAHTMMapper(topo, FAST)
    assert [dim for dim, _ in mapper.folds] == [3, 2]
    mapping = mapper.map(random_uniform(64, 200, seed=0))
    assert mapping.is_permutation()
    assert "phase1-partition" in mapper.stats["phase_seconds"]


def test_all_arity2_shape_stays_uniform():
    topo = torus(2, 2, 2)
    mapper = RAHTMMapper(topo, FAST)
    assert mapper.folds == []
    mapping = mapper.map(random_uniform(8, 20, seed=0))
    assert mapping.is_permutation()
    assert "phase1-partition" not in mapper.stats["phase_seconds"]


@pytest.mark.parametrize("shape", [(8, 4), (6, 6), (3, 2)])
def test_unfoldable_shape_rejected(shape):
    with pytest.raises(ConfigError):
        RAHTMMapper(torus(*shape), FAST)


def test_bgq_topology_accepted():
    bgq = BGQTopology(shape=(2, 2, 2, 2, 2), tasks_per_node=2)
    g = random_uniform(64, 150, seed=1)
    # A 2-ary 5-torus makes the root MILP 32x32 — let it hit the limit
    # quickly and exercise the greedy fallback.
    cfg = RAHTMConfig(beam_width=4, max_orientations=6, milp_time_limit=3.0,
                      order_mode="identity", seed=0)
    mapping = RAHTMMapper(bgq, cfg).map(g)
    assert mapping.num_tasks == 64
    assert mapping.tasks_per_node == 2


def test_dor_routing_mode():
    topo = torus(4, 4)
    cfg = RAHTMConfig(beam_width=4, max_orientations=4, routing="dor",
                      milp_time_limit=10.0, order_mode="identity", seed=0)
    mapping = RAHTMMapper(topo, cfg).map(random_uniform(16, 40, seed=2))
    assert mapping.is_permutation()


def test_no_milp_ablation():
    topo = torus(4, 4)
    cfg = RAHTMConfig(beam_width=4, max_orientations=4, use_milp=False,
                      order_mode="identity", seed=0)
    mapping = RAHTMMapper(topo, cfg).map(random_uniform(16, 40, seed=3))
    assert mapping.is_permutation()


def test_deterministic_under_seed():
    topo = torus(4, 4)
    g = random_uniform(16, 60, seed=4)
    a = RAHTMMapper(topo, FAST).map(g)
    b = RAHTMMapper(topo, FAST).map(g)
    assert np.array_equal(a.task_to_node, b.task_to_node)


def test_task_count_must_divide():
    topo = torus(4, 4)
    with pytest.raises(ConfigError):
        RAHTMMapper(topo, FAST).map(random_uniform(17, 20, seed=0))


def test_invalid_config_rejected():
    with pytest.raises(ConfigError):
        RAHTMConfig(routing="magic")
    with pytest.raises(ConfigError):
        RAHTMMapper("not a topology")


def test_stats_populated():
    topo = torus(4, 4)
    mapper = RAHTMMapper(topo, FAST)
    mapper.map(random_uniform(16, 40, seed=5))
    assert mapper.stats["concentration"] == 1
    assert "phase2-milp" in mapper.stats["phase_seconds"]
    assert mapper.stats["merge_evaluations"] > 0


def test_identity_is_optimal_for_matched_halo():
    """A 4x4 halo on a 4x4 torus: the identity mapping is optimal (all
    flows 1 hop, perfectly balanced). RAHTM must find an equally good
    mapping (MCL == volume per direction)."""
    topo = torus(4, 4)
    g = halo2d(4, 4, volume=7.0)
    router = MinimalAdaptiveRouter(topo)
    mcl = evaluate_mapping(router, RAHTMMapper(topo, FAST).map(g), g).mcl
    assert mcl == pytest.approx(7.0)


@pytest.mark.parametrize("perm", [(1, 0, 2), (2, 0, 1)])
def test_small_bt_final_mcl_does_not_depend_on_which_tied_optimum(
        monkeypatch, perm):
    """On ``small`` BT, phase 2's MAR optima come in ties that differ by
    a permutation of the cube's dimensions. Handing phase 2 a permuted
    optimum instead of the enumeration's first one must not move the
    final MCL: the merge tries every orientation of each block, so either
    tie reaches the same mappings."""
    import repro.core.pseudo_pin as pseudo_pin
    from repro.experiments.config import get_scale
    from repro.workloads.registry import parse_workload

    scale = get_scale("small")
    topo, g = scale.topology(), parse_workload("bt:256:C")
    solve = pseudo_pin.solve_cluster_mar
    moved = []

    def permuted(cube, graph):
        res = solve(cube, graph)
        coords = cube.coords_array[res.assignment][:, list(perm)]
        assignment = np.array([cube.index(c) for c in coords])
        mar = MinimalAdaptiveRouter(cube)
        mask = graph.srcs != graph.dsts
        flows = graph.srcs[mask], graph.dsts[mask], graph.vols[mask]
        assert mar.max_channel_load(
            assignment[flows[0]], assignment[flows[1]], flows[2]
        ) == pytest.approx(res.mcl, rel=1e-12)  # a tied optimum
        moved.append((assignment != res.assignment).any())
        res.assignment = assignment
        return res

    router = MinimalAdaptiveRouter(topo)
    first = evaluate_mapping(router, RAHTMMapper(topo, scale.rahtm).map(g), g)
    monkeypatch.setattr(pseudo_pin, "solve_cluster_mar", permuted)
    tied = evaluate_mapping(router, RAHTMMapper(topo, scale.rahtm).map(g), g)
    assert any(moved)
    assert tied.mcl == first.mcl == 1_280_000
