"""Structural feasibility of the full paper-scale configuration.

The complete 16,384-task mapping run costs hours (documented); these
tests verify the *structure* at full scale stays sound and affordable:
workload generation, phase-1 clustering, the hierarchy bookkeeping, and
the mirror fold of the E dimension all run in seconds even at 16K tasks.
"""

import numpy as np
import pytest

from repro.core.clustering import (
    build_cluster_hierarchy,
    cluster_fixed_size,
    greedy_fixed_size_labels,
)
from repro.core.rahtm import mirror_folds
from repro.experiments.config import get_scale
from repro.experiments.runner import benchmark_apps
from repro.topology import CubeHierarchy
from repro.workloads import nas_bt, nas_cg, nas_sp


@pytest.fixture(scope="module")
def paper():
    return get_scale("paper")


def test_paper_workloads_generate(paper):
    for gen in (nas_bt, nas_sp, nas_cg):
        g = gen(paper.num_tasks, paper.problem_class)
        assert g.num_tasks == 16384
        assert g.num_edges > 16384  # every rank communicates


def test_paper_partition_structure(paper):
    topo = paper.topology()
    folds = mirror_folds(topo)
    assert [dim for dim, _ in folds] == [4]  # the E-dimension fold
    cube_h = CubeHierarchy(folds[-1][1])
    assert cube_h.n == 4
    assert cube_h.num_levels == 2
    assert cube_h.num_blocks(1) == 16
    g = nas_cg(paper.num_tasks, paper.problem_class)
    node_graph = cluster_fixed_size(g, paper.concentration).graph
    assert node_graph.num_tasks == 512
    pairs = greedy_fixed_size_labels(node_graph, 2)
    assert np.array_equal(np.bincount(pairs), np.full(256, 2))


def test_paper_concentration_clustering_fast(paper):
    g = nas_cg(paper.num_tasks, "C")
    level = cluster_fixed_size(g, paper.concentration)
    assert level.graph.num_tasks == 512
    # clustering must keep most of CG's volume on-node or near
    assert level.graph.offdiagonal_volume < g.total_volume


def test_paper_hierarchy_shapes(paper):
    g = nas_bt(paper.num_tasks, "C")
    level = cluster_fixed_size(g, paper.concentration)
    # the half graph: one cluster of each of the 256 matched pairs
    pairs = greedy_fixed_size_labels(level.graph, 2)
    members = np.unique(pairs, return_index=True)[1]
    sub = level.graph.subgraph(members)
    h = build_cluster_hierarchy(sub, 256, 16, 2)
    assert h.graph_at(0).num_tasks == 256
    assert h.graph_at(1).num_tasks == 16
    assert h.graph_at(2).num_tasks == 1


def test_paper_apps_and_calibration_targets(paper):
    apps = benchmark_apps(paper)
    assert {a.num_tasks for a in apps.values()} == {16384}
    # BT/SP at 128x128 multipartition, CG at 128x128 grid
    assert apps["BT"].phases[0].grid_shape == (128, 128)
    assert apps["CG"].comm_graph().grid_shape == (128, 128)
