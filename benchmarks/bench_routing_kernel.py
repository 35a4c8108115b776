"""Microbenchmarks of the MCL-evaluation kernel.

Phase 3 performs tens of thousands of link-load evaluations; these benches
track the throughput of the stencil scatter-add engine that makes the
merge search affordable. The refine-walk benches time phase 4's swap
walk, whose proposals each expand through ``Router.pair_scatter``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.clustering import cluster_fixed_size
from repro.core.rahtm import RAHTMMapper
from repro.core.refine import refine_assignment
from repro.experiments.config import get_scale
from repro.routing import DimensionOrderRouter, MinimalAdaptiveRouter
from repro.topology import torus
from repro.workloads.registry import parse_workload


@pytest.fixture(scope="module")
def flows444():
    topo = torus(4, 4, 4)
    rng = np.random.default_rng(0)
    m = 2000
    srcs = rng.integers(0, topo.num_nodes, m)
    dsts = rng.integers(0, topo.num_nodes, m)
    vols = rng.uniform(1, 100, m)
    return topo, srcs, dsts, vols


def test_mar_link_loads_2000_flows(benchmark, flows444):
    topo, srcs, dsts, vols = flows444
    router = MinimalAdaptiveRouter(topo)
    router.link_loads(srcs, dsts, vols)  # warm the stencil cache
    loads = benchmark(router.link_loads, srcs, dsts, vols)
    assert loads.max() > 0


def test_dor_link_loads_2000_flows(benchmark, flows444):
    topo, srcs, dsts, vols = flows444
    router = DimensionOrderRouter(topo)
    router.link_loads(srcs, dsts, vols)
    loads = benchmark(router.link_loads, srcs, dsts, vols)
    assert loads.max() > 0


def test_mar_link_loads_many_stitch_shape(benchmark):
    """One batched ``link_loads_many`` scatter of 16 rows of 512 flows,
    each from one 4x4x4x1 half of a 4x4x4x2 torus to the other."""
    topo = torus(4, 4, 4, 2)
    router = MinimalAdaptiveRouter(topo)
    rng = np.random.default_rng(0)
    half = topo.coords_array[:, 3]
    rows, m = 16, 512
    srcs = rng.choice(np.flatnonzero(half == 0), size=(rows, m))
    dsts = rng.choice(np.flatnonzero(half == 1), size=(rows, m))
    vols = rng.uniform(1, 100, m)
    out = np.zeros((rows, topo.num_channel_slots))
    router.link_loads_many(srcs, dsts, vols, out)  # warm the stencil cache

    def run():
        out = np.zeros((rows, topo.num_channel_slots))
        return router.link_loads_many(srcs, dsts, vols, out)

    loads = benchmark(run)
    assert loads.max(axis=1).min() > 0


def test_mar_stencil_construction(benchmark):
    topo = torus(8, 8, 8)

    def build():
        router = MinimalAdaptiveRouter(topo)
        return router.stencil((4, 4, 4))  # worst case: ties everywhere

    st = benchmark(build)
    assert st.num_entries > 0


def refine_start(spec, shape, scale):
    """The refine walk's inputs for one RAHTM map: the topology, the
    cluster graph and the placement the first three phases hand it."""
    topo = torus(*shape)
    graph = parse_workload(spec)
    config = replace(get_scale(scale).rahtm, refine_iterations=0)
    mapping = RAHTMMapper(topo, config).map(graph)
    level = cluster_fixed_size(graph, graph.num_tasks // topo.num_nodes)
    start = np.empty(topo.num_nodes, dtype=np.int64)
    start[level.labels] = mapping.task_to_node
    return topo, level.graph, start


@pytest.mark.parametrize("spec,shape,scale,iterations", [
    ("halo2d:8x8", (4, 4), "tiny", 1000),       # the serve-local job
    ("cg:2048:D", (4, 4, 4, 2), "paper-ci", 2000),  # the bgq-cg map
], ids=["serve-local-4x4", "cg-4x4x4x2"])
def test_refine_walk(benchmark, spec, shape, scale, iterations):
    topo, graph, start = refine_start(spec, shape, scale)
    router = MinimalAdaptiveRouter(topo)
    refine_assignment(router, graph, start, iterations)  # warm the stencils
    _, cost = benchmark(refine_assignment, router, graph, start, iterations)
    assert cost > 0
