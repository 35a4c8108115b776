"""Tests for the merge extensions: repositioning and refinement."""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.dimorder import DimOrderMapper
from repro.commgraph import CommGraph
from repro.core.merge import MergeBlock, MergeConfig, merge_blocks
from repro.core.refine import refine_assignment
from repro.core.rahtm import RAHTMConfig, RAHTMMapper
from repro.errors import ConfigError
from repro.experiments.config import get_scale
from repro.mapping import Mapping
from repro.metrics import evaluate_mapping
from repro.routing import MinimalAdaptiveRouter
from repro.topology import torus
from repro.workloads import random_uniform
from repro.workloads.registry import parse_workload


def four_blocks():
    """Four 2x2 blocks tiling a 4x4 torus."""
    topo = torus(4, 4)
    router = MinimalAdaptiveRouter(topo)
    blocks = []
    cid = 0
    for oi in (0, 2):
        for oj in (0, 2):
            blocks.append(MergeBlock(
                origin=np.array([oi, oj]), shape=(2, 2),
                clusters=np.arange(cid, cid + 4),
                local_coords=np.array([[0, 0], [0, 1], [1, 0], [1, 1]]),
            ))
            cid += 4
    return topo, router, blocks


def test_reposition_valid_and_no_worse():
    topo, router, blocks = four_blocks()
    g = random_uniform(16, 60, max_volume=30.0, seed=2)
    base = merge_blocks(
        topo, router, blocks, g.srcs, g.dsts, g.vols,
        MergeConfig(beam_width=16, order_mode="identity", seed=0),
        num_clusters=16,
    )
    repo = merge_blocks(
        topo, router, blocks, g.srcs, g.dsts, g.vols,
        MergeConfig(beam_width=16, order_mode="identity", seed=0,
                    reposition=True),
        num_clusters=16,
    )
    # valid bijection onto the 16 nodes
    assert sorted(repo.positions.values()) == list(range(16))
    # extra freedom should not lose badly; usually it wins
    assert repo.mcl <= base.mcl * 1.25 + 1e-9


def test_reposition_swaps_blocks_when_profitable():
    """Two distant chatting blocks: repositioning can co-locate them."""
    topo = torus(4, 4)
    router = MinimalAdaptiveRouter(topo)
    # blocks at corners 0 and 3 chat heavily; blocks 1, 2 are silent.
    _, _, blocks = four_blocks()
    edges = []
    for a in range(4):       # block 0 clusters
        for b in range(12, 16):  # block 3 clusters
            edges.append((a, b, 10.0))
    g = CommGraph.from_edges(16, edges)
    out_fixed = merge_blocks(
        topo, router, blocks, g.srcs, g.dsts, g.vols,
        MergeConfig(beam_width=32, order_mode="identity", seed=0),
        num_clusters=16,
    )
    out_repo = merge_blocks(
        topo, router, blocks, g.srcs, g.dsts, g.vols,
        MergeConfig(beam_width=32, order_mode="identity", seed=0,
                    reposition=True),
        num_clusters=16,
    )
    assert out_repo.mcl <= out_fixed.mcl + 1e-9


# -- refinement -----------------------------------------------------------------
def test_refine_never_worsens():
    topo = torus(4, 4)
    router = MinimalAdaptiveRouter(topo)
    g = random_uniform(16, 80, max_volume=40.0, seed=5)
    rng = np.random.default_rng(0)
    start = rng.permutation(16)
    start_mcl = router.max_channel_load(
        start[g.srcs[g.srcs != g.dsts]], start[g.dsts[g.srcs != g.dsts]],
        g.vols[g.srcs != g.dsts],
    )
    refined, mcl = refine_assignment(router, g, start, iterations=2000, seed=0)
    assert sorted(refined.tolist()) == list(range(16))
    assert mcl <= start_mcl + 1e-9


def test_refine_zero_iterations_identity():
    topo = torus(4, 4)
    router = MinimalAdaptiveRouter(topo)
    g = random_uniform(16, 30, seed=6)
    start = np.random.default_rng(1).permutation(16)
    refined, _ = refine_assignment(router, g, start, iterations=0)
    assert np.array_equal(refined, start)


def test_refine_validation():
    topo = torus(4, 4)
    router = MinimalAdaptiveRouter(topo)
    g = random_uniform(16, 30, seed=7)
    with pytest.raises(ConfigError):
        refine_assignment(router, g, np.zeros(16, dtype=np.int64), 10)


def test_rahtm_with_all_extensions():
    topo = torus(4, 4)
    cfg = RAHTMConfig(
        beam_width=8, max_orientations=8, milp_time_limit=15.0,
        order_mode="identity", reposition=True, refine_iterations=500,
        seed=0,
    )
    g = random_uniform(32, 100, max_volume=20.0, seed=8)
    mapper = RAHTMMapper(topo, cfg)
    mapping = mapper.map(g)
    assert (mapping.node_counts == 2).all()
    assert "refined_mcl" in mapper.stats
    assert "phase4-refine" in mapper.timer.totals


def test_rahtm_refine_beats_or_matches_plain():
    topo = torus(4, 4)
    g = random_uniform(16, 70, max_volume=25.0, seed=9)
    router = MinimalAdaptiveRouter(topo)
    base_cfg = dict(beam_width=8, max_orientations=8, milp_time_limit=15.0,
                    order_mode="identity", seed=0)
    plain = RAHTMMapper(topo, RAHTMConfig(**base_cfg)).map(g)
    refined = RAHTMMapper(
        topo, RAHTMConfig(**base_cfg, refine_iterations=2000)
    ).map(g)
    assert evaluate_mapping(router, refined, g).mcl <= evaluate_mapping(
        router, plain, g
    ).mcl + 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_refine_carries_the_small_cg_job(seed):
    """CG class C on a 2x2x2 torus at ``small`` settings, greedy
    placement: without refine RAHTM lands on the default mapping's MCL,
    and 200 proposals take it strictly below."""
    topo = torus(2, 2, 2)
    g = parse_workload("cg:32:C")
    router = MinimalAdaptiveRouter(topo)
    default = evaluate_mapping(router, DimOrderMapper(topo).map(g), g).mcl

    def rahtm_mcl(iterations):
        config = replace(get_scale("small").rahtm, use_milp=False,
                         refine_iterations=iterations, seed=seed)
        return evaluate_mapping(router, RAHTMMapper(topo, config).map(g), g).mcl

    assert rahtm_mcl(0) == pytest.approx(default, rel=1e-12)
    assert rahtm_mcl(200) < default * (1 - 1e-9)
