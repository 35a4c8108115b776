"""Bitwise-equivalence properties of the vectorized hot-path kernels.

The vectorized CSR routing path, the batched orientation transform, the
pair-delta scatter plans and the chunked expansion are all *defined* as
bitwise-identical reorderings-free rewrites of the scalar reference
loops. These tests pin that contract on mixed-radix tori up to the
paper's 4x4x4x4x2 BG/Q shape, and on meshes and mixed-wrap shapes
with arity-1 and arity-2 dimensions: every comparison is ``==`` on
float64 arrays, never ``allclose``.
"""

import numpy as np
import pytest

from repro.core.merge import MergeBlock, MergeConfig, _MergeEngine
from repro.core.orientation import all_orientations, apply_batch
from repro.routing import DimensionOrderRouter, MinimalAdaptiveRouter
from repro.routing.base import clear_stencil_cache
from repro.routing.valiant import ValiantRouter
from repro.topology import CartesianTopology

SHAPES = [(4, 4), (4, 2), (3, 5, 2), (4, 4, 4), (2, 3, 4, 5), (4, 4, 4, 4, 2)]

ROUTERS = [
    ("mar", MinimalAdaptiveRouter),
    ("dor", DimensionOrderRouter),
    ("valiant", ValiantRouter),
]

# Meshes and mixed-wrap shapes, including partition-local shapes with
# arity-1 and arity-2 dimensions. The slot lookup reduces every stencil
# offset mod the shape, which is exact on a mesh dimension only because
# routed channels never leave the mesh; these shapes pin that.
MESH_SHAPES = [
    ((4, 4), False),
    ((3, 5, 2), (True, False, True)),
    ((4, 4, 4, 1), (True, True, True, False)),
    ((2, 4, 2), (False, True, False)),
    ((4, 4, 4, 2), (True, False, True, False)),
]
MESH_ROUTERS = ROUTERS[:2]  # Valiant is defined on tori only


def flows_for(topo, n, seed):
    rng = np.random.default_rng(seed)
    srcs = rng.integers(0, topo.num_nodes, size=n)
    dsts = rng.integers(0, topo.num_nodes, size=n)
    vols = rng.random(n) * 1e3
    return srcs, dsts, vols


@pytest.mark.parametrize("shape", SHAPES, ids=[str(s) for s in SHAPES])
@pytest.mark.parametrize("name,cls", ROUTERS, ids=[r[0] for r in ROUTERS])
def test_vectorized_link_loads_bitwise_equals_scalar(shape, name, cls):
    """The CSR scatter path reproduces the per-group scalar loop bit for
    bit, on every router family and mixed-radix torus."""
    clear_stencil_cache()
    topo = CartesianTopology(shape, wrap=True)
    fast = cls(topo)
    slow = cls(topo, scalar_fallback=True)
    srcs, dsts, vols = flows_for(topo, 300, seed=hash((shape, name)) % 2**31)
    a = fast.link_loads(srcs, dsts, vols)
    b = slow.link_loads(srcs, dsts, vols)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("shape", [(4, 4, 4), (4, 4, 4, 4, 2)],
                         ids=["4x4x4", "bgq"])
def test_link_loads_many_rows_bitwise_equal_solo(shape):
    """Each row of the batched scatter is exactly the solo accumulation."""
    topo = CartesianTopology(shape, wrap=True)
    router = MinimalAdaptiveRouter(topo)
    rng = np.random.default_rng(7)
    B, m = 5, 120
    srcs = rng.integers(0, topo.num_nodes, size=(B, m))
    dsts = rng.integers(0, topo.num_nodes, size=(B, m))
    vols = rng.random(m)
    out = np.zeros((B, topo.num_channel_slots))
    router.link_loads_many(srcs, dsts, vols, out)
    for b in range(B):
        solo = router.link_loads(srcs[b], dsts[b], vols)
        assert np.array_equal(out[b], solo)


@pytest.mark.parametrize("chunk", [1, 7, 64, 10**9])
def test_chunked_expansion_is_bitwise_invariant(chunk):
    """Splitting the expansion stream at any chunk size changes nothing:
    sequential scatter-adds over consecutive slices of one stream apply
    the identical addition sequence."""
    topo = CartesianTopology((3, 5, 2), wrap=True)
    reference = MinimalAdaptiveRouter(topo)
    chunked = MinimalAdaptiveRouter(topo)
    chunked._expansion_chunk = chunk
    srcs, dsts, vols = flows_for(topo, 250, seed=11)
    assert np.array_equal(
        reference.link_loads(srcs, dsts, vols),
        chunked.link_loads(srcs, dsts, vols),
    )
    B, m = 4, 60
    bs, bd = srcs[: B * m].reshape(B, m), dsts[: B * m].reshape(B, m)
    bv = vols[:m]
    out_a = np.zeros((B, topo.num_channel_slots))
    out_b = np.zeros((B, topo.num_channel_slots))
    reference.link_loads_many(bs, bd, bv, out_a)
    chunked.link_loads_many(bs, bd, bv, out_b)
    assert np.array_equal(out_a, out_b)


def test_pair_scatter_without_pair_tables_replays_link_loads_bitwise():
    """With the all-pairs tables over their size limit, pair_scatter
    falls back to the uncached expansion (and the coordinate slot
    formula) and still replays link_loads bit for bit."""
    topo = CartesianTopology((4, 4, 4), wrap=True)
    router = MinimalAdaptiveRouter(topo)
    router._pair_table_limit = 0
    srcs, dsts, vols = flows_for(topo, 200, seed=3)
    plan = router.pair_scatter(srcs, dsts, vols)
    assert not router.pair_tables_available() and router._translate is None
    out = np.zeros(topo.num_channel_slots)
    plan.add_into(out)
    assert np.array_equal(out, router.link_loads(srcs, dsts, vols))
    assert np.array_equal(
        out,
        MinimalAdaptiveRouter(topo, scalar_fallback=True).link_loads(
            srcs, dsts, vols
        ),
    )


def _shape_ids(cases):
    return [f"{shape}-{wrap}" for shape, wrap in cases]


@pytest.mark.parametrize("tables", [True, False], ids=["lookup", "coords"])
@pytest.mark.parametrize("shape,wrap", MESH_SHAPES, ids=_shape_ids(MESH_SHAPES))
@pytest.mark.parametrize("name,cls", MESH_ROUTERS,
                         ids=[r[0] for r in MESH_ROUTERS])
def test_mesh_kernels_bitwise_equal_scalar(shape, wrap, name, cls, tables):
    """link_loads, every row of link_loads_many and pair_scatter equal
    the scalar reference on meshes and mixed-wrap shapes, with the
    translation-table lookup and with the coordinate formula."""
    clear_stencil_cache()
    topo = CartesianTopology(shape, wrap=wrap)
    fast = cls(topo)
    if not tables:
        fast._pair_table_limit = 0
    slow = cls(topo, scalar_fallback=True)
    srcs, dsts, vols = flows_for(topo, 300, seed=hash((shape, name)) % 2**31)
    reference = slow.link_loads(srcs, dsts, vols)
    assert np.array_equal(fast.link_loads(srcs, dsts, vols), reference)
    assert (fast._translate is not None) == tables

    B, m = 4, 75
    bs, bd = srcs.reshape(B, m), dsts.reshape(B, m)
    out = np.zeros((B, topo.num_channel_slots))
    fast.link_loads_many(bs, bd, vols[:m], out)
    for b in range(B):
        assert np.array_equal(out[b], slow.link_loads(bs[b], bd[b], vols[:m]))

    for _ in range(2):  # first call fills the pair cache, second reads it
        plan = fast.pair_scatter(srcs, dsts, vols)
        got = np.zeros(topo.num_channel_slots)
        plan.add_into(got)
        assert np.array_equal(got, reference)


def test_pair_scatter_duplicate_pairs_in_one_batch():
    """A batch naming the same (src, dst) pair several times caches it
    once and replays every copy in the scalar order."""
    topo = CartesianTopology((4, 4, 2), wrap=(True, True, False))
    router = MinimalAdaptiveRouter(topo)
    slow = MinimalAdaptiveRouter(topo, scalar_fallback=True)
    rng = np.random.default_rng(21)
    base_s = rng.integers(0, topo.num_nodes, size=10)
    base_d = rng.integers(0, topo.num_nodes, size=10)
    pick = rng.integers(0, 10, size=90)
    srcs, dsts = base_s[pick], base_d[pick]
    vols = rng.random(90) * 1e3
    plan = router.pair_scatter(srcs, dsts, vols)
    got = np.zeros(topo.num_channel_slots)
    plan.add_into(got)
    assert np.array_equal(got, slow.link_loads(srcs, dsts, vols))
    distinct = len({(int(s), int(d)) for s, d in zip(base_s, base_d) if s != d})
    assert router._pp_count == distinct


def test_pair_scatter_cache_cap_runs_out_mid_fill():
    """When the per-pair cache fills partway through a batched fill, the
    pairs that fit are cached, the call falls back to the uncached
    expansion, and later calls keep matching the scalar reference."""
    topo = CartesianTopology((4, 4, 4), wrap=True)
    router = MinimalAdaptiveRouter(topo)
    router._pair_cache_cap = 25
    slow = MinimalAdaptiveRouter(topo, scalar_fallback=True)
    for seed in (31, 32, 33):
        srcs, dsts, vols = flows_for(topo, 40, seed=seed)
        plan = router.pair_scatter(srcs, dsts, vols)
        got = np.zeros(topo.num_channel_slots)
        plan.add_into(got)
        assert np.array_equal(got, slow.link_loads(srcs, dsts, vols))
        assert router._pp_count == 25
    cached = np.flatnonzero(router._pair_cid >= 0)
    assert len(cached) == 25
    # A batch of cached pairs only is served from the pool.
    pairs = cached[:10]
    srcs, dsts = pairs // topo.num_nodes, pairs % topo.num_nodes
    vols = np.arange(1.0, 11.0)
    plan = router.pair_scatter(srcs, dsts, vols)
    got = np.zeros(topo.num_channel_slots)
    plan.add_into(got)
    assert np.array_equal(got, slow.link_loads(srcs, dsts, vols))


def test_pair_scatter_propose_rollback_is_exact():
    """A PairPlan applied with sign=+1 matches link_loads bitwise, and
    with sign=-1 it replays ``link_loads`` of the *negated* volumes
    bitwise (IEEE negation is exact: ``(-v)*f == -(v*f)``) — the refine
    loop's propose/rollback contract."""
    topo = CartesianTopology((4, 4), wrap=True)
    router = MinimalAdaptiveRouter(topo)
    assert router.pair_tables_available()
    srcs, dsts, vols = flows_for(topo, 80, seed=5)
    plan = router.pair_scatter(srcs, dsts, vols)
    assert plan is not None
    fresh = np.zeros(topo.num_channel_slots)
    plan.add_into(fresh)
    assert np.array_equal(fresh, router.link_loads(srcs, dsts, vols))
    base = router.link_loads(*flows_for(topo, 50, seed=6))
    undone = base.copy()
    plan.add_into(undone, sign=-1.0)
    reference = base.copy()
    router.link_loads(srcs, dsts, -vols, out=reference)
    assert np.array_equal(undone, reference)


@pytest.mark.parametrize("ndim,shape", [(2, (4, 4)), (3, (2, 2, 2))])
def test_apply_batch_bitwise_equals_per_orientation_apply(ndim, shape):
    orients = all_orientations(ndim)
    rng = np.random.default_rng(1)
    coords = rng.integers(0, min(shape), size=(40, ndim))
    batch = apply_batch(orients, coords, shape)
    for i, o in enumerate(orients):
        assert np.array_equal(batch[i], o.apply(coords, shape))


def test_pair_mcl_batch_bitwise_equals_solo_pair_mcl():
    topo = CartesianTopology((4, 4), wrap=True)
    router = MinimalAdaptiveRouter(topo)
    blocks = [
        MergeBlock(
            origin=np.array([0, 0]), shape=(2, 2),
            clusters=np.array([0, 1, 2, 3]),
            local_coords=np.array([[0, 0], [0, 1], [1, 0], [1, 1]]),
        ),
        MergeBlock(
            origin=np.array([0, 2]), shape=(2, 2),
            clusters=np.array([4, 5, 6, 7]),
            local_coords=np.array([[0, 0], [0, 1], [1, 0], [1, 1]]),
        ),
    ]
    rng = np.random.default_rng(2)
    srcs = rng.integers(0, 8, size=40)
    dsts = rng.integers(0, 8, size=40)
    vols = rng.random(40) * 100
    engine = _MergeEngine(
        topo, router, blocks, srcs, dsts, vols,
        MergeConfig(beam_width=4, seed=0), num_clusters=8,
    )
    n1, n2 = len(engine.orients[0]), len(engine.orients[1])
    pairs = [(o1, o2) for o1 in range(n1) for o2 in range(n2)]
    batch = engine.pair_mcl_batch(0, 0, 1, 1, pairs)
    solo = np.array([engine.pair_mcl(0, 0, o1, 1, 1, o2) for o1, o2 in pairs])
    assert np.array_equal(batch, solo)


def test_stencil_memo_shared_across_router_instances():
    """The process-wide stencil memo serves congruent routers: a second
    router on the same topology reuses the first one's stencils (counted
    as hits), and the loads stay bitwise identical."""
    clear_stencil_cache()
    topo = CartesianTopology((4, 4), wrap=True)
    srcs, dsts, vols = flows_for(topo, 60, seed=13)
    r1 = MinimalAdaptiveRouter(topo)
    a = r1.link_loads(srcs, dsts, vols)
    assert len(r1._stencils) > 0
    r2 = MinimalAdaptiveRouter(topo)
    b = r2.link_loads(srcs, dsts, vols)
    assert np.array_equal(a, b)
    # Identity, not equality: r2's stencils are r1's objects, served
    # from the process-wide memo instead of rebuilt.
    assert r2._stencils
    for key, st in r2._stencils.items():
        assert st is r1._stencils[key]
    clear_stencil_cache()
