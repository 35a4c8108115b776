"""Bitwise-equivalence properties of the vectorized hot-path kernels.

The router's group-block expansion (``Router.entries``) behind
``link_loads`` and ``link_loads_many``, the pair-scatter plans, the
batched orientation transform and the entry bound on blocks are all
*defined* as bitwise-identical, reordering-free rewrites of plain
loops. The routing kernels are checked against the per-offset loop in
:mod:`repro.routing.reference`, which shares only ``Router.stencil``
with them. These tests pin that contract on mixed-radix tori up to the
paper's 4x4x4x4x2 BG/Q shape, and on meshes and mixed-wrap shapes
with arity-1 and arity-2 dimensions: every comparison is ``==`` on
float64 arrays, never ``allclose``.
"""

import numpy as np
import pytest

from repro.core.merge import MergeBlock, MergeConfig, _MergeEngine
from repro.core.orientation import all_orientations, apply_batch
from repro.errors import RoutingError
from repro.routing import DimensionOrderRouter, MinimalAdaptiveRouter
from repro.routing.base import clear_stencil_cache
from repro.routing.reference import reference_link_loads
from repro.topology import CartesianTopology

SHAPES = [(4, 4), (4, 2), (3, 5, 2), (4, 4, 4), (2, 3, 4, 5), (4, 4, 4, 4, 2)]

ROUTERS = [
    ("mar", MinimalAdaptiveRouter),
    ("dor", DimensionOrderRouter),
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


def flows_for(topo, n, seed):
    rng = np.random.default_rng(seed)
    srcs = rng.integers(0, topo.num_nodes, size=n)
    dsts = rng.integers(0, topo.num_nodes, size=n)
    vols = rng.random(n) * 1e3
    return srcs, dsts, vols


@pytest.mark.parametrize("shape", SHAPES, ids=[str(s) for s in SHAPES])
@pytest.mark.parametrize("name,cls", ROUTERS, ids=[r[0] for r in ROUTERS])
def test_vectorized_link_loads_bitwise_equals_scalar(shape, name, cls):
    """The CSR scatter path reproduces the per-offset reference loop bit
    for bit, on every router family and mixed-radix torus."""
    clear_stencil_cache()
    topo = CartesianTopology(shape, wrap=True)
    fast = cls(topo)
    srcs, dsts, vols = flows_for(topo, 300, seed=hash((shape, name)) % 2**31)
    a = fast.link_loads(srcs, dsts, vols)
    b = reference_link_loads(cls(topo), srcs, dsts, vols)
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
    """Splitting offset groups into blocks at any entry bound changes
    nothing: sequential scatter-adds over consecutive blocks of one
    group apply the identical addition sequence."""
    topo = CartesianTopology((3, 5, 2), wrap=True)
    reference = MinimalAdaptiveRouter(topo)
    chunked = MinimalAdaptiveRouter(topo)
    chunked._block_entries = chunk
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


# Shapes for the group-block pins: tori, a mesh, mixed wrap, arity-2
# and 1-wide dimensions, up to the paper's BG/Q shape.
BLOCK_SHAPES = [
    ((4, 4, 4, 2), True),
    ((4, 4, 4, 1), True),
    ((4, 4, 4, 4, 2), True),
    ((4, 4), False),
    ((3, 5, 2), (True, False, True)),
    ((2, 4, 2), (False, True, False)),
    ((4, 4, 4, 1), (True, True, True, False)),
]


@pytest.mark.parametrize("bound", [None, 24], ids=["whole", "split"])
@pytest.mark.parametrize("tables", [True, False], ids=["lookup", "coords"])
@pytest.mark.parametrize("shape,wrap", BLOCK_SHAPES,
                         ids=[f"{s}-{w}" for s, w in BLOCK_SHAPES])
@pytest.mark.parametrize("name,cls", ROUTERS,
                         ids=[r[0] for r in ROUTERS])
def test_group_blocks_bitwise_equal_reference(name, cls, shape, wrap, tables,
                                              bound):
    """``link_loads`` and every row of ``link_loads_many`` equal the
    per-offset reference loop bit for bit, with the translation table
    and with the coordinate formula, whether each offset group is one
    block or, under a tiny entry bound, split across several."""
    clear_stencil_cache()
    topo = CartesianTopology(shape, wrap=wrap)
    fast = cls(topo)
    if not tables:
        fast._pair_table_limit = 0
    if bound is not None:
        fast._block_entries = bound
    plain = cls(topo)
    # Few distinct sources and destinations, so offset groups are large.
    rng = np.random.default_rng([*shape, len(name)])
    ends = rng.integers(0, topo.num_nodes, size=(2, 6))
    srcs = ends[0, rng.integers(0, 6, size=320)]
    dsts = ends[1, rng.integers(0, 6, size=320)]
    vols = rng.random(320) * 1e3
    assert np.array_equal(fast.link_loads(srcs, dsts, vols),
                          reference_link_loads(plain, srcs, dsts, vols))
    assert (fast._translate is not None) == tables

    _, blocks = fast.entries(srcs, dsts)
    spans = [(lo, hi, slots.size) for lo, hi, slots, _ in blocks]
    keys = fast._offset_keys(srcs, dsts)
    groups = len(np.unique(keys[srcs != dsts]))
    if bound is None:
        assert len(spans) == groups
    else:
        assert len(spans) > groups  # some group spans several blocks
        assert all(n <= bound or hi - lo == 1 for lo, hi, n in spans)

    B, m = 4, 80
    bs, bd = srcs.reshape(B, m), dsts.reshape(B, m)
    out = np.zeros((B, topo.num_channel_slots))
    fast.link_loads_many(bs, bd, vols[:m], out)
    for b in range(B):
        assert np.array_equal(
            out[b], reference_link_loads(plain, bs[b], bd[b], vols[:m])
        )


@pytest.mark.parametrize("kind", ["sliced", "fortran"])
def test_link_loads_many_into_non_contiguous_out(kind):
    """A strided ``out`` (a column slice of a wider matrix, or a
    Fortran-ordered buffer) receives exactly the loads a C-contiguous
    one does, added to what it held; columns outside the slice stay
    untouched."""
    topo = CartesianTopology((4, 4, 2), wrap=True)
    router = MinimalAdaptiveRouter(topo)
    S = topo.num_channel_slots
    srcs, dsts, vols = flows_for(topo, 120, seed=23)
    bs, bd, bv = srcs.reshape(3, 40), dsts.reshape(3, 40), vols[:40]
    expected = np.ones((3, S))
    router.link_loads_many(bs, bd, bv, expected)
    if kind == "sliced":
        big = np.ones((3, 2 * S))
        out = big[:, :S]
    else:
        out = np.ones((3, S), order="F")
    assert not out.flags.c_contiguous
    assert router.link_loads_many(bs, bd, bv, out) is out
    assert np.array_equal(out, expected)
    if kind == "sliced":
        assert (big[:, S:] == 1.0).all()


def _plan_halves(plan, num_slots, k=0):
    """Loads the old and the new half of proposal ``k``'s plan segment."""
    start, split, end = plan.segment(k)
    old, new = np.zeros(num_slots), np.zeros(num_slots)
    np.add.at(old, plan.slots[start:split], plan.contrib[start:split])
    np.add.at(new, plan.slots[split:end], plan.contrib[split:end])
    return old, new


def _assert_plan_replays(plan, plain, old, new, vols, k=0):
    """Proposal ``k``'s old half is the reference scatter of the negated
    volumes on the old endpoints, its new half that of the volumes on
    the new endpoints, bit for bit."""
    got_old, got_new = _plan_halves(plan, plain.topology.num_channel_slots, k)
    assert np.array_equal(got_old, reference_link_loads(plain, *old, -vols))
    assert np.array_equal(got_new, reference_link_loads(plain, *new, vols))


def test_pair_scatter_without_pair_tables_replays_link_loads_bitwise():
    """With the all-pairs tables over their size limit, pair_scatter
    falls back to the uncached expansion (and the coordinate slot
    formula) and still replays link_loads bit for bit."""
    topo = CartesianTopology((4, 4, 4), wrap=True)
    router = MinimalAdaptiveRouter(topo)
    router._pair_table_limit = 0
    srcs, dsts, vols = flows_for(topo, 200, seed=3)
    new_s, new_d, _ = flows_for(topo, 200, seed=4)
    plan = router.pair_scatter(np.stack((srcs, new_s)), np.stack((dsts, new_d)),
                               vols)
    assert not router.pair_tables_available() and router._translate is None
    out = np.zeros(topo.num_channel_slots)
    np.add.at(out, plan.slots, plan.contrib)
    expected = router.link_loads(srcs, dsts, -vols)
    router.link_loads(new_s, new_d, vols, out=expected)
    assert np.array_equal(out, expected)
    _assert_plan_replays(plan, MinimalAdaptiveRouter(topo), (srcs, dsts),
                         (new_s, new_d), vols)


def _shape_ids(cases):
    return [f"{shape}-{wrap}" for shape, wrap in cases]


@pytest.mark.parametrize("tables", [True, False], ids=["lookup", "coords"])
@pytest.mark.parametrize("shape,wrap", MESH_SHAPES, ids=_shape_ids(MESH_SHAPES))
@pytest.mark.parametrize("name,cls", ROUTERS,
                         ids=[r[0] for r in ROUTERS])
def test_mesh_kernels_bitwise_equal_scalar(shape, wrap, name, cls, tables):
    """link_loads, every row of link_loads_many and pair_scatter equal
    the reference loop on meshes and mixed-wrap shapes, with the
    translation-table lookup and with the coordinate formula."""
    clear_stencil_cache()
    topo = CartesianTopology(shape, wrap=wrap)
    fast = cls(topo)
    if not tables:
        fast._pair_table_limit = 0
    plain = cls(topo)
    srcs, dsts, vols = flows_for(topo, 300, seed=hash((shape, name)) % 2**31)
    reference = reference_link_loads(plain, srcs, dsts, vols)
    assert np.array_equal(fast.link_loads(srcs, dsts, vols), reference)
    assert (fast._translate is not None) == tables

    B, m = 4, 75
    bs, bd = srcs.reshape(B, m), dsts.reshape(B, m)
    out = np.zeros((B, topo.num_channel_slots))
    fast.link_loads_many(bs, bd, vols[:m], out)
    for b in range(B):
        assert np.array_equal(
            out[b], reference_link_loads(plain, bs[b], bd[b], vols[:m])
        )

    swapped = (srcs[::-1], dsts[::-1])
    for _ in range(2):  # first call builds the stencils, second reuses them
        plan = fast.pair_scatter(np.stack((swapped[0], srcs)),
                                 np.stack((swapped[1], dsts)), vols)
        got_old, got_new = _plan_halves(plan, topo.num_channel_slots)
        assert np.array_equal(got_new, reference)
        assert np.array_equal(
            got_old, reference_link_loads(plain, *swapped, -vols)
        )


def test_pair_scatter_duplicate_pairs_in_one_batch():
    """A proposal naming the same (src, dst) pair several times, in
    either row, replays every copy in the reference order."""
    topo = CartesianTopology((4, 4, 2), wrap=(True, True, False))
    router = MinimalAdaptiveRouter(topo)
    plain = MinimalAdaptiveRouter(topo)
    rng = np.random.default_rng(21)
    base_s = rng.integers(0, topo.num_nodes, size=10)
    base_d = rng.integers(0, topo.num_nodes, size=10)
    pick = rng.integers(0, 10, size=(2, 90))
    srcs, dsts = base_s[pick], base_d[pick]
    vols = rng.random(90) * 1e3
    plan = router.pair_scatter(srcs, dsts, vols)
    _assert_plan_replays(plan, plain, (srcs[0], dsts[0]), (srcs[1], dsts[1]),
                         vols)


def test_pair_scatter_cache_cap_runs_out_mid_fill():
    """Proposals on a cold router bring offsets whose stencils are not
    in its table yet, so the table grows between calls; every plan, and
    a last proposal of pairs the walk has already expanded, matches the
    reference loop."""
    clear_stencil_cache()
    topo = CartesianTopology((4, 4, 4), wrap=True)
    router = MinimalAdaptiveRouter(topo)
    plain = MinimalAdaptiveRouter(topo)
    seen = []
    for seed in (31, 32, 33):
        srcs, dsts, vols = flows_for(topo, 40, seed=seed)
        new_s, new_d, _ = flows_for(topo, 40, seed=seed + 10)
        tabled = len(router._stencil_seq)
        plan = router.pair_scatter(np.stack((srcs, new_s)),
                                   np.stack((dsts, new_d)), vols)
        _assert_plan_replays(plan, plain, (srcs, dsts), (new_s, new_d), vols)
        assert len(router._stencil_seq) > tabled
        seen.append((srcs[:10], dsts[:10]))
    srcs = np.stack((seen[0][0], seen[2][0]))
    dsts = np.stack((seen[0][1], seen[2][1]))
    vols = np.arange(1.0, 11.0)
    plan = router.pair_scatter(srcs, dsts, vols)
    _assert_plan_replays(plan, plain, (srcs[0], dsts[0]), (srcs[1], dsts[1]),
                         vols)


@pytest.mark.parametrize("shape,wrap", [
    ((4, 4), True),
    ((4, 4, 2), (True, True, False)),
    ((3, 5, 2), True),
    ((4, 4, 4, 4, 2), True),
    ((5, 5), False),
    ((2, 2, 2, 2, 2), True),
    ((8, 8, 8), True),
    ((1, 16), True),
    ((4, 1, 4), True),
    ((3, 12), True),
], ids=str)
def test_offset_keys_are_dense_and_order_preserving(shape, wrap):
    """Every offset ``topology.delta`` can produce gets a distinct key,
    the keys fill ``[0, _key_span)`` without a gap, key order is the
    lexicographic order of the offset rows, and ``_delta_of`` inverts
    the key."""
    topo = CartesianTopology(shape, wrap=wrap)
    router = MinimalAdaptiveRouter(topo)
    V = topo.num_nodes
    deltas = topo.delta(np.repeat(np.arange(V), V), np.tile(np.arange(V), V))
    rows = np.unique(deltas, axis=0)  # lexicographically sorted
    assert np.array_equal(router._keys_for(rows), np.arange(router._key_span))
    for key in (0, router._key_span // 2, router._key_span - 1):
        assert router._delta_of(key) == tuple(int(x) for x in rows[key])


def test_pair_scatter_propose_rollback_is_exact():
    """A fused plan scattered onto any load vector equals link_loads of
    the negated volumes on the old endpoints, then of the volumes on the
    new ones, bitwise (IEEE negation is exact: ``(-v)*f == -(v*f)``);
    its rollback then equals link_loads of the negated volumes on the
    new endpoints, then of the volumes on the old ones — the refine
    loop's propose/rollback contract."""
    topo = CartesianTopology((4, 4), wrap=True)
    router = MinimalAdaptiveRouter(topo)
    assert router.pair_tables_available()
    srcs, dsts, vols = flows_for(topo, 80, seed=5)
    new_s, new_d, _ = flows_for(topo, 80, seed=7)
    plan = router.pair_scatter(np.stack((srcs, new_s)), np.stack((dsts, new_d)),
                               vols)
    base = router.link_loads(*flows_for(topo, 50, seed=6))
    moved = base.copy()
    np.add.at(moved, plan.slots, plan.contrib)
    reference = base.copy()
    router.link_loads(srcs, dsts, -vols, out=reference)
    router.link_loads(new_s, new_d, vols, out=reference)
    assert np.array_equal(moved, reference)
    plan.rollback(moved)
    router.link_loads(new_s, new_d, -vols, out=reference)
    router.link_loads(srcs, dsts, vols, out=reference)
    assert np.array_equal(moved, reference)


def test_pair_scatter_rejects_other_than_two_rows():
    topo = CartesianTopology((4, 4), wrap=True)
    router = MinimalAdaptiveRouter(topo)
    srcs, dsts, vols = flows_for(topo, 6, seed=8)
    with pytest.raises(RoutingError):
        router.pair_scatter(srcs, dsts, vols)
    with pytest.raises(RoutingError):
        router.pair_scatter(np.stack((srcs,) * 3), np.stack((dsts,) * 3), vols)


def _proposals(topo, seed):
    """K swap proposals for one batched pair_scatter call: an empty one,
    one whose flows are all on-node, one that repeats an earlier
    proposal, and one naming the same pair several times."""
    rng = np.random.default_rng(seed)
    V = topo.num_nodes
    props = []
    for m in (7, 0, 12, 3, 20):
        srcs = rng.integers(0, V, size=(2, m))
        dsts = rng.integers(0, V, size=(2, m))
        props.append((srcs, dsts, rng.random(m) * 1e3))
    on_node = rng.integers(0, V, size=(2, 6))
    props.append((on_node, on_node.copy(), rng.random(6) * 1e3))
    props.append(props[2])
    pair_s, pair_d = rng.integers(0, V, size=3), rng.integers(0, V, size=3)
    pick = rng.integers(0, 3, size=(2, 15))
    props.append((pair_s[pick], pair_d[pick], rng.random(15) * 1e3))
    return props


BATCH_SHAPES = [((4, 4), True), ((4, 4, 2), (True, True, False)),
                ((3, 5, 2), (True, False, True)), ((4, 4), False)]
# (router, shape, wrap): MAR and DOR on every shape.
BATCH_CASES = [(name, cls, shape, wrap) for name, cls in ROUTERS
               for shape, wrap in BATCH_SHAPES]


@pytest.mark.parametrize("tables", [True, False], ids=["lookup", "coords"])
@pytest.mark.parametrize("name,cls,shape,wrap", BATCH_CASES,
                         ids=[f"{c[0]}-{c[2]}-{c[3]}" for c in BATCH_CASES])
def test_batched_pair_scatter_segments_equal_one_proposal_plans(
        name, cls, shape, wrap, tables):
    """Each proposal's segment of a K-proposal plan is bitwise the plan
    a one-proposal call returns; its halves replay the reference loop of
    -vols on the old endpoints and +vols on the new ones, and applying
    then rolling it back replays link_loads of -old, +new, -new, +old."""
    clear_stencil_cache()
    topo = CartesianTopology(shape, wrap=wrap)
    fast, plain = cls(topo), cls(topo)
    if not tables:
        fast._pair_table_limit = 0
    props = _proposals(topo, seed=len(shape) + 10 * tables)
    bounds = np.cumsum([0] + [len(v) for _, _, v in props])
    plan = fast.pair_scatter(np.concatenate([p[0] for p in props], axis=1),
                             np.concatenate([p[1] for p in props], axis=1),
                             np.concatenate([p[2] for p in props]), bounds)
    assert (fast._translate is not None) == tables
    assert len(plan.offsets) == 2 * len(props) + 1
    base = fast.link_loads(*flows_for(topo, 40, seed=2))
    for k, (srcs, dsts, vols) in enumerate(props):
        solo = fast.pair_scatter(srcs, dsts, vols)
        start, split, end = plan.segment(k)
        assert (split - start, end - start) == solo.segment()[1:]
        assert np.array_equal(plan.slots[start:end], solo.slots)
        assert np.array_equal(plan.contrib[start:end], solo.contrib)
        _assert_plan_replays(plan, plain, (srcs[0], dsts[0]),
                             (srcs[1], dsts[1]), vols, k)
        moved, want = base.copy(), base.copy()
        plan.apply(moved, k)
        fast.link_loads(srcs[0], dsts[0], -vols, out=want)
        fast.link_loads(srcs[1], dsts[1], vols, out=want)
        assert np.array_equal(moved, want)
        plan.rollback(moved, k)
        fast.link_loads(srcs[1], dsts[1], -vols, out=want)
        fast.link_loads(srcs[0], dsts[0], vols, out=want)
        assert np.array_equal(moved, want)
    for k in (1, 5):  # the empty and the all-on-node proposal load nothing
        start, _, end = plan.segment(k)
        assert start == end


@pytest.mark.parametrize("bounds", [
    [0, 6, 5, 12], [1, 12], [0, 11], [0, 13], [0], [], [[0, 12]],
    [0.0, 12.0],
], ids=str)
def test_pair_scatter_rejects_malformed_bounds(bounds):
    topo = CartesianTopology((4, 4), wrap=True)
    router = MinimalAdaptiveRouter(topo)
    srcs, dsts, vols = flows_for(topo, 12, seed=8)
    new_s, new_d, _ = flows_for(topo, 12, seed=9)
    with pytest.raises(RoutingError):
        router.pair_scatter(np.stack((srcs, new_s)), np.stack((dsts, new_d)),
                            vols, bounds)


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
