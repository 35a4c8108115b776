"""Property tests for the per-flow link-load attribution engine.

The attribution matrix must agree with ``Router.link_loads`` by
construction: both consume the router's one channel-slot expansion,
``Router.entries``. These tests pin that property across routers (DOR,
MAR, Valiant), mixed-radix tori (including the BG/Q 4x4x4x4x2 shape),
chunk sizes, and random mappings, to 1e-9 *relative* tolerance, and
check every matrix row against the stencil placed by the independent
slot formula of :mod:`repro.routing.reference`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError
from repro.mapping import Mapping
from repro.metrics import max_channel_load
from repro.metrics.core import channel_loads
from repro.observability import attribute_flows, attribute_mapping
from repro.routing import (
    DimensionOrderRouter,
    MinimalAdaptiveRouter,
    ValiantRouter,
)
from repro.routing.reference import reference_slots
from repro.topology import CartesianTopology
from repro.workloads import halo2d, random_uniform

RELTOL = 1e-9


def _assert_matches_link_loads(att) -> None:
    direct = att.router.link_loads(att.srcs, att.dsts, att.vols)
    scale = max(float(direct.max(initial=0.0)), 1.0)
    np.testing.assert_allclose(
        att.channel_loads(), direct, rtol=0, atol=RELTOL * scale
    )
    assert att.max_residual() <= RELTOL * scale


def _random_flows(topology, n, rng):
    srcs = rng.integers(0, topology.num_nodes, size=n)
    dsts = rng.integers(0, topology.num_nodes, size=n)
    vols = rng.uniform(0.5, 100.0, size=n)
    return srcs, dsts, vols


@pytest.mark.parametrize("router_cls", [DimensionOrderRouter, MinimalAdaptiveRouter])
@pytest.mark.parametrize(
    "shape",
    [(4, 4), (3, 5), (2, 3, 4), (4, 4, 4, 4, 2)],
    ids=lambda s: "x".join(map(str, s)),
)
def test_attribution_sums_to_link_loads(router_cls, shape, rng):
    topo = CartesianTopology(shape, wrap=True)
    router = router_cls(topo)
    att = attribute_flows(router, *_random_flows(topo, 200, rng))
    _assert_matches_link_loads(att)


@pytest.mark.parametrize(
    "shape", [(3, 5), (4, 4, 4, 4, 2)], ids=lambda s: "x".join(map(str, s))
)
def test_attribution_valiant(shape, rng):
    # Valiant stencils iterate every node per distinct offset: keep the
    # flow count small on the BG/Q shape.
    topo = CartesianTopology(shape, wrap=True)
    router = ValiantRouter(topo)
    att = attribute_flows(router, *_random_flows(topo, 12, rng))
    _assert_matches_link_loads(att)


def test_attribution_matches_metrics_channel_loads(mar44):
    graph = halo2d(4, 4, 7.0)
    mapping = Mapping.identity(mar44.topology)
    att = attribute_mapping(mar44, mapping, graph)
    direct = channel_loads(mar44, mapping, graph)
    scale = max(float(direct.max(initial=0.0)), 1.0)
    np.testing.assert_allclose(
        att.channel_loads(), direct, rtol=0, atol=RELTOL * scale
    )


def test_top1_hotspot_equals_max_channel_load(rng):
    topo = CartesianTopology((4, 4, 4, 4, 2), wrap=True)
    router = MinimalAdaptiveRouter(topo)
    graph = random_uniform(topo.num_nodes, 2000, seed=7)
    perm = rng.permutation(topo.num_nodes)
    mapping = Mapping(topo, perm)
    att = attribute_mapping(router, mapping, graph)
    loads = att.channel_loads()
    valid = topo.channel_valid
    mcl = max_channel_load(router, mapping, graph)
    assert float(loads[valid].max()) == pytest.approx(mcl, rel=RELTOL)


def test_flows_through_sums_to_slot_load(mar44, rng):
    topo = mar44.topology
    srcs, dsts, vols = _random_flows(topo, 100, rng)
    att = attribute_flows(mar44, srcs, dsts, vols)
    loads = att.channel_loads()
    hot = int(loads.argmax())
    idx, contribs = att.flows_through(hot)
    assert len(idx) == len(contribs)
    assert list(contribs) == sorted(contribs, reverse=True)
    assert float(contribs.sum()) == pytest.approx(float(loads[hot]), rel=RELTOL)


def test_chunked_construction_is_exact(mar44, rng):
    """Tiny chunk_nnz (with a tiny block bound, so each offset group
    arrives in many blocks) forces many CSR part flushes; result is
    identical."""
    srcs, dsts, vols = _random_flows(mar44.topology, 300, rng)
    whole = attribute_flows(mar44, srcs, dsts, vols)
    mar44._block_entries = 8
    chunked = attribute_flows(mar44, srcs, dsts, vols, chunk_nnz=8)
    assert (whole.fractions != chunked.fractions).nnz == 0


def test_attribution_drops_onnode_and_zero_volume_flows(mar44):
    srcs = np.array([0, 1, 2, 3])
    dsts = np.array([0, 5, 6, 7])  # flow 0 is on-node
    vols = np.array([10.0, 0.0, 3.0, 4.0])  # flow 1 has zero volume
    att = attribute_flows(mar44, srcs, dsts, vols)
    assert att.num_flows == 2
    assert list(att.srcs) == [2, 3]
    _assert_matches_link_loads(att)


def test_attribution_empty_flows(mar44):
    att = attribute_flows(mar44, [], [], [])
    assert att.num_flows == 0
    assert att.channel_loads().shape == (mar44.topology.num_channel_slots,)
    assert float(att.channel_loads().sum()) == 0.0


def test_attribution_rejects_ragged_input(mar44):
    with pytest.raises(ReproError):
        attribute_flows(mar44, [0, 1], [2], [1.0, 1.0])


def test_usage_matrix_matches_fractions(mar44, rng):
    srcs, dsts, vols = _random_flows(mar44.topology, 50, rng)
    att = attribute_flows(mar44, srcs, dsts, vols)
    usage = att.usage_matrix()
    assert usage.shape == (mar44.topology.num_channel_slots, att.num_flows)
    assert (usage.T != att.fractions).nnz == 0


def test_load_matrix_row_sums_scale_with_hops(mar44):
    """Each row of the load matrix sums to vol * hop-count of its route."""
    srcs = np.array([0])
    dsts = np.array([5])  # (0,0) -> (1,1): 2 hops on a 4x4 torus
    vols = np.array([3.0])
    att = attribute_flows(mar44, srcs, dsts, vols)
    row_sum = float(np.asarray(att.load_matrix().sum(axis=1)).ravel()[0])
    assert row_sum == pytest.approx(6.0, rel=RELTOL)


REGRESSION_SHAPES = [
    ((4, 4), False),
    ((3, 5, 2), (True, False, True)),
    ((4, 4, 4, 4, 2), True),
]


@pytest.mark.parametrize("router_cls", [DimensionOrderRouter, MinimalAdaptiveRouter])
@pytest.mark.parametrize(
    "shape,wrap",
    REGRESSION_SHAPES,
    ids=[f"{s}-{w}" for s, w in REGRESSION_SHAPES],
)
def test_attribution_rows_match_reference_stencils(router_cls, shape, wrap):
    """The CSR arrays are identical with the pair tables, with the
    coordinate slot fallback and with many small blocks, and row ``i``
    is flow ``i``'s stencil placed by the reference slot formula."""
    topo = CartesianTopology(shape, wrap=wrap)
    srcs, dsts, vols = _random_flows(topo, 300, np.random.default_rng(17))
    base = attribute_flows(router_cls(topo), srcs, dsts, vols).fractions
    coords = router_cls(topo)
    coords._pair_table_limit = 0
    small = router_cls(topo)
    small._block_entries = 500  # the expansion arrives in many blocks
    runs = [
        attribute_flows(coords, srcs, dsts, vols),
        attribute_flows(small, srcs, dsts, vols, chunk_nnz=500),
    ]
    assert coords._translate is None
    for att in runs:
        m = att.fractions
        assert np.array_equal(m.indptr, base.indptr)
        assert np.array_equal(m.indices, base.indices)
        assert np.array_equal(m.data, base.data)

    # A stencil may name one channel twice (both ways round a wrapped
    # dimension of arity 2), so rows are compared as dense sums.
    att = runs[0]
    for i, (s, d) in enumerate(zip(att.srcs, att.dsts)):
        st = att.router.stencil(topo.delta(s, d))
        expected = np.zeros(topo.num_channel_slots)
        np.add.at(expected, reference_slots(topo, [s], st)[0], st.fracs)
        assert np.array_equal(base[i].toarray().ravel(), expected)
