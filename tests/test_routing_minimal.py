"""Minimal-adaptive (all-minimal-paths) router tests.

The key oracle: explicitly enumerate every minimal path on a small
topology, average per-channel usage, and compare against the stencil
computation channel by channel.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.routing import MinimalAdaptiveRouter
from repro.topology import CartesianTopology, hypercube, mesh, torus


def enumerate_minimal_paths(topo, src, dst):
    """All minimal paths as channel-slot lists (BFS oracle)."""
    target_len = int(topo.hop_distance(src, dst))
    paths = []

    def extend(node, used):
        if node == dst and len(used) == target_len:
            paths.append(list(used))
            return
        if len(used) >= target_len:
            return
        base = (node * topo.ndim) * 2
        for off in range(2 * topo.ndim):
            slot = base + off
            if not topo.channel_valid[slot]:
                continue
            nxt = int(topo.channel_dst[slot])
            if topo.hop_distance(nxt, dst) == target_len - len(used) - 1:
                used.append(slot)
                extend(nxt, used)
                used.pop()

    extend(int(src), [])
    return paths


def oracle_loads(topo, src, dst, vol):
    paths = enumerate_minimal_paths(topo, src, dst)
    loads = np.zeros(topo.num_channel_slots)
    share = vol / len(paths)
    for p in paths:
        for slot in p:
            loads[slot] += share
    return loads


@pytest.mark.parametrize("topo_builder,pairs", [
    (lambda: mesh(3, 3), [(0, 8), (2, 6), (0, 1), (4, 4)]),
    (lambda: torus(4, 4), [(0, 5), (0, 10), (3, 12), (0, 2)]),
    (lambda: hypercube(3), [(0, 7), (1, 6), (0, 3)]),
    (lambda: hypercube(2, wrap=True), [(0, 3), (0, 1)]),
    (lambda: torus(4, 2, 3), [(0, 23), (1, 16)]),
])
def test_stencil_matches_path_enumeration(topo_builder, pairs):
    topo = topo_builder()
    router = MinimalAdaptiveRouter(topo)
    for src, dst in pairs:
        got = router.link_loads([src], [dst], [12.0])
        if src == dst:
            assert got.sum() == 0.0
            continue
        want = oracle_loads(topo, src, dst, 12.0)
        assert np.allclose(got, want), (src, dst)


def test_uniform_split_on_diagonal():
    topo = mesh(2, 2)
    r = MinimalAdaptiveRouter(topo)
    loads = r.link_loads([0], [3], [100.0])
    used = loads[loads > 0]
    assert len(used) == 4
    assert np.allclose(used, 50.0)


def test_double_link_split_on_2ary_torus():
    topo = hypercube(1, wrap=True)
    r = MinimalAdaptiveRouter(topo)
    loads = r.link_loads([0], [1], [100.0])
    used = loads[loads > 0]
    assert len(used) == 2  # regular + wraparound channel
    assert np.allclose(used, 50.0)


def test_flow_conservation_total_volume_times_hops():
    topo = torus(4, 4, 4)
    r = MinimalAdaptiveRouter(topo)
    rng = np.random.default_rng(0)
    srcs = rng.integers(0, 64, 50)
    dsts = rng.integers(0, 64, 50)
    vols = rng.uniform(1, 10, 50)
    loads = r.link_loads(srcs, dsts, vols)
    mask = srcs != dsts
    expected = (topo.hop_distance(srcs[mask], dsts[mask]) * vols[mask]).sum()
    assert loads.sum() == pytest.approx(expected)


def test_translation_invariance_on_torus():
    topo = torus(4, 4)
    r = MinimalAdaptiveRouter(topo)
    a = r.link_loads([0], [5], [7.0])
    b = r.link_loads([10], [15], [7.0])  # same offset, shifted
    assert a.max() == pytest.approx(b.max())
    assert a.sum() == pytest.approx(b.sum())
    assert np.allclose(np.sort(a), np.sort(b))


def test_self_flows_ignored():
    topo = torus(4, 4)
    r = MinimalAdaptiveRouter(topo)
    loads = r.link_loads([3, 3], [3, 5], [100.0, 1.0])
    # only the 1-byte flow contributes: volume x its hop distance
    assert loads.sum() == pytest.approx(1.0 * topo.hop_distance(3, 5))


def test_accumulate_into_out():
    topo = torus(4, 4)
    r = MinimalAdaptiveRouter(topo)
    out = r.link_loads([0], [1], [5.0])
    r.link_loads([0], [1], [5.0], out=out)
    # additive: equals a single call with doubled volume
    single = r.link_loads([0], [1], [10.0])
    assert np.allclose(out, single)


def test_negative_volume_subtracts():
    topo = torus(4, 4)
    r = MinimalAdaptiveRouter(topo)
    out = r.link_loads([0], [5], [10.0])
    r.link_loads([0], [5], [-10.0], out=out)
    assert np.allclose(out, 0.0)


def test_mismatched_inputs_rejected():
    r = MinimalAdaptiveRouter(torus(4, 4))
    with pytest.raises(RoutingError):
        r.link_loads([0, 1], [2], [1.0, 1.0])
    with pytest.raises(RoutingError):
        r.link_loads([0], [1], [1.0], out=np.zeros(3))


def test_stencil_cache_reused():
    r = MinimalAdaptiveRouter(torus(4, 4))
    s1 = r.stencil((1, 1))
    s2 = r.stencil(np.array([1, 1]))
    assert s1 is s2


def test_stencil_mean_path_length():
    r = MinimalAdaptiveRouter(torus(4, 4))
    assert r.stencil((1, 1)).mean_path_length == pytest.approx(2.0)
    assert r.stencil((0, 0)).mean_path_length == 0.0
    assert r.stencil((2, 2)).mean_path_length == pytest.approx(4.0)


@given(st.integers(0, 35), st.integers(0, 35))
@settings(max_examples=30, deadline=None)
def test_load_sum_equals_hops_times_volume_property(src, dst):
    topo = torus(6, 6)
    r = MinimalAdaptiveRouter(topo)
    loads = r.link_loads([src], [dst], [3.0])
    assert loads.sum() == pytest.approx(3.0 * topo.hop_distance(src, dst))


@pytest.mark.parametrize("shape", [(4, 4), (2, 2, 2), (4, 4, 4, 2), (4, 4, 4, 4, 2)],
                         ids=lambda s: "x".join(map(str, s)))
def test_memoized_stencil_builds_equal_fresh_builds(shape, monkeypatch):
    """Every stencil built with the memoized path counts and box
    coordinates equals a build without the memo, bit for bit, and the
    memoized arrays are read-only."""
    from repro.routing import minimal_adaptive as ma
    from repro.routing.paths import lattice_path_counts

    topo = torus(*shape)
    deltas = [tuple(int(x) for x in row)
              for row in topo.delta(np.zeros(topo.num_nodes, dtype=np.int64),
                                    np.arange(topo.num_nodes))]
    memo = [MinimalAdaptiveRouter(topo)._build_stencil(d) for d in deltas]
    monkeypatch.setattr(ma, "_path_counts", lattice_path_counts)
    monkeypatch.setattr(ma, "_box_coords", ma._box_coords.__wrapped__)
    fresh = [MinimalAdaptiveRouter(topo)._build_stencil(d) for d in deltas]
    for a, b in zip(memo, fresh):
        for name in ("offsets", "dims", "dirs", "fracs"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y)
    monkeypatch.undo()
    with pytest.raises(ValueError):
        ma._path_counts((2, 1))[0, 0] = 5.0
    with pytest.raises(ValueError):
        ma._box_coords((2, 3))[0, 0] = 5
