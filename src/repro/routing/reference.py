"""Plain reference for channel loads: one scatter-add per distinct offset.

:func:`reference_link_loads` is the loop the optimized expansion
(:meth:`repro.routing.base.Router.entries`) is defined against. It shares
only :meth:`~repro.routing.base.Router.stencil` with that code: the offset
grouping and the channel-slot formula are its own, and it touches no
entry table, pair table or translation table. The bitwise tests and the
snapshot's MCL oracle use it; nothing on a production path imports it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["reference_link_loads", "reference_slots"]


def reference_slots(topology, src_nodes, stencil) -> np.ndarray:
    """Channel slots ``stencil`` crosses from each source node, shape (m, E).

    A channel is numbered by the node it leaves, times ``2 * ndim``, plus
    ``2 * dim + dir``; wrapped dimensions reduce coordinates mod the shape.
    """
    shape = np.asarray(topology.shape, dtype=np.int64)
    coords = topology.coords_array[np.asarray(src_nodes, dtype=np.int64)]
    c = coords[:, None, :] + stencil.offsets[None, :, :]
    c = np.where(np.asarray(topology.wrap, dtype=bool), c % shape, c)
    if ((c < 0) | (c >= shape)).any():
        raise ValueError("a stencil channel leaves the mesh")
    nodes = (c * np.asarray(topology.strides, dtype=np.int64)).sum(axis=-1)
    return nodes * (2 * topology.ndim) + (2 * stencil.dims + stencil.dirs)


def reference_link_loads(router, srcs, dsts, vols) -> np.ndarray:
    """Per-channel-slot loads of the flows ``srcs -> dsts`` under ``router``.

    Flows are grouped by offset in lexicographic order of the offset rows,
    stably, and each group is scattered with one ``np.add.at`` in (flow,
    stencil entry) order. Flows with ``src == dst`` carry no load.
    """
    topo = router.topology
    srcs = np.asarray(srcs, dtype=np.int64)
    dsts = np.asarray(dsts, dtype=np.int64)
    vols = np.asarray(vols, dtype=np.float64)
    out = np.zeros(topo.num_channel_slots)
    off = srcs != dsts
    srcs, dsts, vols = srcs[off], dsts[off], vols[off]
    deltas = topo.delta(srcs, dsts)
    order = np.lexsort(deltas.T[::-1])  # first dimension most significant
    bounds = np.flatnonzero((np.diff(deltas[order], axis=0) != 0).any(axis=1)) + 1
    for rows in np.split(order, bounds):
        if len(rows) == 0:
            continue
        st = router.stencil(deltas[rows[0]])
        slots = reference_slots(topo, srcs[rows], st)
        contrib = vols[rows][:, None] * st.fracs[None, :]
        np.add.at(out, slots.ravel(), contrib.ravel())
    return out
