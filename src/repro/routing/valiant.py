"""Valiant (two-phase randomized) oblivious routing.

Valiant's algorithm routes every packet minimally to a *uniformly random
intermediate node*, then minimally to its destination. It trades doubled
hop counts for worst-case load balance — the classic counterpoint to both
dimension-order and minimal-adaptive routing, and a useful anchor when
judging how much a mapping matters: under Valiant, loads are nearly
traffic-oblivious, so mappings barely matter.

The *expected* channel loads of the randomized algorithm are deterministic
and, on a torus, translation-invariant, so the stencil machinery applies:
the Valiant stencil for offset ``delta`` averages, over all intermediate
offsets ``w``, the minimal stencil to ``w`` plus the minimal stencil from
``w`` to ``delta`` (shifted by ``w``). Stencils touch the whole torus but
are computed once per distinct offset.

Only fully-wrapped topologies are supported: on a mesh, Valiant's loads
depend on absolute position and the translation-invariant stencil model
does not apply.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RoutingError
from repro.routing.base import Router, Stencil
from repro.routing.minimal_adaptive import (
    MinimalAdaptiveRouter,
    accumulate_stencil_entries,
)

__all__ = ["ValiantRouter"]


class ValiantRouter(Router):
    """Expected-load model of Valiant two-phase randomized routing."""

    name = "valiant"

    def __init__(self, topology):
        if not all(topology.wrap):
            raise RoutingError(
                "ValiantRouter requires a fully-wrapped torus (loads on a "
                "mesh are not translation-invariant)"
            )
        super().__init__(topology)
        self._minimal = MinimalAdaptiveRouter(topology)

    def _build_stencil(self, delta: tuple[int, ...]) -> Stencil:
        topo = self.topology
        V = topo.num_nodes
        shape = np.asarray(topo.shape, dtype=np.int64)
        delta_arr = np.asarray(delta, dtype=np.int64)
        inv_v = 1.0 / V

        off_parts: list[np.ndarray] = []
        dim_parts: list[np.ndarray] = []
        dir_parts: list[np.ndarray] = []
        frac_parts: list[np.ndarray] = []

        def add(st: Stencil, shift: np.ndarray) -> None:
            if st.num_entries == 0:
                return
            off_parts.append(st.offsets + shift[None, :])
            dim_parts.append(st.dims)
            dir_parts.append(st.dirs)
            frac_parts.append(st.fracs)

        for w_node in range(V):
            w = topo.coords_array[w_node]
            # Phase 1: source -> source + w, minimal offset representative.
            d1 = _reduce(w, shape)
            add(self._minimal.stencil(tuple(int(x) for x in d1)),
                np.zeros(topo.ndim, dtype=np.int64))
            # Phase 2: intermediate -> destination, offsets shifted by w.
            d2 = _reduce(delta_arr - w, shape)
            add(self._minimal.stencil(tuple(int(x) for x in d2)), w)

        if not off_parts:
            empty = np.empty((0, topo.ndim), dtype=np.int64)
            z = np.empty(0, dtype=np.int64)
            return Stencil(empty, z, z.copy(), np.empty(0))
        fracs = np.concatenate(frac_parts)
        return accumulate_stencil_entries(
            np.concatenate(off_parts),
            np.concatenate(dim_parts),
            np.concatenate(dir_parts),
            fracs,
            stream_weights=np.full(len(fracs), inv_v),
        )


def _reduce(offset: np.ndarray, shape: np.ndarray) -> np.ndarray:
    """Minimal wrapped representative of an offset (ties report +k/2)."""
    m = np.mod(offset, shape)
    red = np.where(m > shape // 2, m - shape, m)
    red = np.where((shape % 2 == 0) & (m == shape // 2), shape // 2, red)
    return red
