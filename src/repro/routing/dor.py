"""Deterministic dimension-order routing (DOR).

The routing-unaware comparison point: each flow follows the single path
that corrects dimensions in a fixed order (default: dimension 0 first, as
in e-cube routing). On a torus the shorter way around is taken; ties
(offset exactly ``k/2``) break toward the + direction, matching common
hardware conventions.

Under DOR the channel loads of a mapping are exactly its hop-bytes spread
along one path per flow, which is why hop-bytes is the natural objective
for DOR-era mappers — and why it misleads on adaptively-routed machines
(the paper's Figure 1 argument).
"""

from __future__ import annotations

import numpy as np

from repro.errors import RoutingError
from repro.routing.base import Router, Stencil

__all__ = ["DimensionOrderRouter"]


class DimensionOrderRouter(Router):
    """Single-path e-cube router.

    Parameters
    ----------
    topology:
        Target topology.
    dim_order:
        Order in which dimensions are corrected; defaults to
        ``0, 1, ..., ndim-1``.
    """

    name = "dimension-order"

    def __init__(self, topology, dim_order=None):
        super().__init__(topology)
        if dim_order is None:
            dim_order = tuple(range(topology.ndim))
        dim_order = tuple(int(d) for d in dim_order)
        if sorted(dim_order) != list(range(topology.ndim)):
            raise RoutingError(
                f"dim_order must be a permutation of 0..{topology.ndim - 1}, "
                f"got {dim_order}"
            )
        self.dim_order = dim_order

    def _stencil_signature(self) -> tuple:
        return (*super()._stencil_signature(), self.dim_order)

    def _build_stencil(self, delta: tuple[int, ...]) -> Stencil:
        topo = self.topology
        ndim = topo.ndim
        # Resolve direction per dimension, then emit each dimension's run
        # of channel entries as one arange along that axis.
        moves = []  # (dim, steps, sign, direction) in correction order
        for d in self.dim_order:
            off = int(delta[d])
            k = topo.shape[d]
            if off == 0:
                continue
            if not topo.wrap[d]:
                if abs(off) >= k:
                    raise RoutingError(
                        f"offset {off} out of range for mesh dimension {d}"
                    )
                steps, sign, direction = abs(off), (1 if off > 0 else -1), (
                    0 if off > 0 else 1
                )
            else:
                plus = off % k
                minus = k - plus
                if plus <= minus:  # tie breaks toward +
                    steps, sign, direction = plus, 1, 0
                else:
                    steps, sign, direction = minus, -1, 1
            moves.append((d, steps, sign, direction))
        total = sum(s for (_, s, _, _) in moves)
        if total == 0:
            empty = np.empty((0, ndim), dtype=np.int64)
            z = np.empty(0, dtype=np.int64)
            return Stencil(empty, z, z.copy(), np.empty(0))
        offsets = np.zeros((total, ndim), dtype=np.int64)
        dims = np.empty(total, dtype=np.int64)
        dirs = np.empty(total, dtype=np.int64)
        pos = np.zeros(ndim, dtype=np.int64)
        at = 0
        for d, steps, sign, direction in moves:
            run = slice(at, at + steps)
            offsets[run] = pos
            offsets[run, d] += sign * np.arange(steps, dtype=np.int64)
            dims[run] = d
            dirs[run] = direction
            pos[d] += sign * steps
            at += steps
        return Stencil(offsets, dims, dirs, np.ones(total))
