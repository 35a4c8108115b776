"""2-ary hierarchical decomposition of a ``2^q``-ary n-torus.

RAHTM (Section III-B/C) views a uniform k-ary n-torus with ``k = 2^q`` as a
tree of nested blocks:

- level 0 blocks are individual nodes (side 1),
- a level ``l`` block is a cube of side ``2^l``,
- every level ``l+1`` block contains exactly ``2^n`` level-``l`` children
  arranged as a 2-ary n-cube,
- the single level-``q`` block is the whole torus.

Phase 2 maps cluster graphs onto each parent's child cube (a 2-ary n-mesh,
or the double-wide-link 2-ary n-torus at the root); phase 3 merges children
bottom-up. This module provides the index bookkeeping both phases share.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TopologyError
from repro.topology.cartesian import CartesianTopology, hypercube

__all__ = ["CubeHierarchy"]


class CubeHierarchy:
    """Index bookkeeping for the 2-ary decomposition of a uniform torus.

    Parameters
    ----------
    topology:
        A uniform k-ary n-torus/mesh with ``k = 2^q`` (dimensions of arity 1
        are ignored — they carry no freedom and no channels).
    """

    def __init__(self, topology: CartesianTopology):
        self.topology = topology
        self.dims = tuple(
            d for d in range(topology.ndim) if topology.shape[d] > 1
        )
        if not self.dims:
            raise TopologyError("topology has no non-trivial dimension")
        arities = {topology.shape[d] for d in self.dims}
        if len(arities) != 1:
            raise TopologyError(
                f"topology {topology.shape} is not uniform across its "
                "non-trivial dimensions; RAHTMMapper accepts such a shape "
                "only when it is a 2^q-ary torus plus arity-2 dimensions, "
                "which it mirrors away (repro.core.rahtm.mirror_folds)"
            )
        self.arity = arities.pop()
        q = int(round(np.log2(self.arity)))
        if 2**q != self.arity:
            raise TopologyError(
                f"arity {self.arity} is not a power of two; RAHTM's 2-ary "
                "hierarchy requires 2^q-ary dimensions"
            )
        self.num_levels = q  # levels 0..q; q >= 1
        self.n = len(self.dims)  # cube dimensionality

    # -- block identification ----------------------------------------------------
    def block_of(self, node, level: int) -> np.ndarray:
        """Flat id of the level-``level`` block containing node id(s).

        Block ids are C-order over the block grid of side ``arity / 2^level``
        per active dimension.
        """
        self._check_level(level)
        coords = self.topology.coords(node)
        side = 2**level
        per_dim = self.arity // side
        out = np.zeros(np.shape(node), dtype=np.int64)
        for d in self.dims:
            out = out * per_dim + coords[..., d] // side
        return out

    def num_blocks(self, level: int) -> int:
        self._check_level(level)
        return (self.arity // 2**level) ** self.n

    def child_position(self, node, level: int) -> np.ndarray:
        """Which corner of its level-``level`` parent's child-cube a node's
        level ``level-1`` block occupies.

        Returns the corner id in C order over the active dimensions: corner
        ``sum(bit_d * 2^(n-1-i))`` where ``bit_d`` tells whether the node
        lies in the upper half of active dimension ``d`` within the parent.
        """
        self._check_level(level)
        if level < 1:
            raise TopologyError("child_position needs level >= 1")
        coords = self.topology.coords(node)
        side = 2**level
        out = np.zeros(np.shape(node), dtype=np.int64)
        for d in self.dims:
            bit = (coords[..., d] % side) // (side // 2)
            out = out * 2 + bit
        return out

    def child_cube(self, level: int) -> CartesianTopology:
        """The 2-ary n-cube the children of a level-``level`` block form.

        The root's children cube wraps (double-wide links) iff the
        underlying topology wraps; interior cubes are meshes.
        """
        self._check_level(level)
        if level < 1:
            raise TopologyError("child_cube needs level >= 1")
        if level == self.num_levels:
            # The root's children tile each dimension twice; wrapped parent
            # dimensions make the child cube a 2-ary torus there (the
            # double-wide-link equivalence of Section III-C).
            wrap = tuple(self.topology.wrap[d] for d in self.dims)
            return CartesianTopology((2,) * self.n, wrap=wrap)
        return hypercube(self.n, wrap=False)

    def block_nodes(self, level: int, block_id: int) -> np.ndarray:
        """Node ids inside a block, C-order over the block interior."""
        self._check_level(level)
        side = 2**level
        per_dim = self.arity // side
        # Decode the block id into per-active-dimension block coordinates.
        rem = int(block_id)
        base = np.zeros(self.topology.ndim, dtype=np.int64)
        for d in reversed(self.dims):
            base[d] = (rem % per_dim) * side
            rem //= per_dim
        if rem:
            raise TopologyError(f"block id {block_id} out of range at level {level}")
        ranges = []
        for d in range(self.topology.ndim):
            if d in self.dims:
                ranges.append(np.arange(base[d], base[d] + side))
            else:
                ranges.append(np.arange(self.topology.shape[d]))
        grids = np.meshgrid(*ranges, indexing="ij")
        coords = np.stack([g.ravel() for g in grids], axis=-1)
        return self.topology.index(coords)

    def corner_origin(self, level: int, block_id: int, corner: int) -> np.ndarray:
        """Coordinates of a child's origin inside a level-``level`` block."""
        nodes = self.block_nodes(level, block_id)
        origin = self.topology.coords(int(nodes[0]))
        half = 2 ** (level - 1)
        bits = []
        c = int(corner)
        for _ in self.dims:
            bits.append(c & 1)
            c >>= 1
        bits.reverse()
        out = origin.copy()
        for bit, d in zip(bits, self.dims):
            out[d] += bit * half
        return out

    def _check_level(self, level: int) -> None:
        if not (0 <= level <= self.num_levels):
            raise TopologyError(
                f"level {level} out of range [0, {self.num_levels}]"
            )

    def __repr__(self) -> str:
        return (
            f"CubeHierarchy(arity={self.arity}, n={self.n}, "
            f"levels={self.num_levels})"
        )
