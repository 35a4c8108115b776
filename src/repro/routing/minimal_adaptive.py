"""Oblivious all-minimal-paths approximation of minimal adaptive routing.

BG/Q's minimal adaptive routing (MAR) dynamically picks among minimal
paths to balance load. Following the paper (Section III-D), we approximate
it with an *oblivious* router that splits every flow **uniformly over all
minimal Manhattan paths** between source and destination — the
approximation under which phase 2's enumeration on small cubes and the
merge-phase MCL evaluation operate.

Direction resolution per dimension on a torus: the shorter way around is
minimal; at a tie (offset of exactly ``k/2`` on an even-arity dimension)
*both* directions are minimal and each direction combination carries an
equal share (the interleaving counts coincide because the step counts do).
The arity-2 case degenerates to a 50/50 split over the two parallel
channels — the paper's double-wide-link equivalence.

The fraction of minimal paths crossing the channel leaving lattice offset
``x`` along dimension ``d`` is ``N(0→x) · N(x+e_d→S) / N(0→S)`` with ``N``
the multinomial path count; see :mod:`repro.routing.paths`.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from repro.errors import RoutingError
from repro.routing.base import Router, Stencil
from repro.routing.paths import lattice_path_counts

__all__ = ["MinimalAdaptiveRouter", "accumulate_stencil_entries"]


class MinimalAdaptiveRouter(Router):
    """Uniform-over-all-minimal-paths oblivious router."""

    name = "minimal-adaptive"

    def _direction_options(self, delta):
        """Per-dimension list of (dir, steps, sign) minimal options."""
        topo = self.topology
        options = []
        for d in range(topo.ndim):
            off = int(delta[d])
            k = topo.shape[d]
            if off == 0:
                options.append([(0, 0, 0)])
                continue
            if not topo.wrap[d]:
                if abs(off) >= k:
                    raise RoutingError(
                        f"offset {off} out of range for mesh dimension {d} (k={k})"
                    )
                if off > 0:
                    options.append([(0, off, 1)])
                else:
                    options.append([(1, -off, -1)])
                continue
            plus = off % k
            minus = k - plus
            if plus < minus:
                options.append([(0, plus, 1)])
            elif minus < plus:
                options.append([(1, minus, -1)])
            else:  # tie: both directions minimal
                options.append([(0, plus, 1), (1, minus, -1)])
        return options

    def _build_stencil(self, delta: tuple[int, ...]) -> Stencil:
        topo = self.topology
        ndim = topo.ndim
        options = self._direction_options(delta)
        combos = list(itertools.product(*options))
        weight = 1.0 / len(combos)

        off_parts: list[np.ndarray] = []
        dim_parts: list[np.ndarray] = []
        dir_parts: list[np.ndarray] = []
        frac_parts: list[np.ndarray] = []
        for combo in combos:
            steps = tuple(s for (_, s, _) in combo)
            signs = np.array([sg for (_, _, sg) in combo], dtype=np.int64)
            dirs = [dr for (dr, _, _) in combo]
            if sum(steps) == 0:
                continue
            N = _path_counts(steps)
            total = N[tuple(steps)]
            # A[x] = paths from x to S
            A = np.flip(N)
            for d in range(ndim):
                s_d = steps[d]
                if s_d == 0:
                    continue
                # Edges leave x with x_d in [0, s_d); crossing fraction:
                before = _axis_slice(N, d, 0, s_d)
                after = _axis_slice(A, d, 1, s_d + 1)
                fracs = before * after / total
                # Lattice coordinates of the sliced box.
                box = tuple(
                    (s + 1) if dd != d else s for dd, s in enumerate(steps)
                )
                coords = _box_coords(box)  # (E_d, ndim) lattice offsets
                off_parts.append(coords * signs[None, :])
                dim_parts.append(np.full(len(coords), d, dtype=np.int64))
                dir_parts.append(np.full(len(coords), dirs[d], dtype=np.int64))
                frac_parts.append(fracs.ravel() * weight)

        if not off_parts:
            empty = np.empty((0, ndim), dtype=np.int64)
            z = np.empty(0, dtype=np.int64)
            return Stencil(empty, z, z.copy(), np.empty(0))
        return accumulate_stencil_entries(
            np.concatenate(off_parts),
            np.concatenate(dim_parts),
            np.concatenate(dir_parts),
            np.concatenate(frac_parts),
        )


def _axis_slice(arr: np.ndarray, axis: int, start: int, stop: int) -> np.ndarray:
    sl = [slice(None)] * arr.ndim
    sl[axis] = slice(start, stop)
    return arr[tuple(sl)]


# Both are pure functions of small int tuples, and every direction combo
# of every tie offset asks for the same few boxes: memoize them, and
# store the arrays read-only so no caller can corrupt the cached copy.
@functools.lru_cache(maxsize=4096)
def _path_counts(steps: tuple[int, ...]) -> np.ndarray:
    """Read-only :func:`lattice_path_counts` of one step box."""
    counts = lattice_path_counts(steps)
    counts.flags.writeable = False
    return counts


@functools.lru_cache(maxsize=4096)
def _box_coords(box: tuple[int, ...]) -> np.ndarray:
    """Read-only (prod(box), ndim) lattice coordinates of a box, C order."""
    grids = np.meshgrid(*[np.arange(b) for b in box], indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=-1)
    coords.flags.writeable = False
    return coords


def accumulate_stencil_entries(
    offsets: np.ndarray,
    dims: np.ndarray,
    dirs: np.ndarray,
    fracs: np.ndarray,
) -> Stencil:
    """Fold a (channel, fraction) entry stream into a deduplicated stencil.

    Entries sharing a (offset, dim, dir) channel key are summed; output
    entries appear in first-appearance stream order and each key's
    fractions accumulate in stream order (``np.add.at`` is sequential),
    so the result is bitwise-identical to the dict-accumulation loop it
    replaces.
    """
    ndim = offsets.shape[1]
    fracs = fracs.astype(np.float64, copy=False)
    # Collision-free integer key: mixed-radix offset coords + dim + dir.
    lo = offsets.min(axis=0)
    radix = offsets.max(axis=0) - lo + 1
    keys = np.zeros(len(offsets), dtype=np.int64)
    for d in range(ndim):
        keys = keys * radix[d] + (offsets[:, d] - lo[d])
    keys = (keys * ndim + dims) * 2 + dirs
    _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    appear = np.argsort(first, kind="stable")  # unique ids, appearance order
    rank = np.empty_like(appear)
    rank[appear] = np.arange(len(appear))
    ids = rank[inv]
    acc = np.zeros(len(appear))
    np.add.at(acc, ids, fracs)
    rep = first[appear]  # stream index of each output entry's first hit
    return Stencil(offsets[rep], dims[rep], dirs[rep], acc)
