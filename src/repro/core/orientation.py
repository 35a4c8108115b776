"""Block orientations: the hyperoctahedral group acting on sub-cubes.

Phase 3 reorients whole blocks — "rotation and reorientation" in the paper
— which for an axis-aligned cube means the signed-permutation
(hyperoctahedral) group: permute the dimensions, then optionally mirror
each. For an n-cube that is ``2^n * n!`` elements (8 for n=2, 48 for n=3,
384 for n=4); :func:`orientations_for_shape` restricts permutations to
equal-extent dimensions so non-cubic blocks stay well-formed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.utils.rng import as_rng

__all__ = [
    "Orientation",
    "all_orientations",
    "apply_batch",
    "orientations_for_shape",
    "sample_orientations",
    "node_permutation",
]


@dataclass(frozen=True)
class Orientation:
    """A signed permutation of block dimensions.

    Acting on local coordinates ``x`` of a block of ``shape``::

        y[d] = shape[d] - 1 - x[perm[d]]   if flip[d]
             = x[perm[d]]                  otherwise

    Validity for a block requires ``shape[perm[d]] == shape[d]`` for all d.
    """

    perm: tuple[int, ...]
    flip: tuple[bool, ...]

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)) or len(self.flip) != n:
            raise ConfigError(
                f"invalid orientation (perm={self.perm}, flip={self.flip})"
            )

    @property
    def ndim(self) -> int:
        return len(self.perm)

    @property
    def is_identity(self) -> bool:
        return self.perm == tuple(range(self.ndim)) and not any(self.flip)

    def apply(self, coords: np.ndarray, shape) -> np.ndarray:
        """Transform local coordinates (..., ndim) within a block."""
        coords = np.asarray(coords)
        shape = np.asarray(shape, dtype=np.int64)
        perm = np.asarray(self.perm)
        if np.any(shape[perm] != shape):
            raise ConfigError(
                f"orientation {self} permutes unequal extents of shape {tuple(shape)}"
            )
        out = coords[..., perm]
        flip = np.asarray(self.flip)
        out = np.where(flip, shape - 1 - out, out)
        return out

    def compose(self, other: "Orientation") -> "Orientation":
        """The orientation equivalent to applying ``other`` then ``self``."""
        n = self.ndim
        if other.ndim != n:
            raise ConfigError("cannot compose orientations of different rank")
        # self.apply(x)[d] = +-x[self.perm[d]]; substitute x = other.apply(y).
        perm = tuple(other.perm[self.perm[d]] for d in range(n))
        flip = tuple(
            bool(self.flip[d]) != bool(other.flip[self.perm[d]]) for d in range(n)
        )
        return Orientation(perm, flip)

    def inverse(self) -> "Orientation":
        n = self.ndim
        inv_perm = [0] * n
        for d in range(n):
            inv_perm[self.perm[d]] = d
        flip = tuple(bool(self.flip[inv_perm[d]]) for d in range(n))
        return Orientation(tuple(inv_perm), flip)

    @classmethod
    def identity(cls, n: int) -> "Orientation":
        return cls(tuple(range(n)), (False,) * n)

    def __str__(self) -> str:
        return "".join(
            f"{'-' if f else '+'}{p}" for p, f in zip(self.perm, self.flip)
        )


def apply_batch(
    orientations: list[Orientation], coords: np.ndarray, shape
) -> np.ndarray:
    """Apply every orientation to the same (m, ndim) coordinates at once.

    Returns an (O, m, ndim) tensor with ``out[o] ==
    orientations[o].apply(coords, shape)`` — the whole hyperoctahedral
    sample as two gathers and one ``where``, instead of O Python-level
    ``apply`` calls. Integer arithmetic throughout, so the batch is
    exactly (not just approximately) the per-orientation result.
    """
    coords = np.asarray(coords)
    shape = np.asarray(shape, dtype=np.int64)
    if not orientations:
        return np.empty((0,) + coords.shape, dtype=coords.dtype)
    perms = np.array([o.perm for o in orientations], dtype=np.int64)
    flips = np.array([o.flip for o in orientations], dtype=bool)
    if np.any(shape[perms] != shape[None, :]):
        raise ConfigError(
            f"batch contains an orientation permuting unequal extents of "
            f"shape {tuple(shape)}"
        )
    out = coords[..., perms]          # (m, O, ndim)
    out = np.transpose(out, (1, 0, 2))
    return np.where(flips[:, None, :], shape - 1 - out, out)


def all_orientations(n: int) -> list[Orientation]:
    """The full hyperoctahedral group B_n (size ``2^n * n!``)."""
    out = []
    for perm in itertools.permutations(range(n)):
        for flips in itertools.product((False, True), repeat=n):
            out.append(Orientation(perm, flips))
    return out


def orientations_for_shape(shape) -> list[Orientation]:
    """Orientations valid for a (possibly non-cubic) block shape.

    Dimension permutations are restricted to dimensions of equal extent;
    flips are always allowed (flipping an arity-1 dimension is the
    identity and is skipped to avoid duplicates).
    """
    shape = tuple(int(s) for s in shape)
    n = len(shape)
    out = []
    for perm in itertools.permutations(range(n)):
        if any(shape[perm[d]] != shape[d] for d in range(n)):
            continue
        flippable = [d for d in range(n) if shape[d] > 1]
        for bits in itertools.product((False, True), repeat=len(flippable)):
            flips = [False] * n
            for d, b in zip(flippable, bits):
                flips[d] = b
            out.append(Orientation(perm, tuple(flips)))
    return out


def sample_orientations(
    orientations: list[Orientation], limit: int | None, seed=None
) -> list[Orientation]:
    """Cap an orientation list, always keeping the identity first."""
    if limit is None or limit >= len(orientations):
        return list(orientations)
    if limit < 1:
        raise ConfigError(f"orientation limit must be >= 1, got {limit}")
    rng = as_rng(seed)
    ident = [o for o in orientations if o.is_identity]
    rest = [o for o in orientations if not o.is_identity]
    picked = list(rng.choice(len(rest), size=limit - len(ident), replace=False))
    return ident + [rest[i] for i in picked]


def node_permutation(shape, orientation: Orientation) -> np.ndarray:
    """Local-node-id permutation an orientation induces on a block.

    Returns ``p`` with ``p[old_local_id] = new_local_id`` for C-ordered
    local ids over ``shape``.
    """
    shape = tuple(int(s) for s in shape)
    n = len(shape)
    size = int(np.prod(shape))
    strides = np.ones(n, dtype=np.int64)
    for d in range(n - 2, -1, -1):
        strides[d] = strides[d + 1] * shape[d + 1]
    ids = np.arange(size, dtype=np.int64)
    coords = (ids[:, None] // strides[None, :]) % np.asarray(shape, dtype=np.int64)
    new_coords = orientation.apply(coords, shape)
    return new_coords @ strides
