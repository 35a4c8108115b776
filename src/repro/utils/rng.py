"""Seeded random-number-generator plumbing.

Every stochastic component in the library accepts a ``seed`` argument that
may be ``None``, an int, or an existing :class:`numpy.random.Generator`;
:func:`as_rng` normalizes all three. Experiments that fan out work derive
independent child streams with :func:`spawn_rngs` so results are
reproducible regardless of evaluation order.
"""

from __future__ import annotations

import numpy as np

# numpy 2 imports these submodules on first use: numpy.random on the first
# ``np.random`` lookup, numpy.ma inside the first ``np.unique`` call. Load
# them here, with the program, so that a map does not pay for the import.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

__all__ = ["as_rng", "spawn_rngs"]


def as_rng(seed: "int | np.random.Generator | None") -> np.random.Generator:
    """Normalize a seed-like argument into a :class:`numpy.random.Generator`."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent generators from one seed.

    Uses :class:`numpy.random.SeedSequence` spawning so the children are
    statistically independent and stable across platforms.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(seed, np.random.Generator):
        # Derive a seed sequence from the generator's bit stream.
        seed = int(seed.integers(0, 2**63 - 1))
    ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]
