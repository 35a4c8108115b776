"""Seeded random-number-generator plumbing.

Every stochastic component in the library accepts a ``seed`` argument that
may be ``None``, an int, or an existing :class:`numpy.random.Generator`;
:func:`as_rng` normalizes all three.
"""

from __future__ import annotations

import numpy as np

# numpy 2 imports these submodules on first use: numpy.random on the first
# ``np.random`` lookup, numpy.ma inside the first ``np.unique`` call. Load
# them here, with the program, so that a map does not pay for the import.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

__all__ = ["as_rng"]


def as_rng(seed: "int | np.random.Generator | None") -> np.random.Generator:
    """Normalize a seed-like argument into a :class:`numpy.random.Generator`."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
