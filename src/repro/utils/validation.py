"""Argument-validation helpers.

These raise :class:`ValueError`/:class:`TypeError` with uniform messages so
call sites stay one-liners. They are deliberately tiny — hot paths should
validate once at the public boundary, never inside inner loops.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "check_positive_int",
    "check_shape_tuple",
    "check_probability",
]


def check_positive_int(value, name: str) -> int:
    """Return ``value`` as ``int`` if it is a positive integer, else raise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def check_shape_tuple(shape, name: str = "shape") -> tuple[int, ...]:
    """Validate a topology shape: a non-empty sequence of ints >= 1."""
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),)
    if not isinstance(shape, Sequence) or len(shape) == 0:
        raise ValueError(f"{name} must be a non-empty sequence of ints")
    out = tuple(check_positive_int(k, f"{name}[{i}]") for i, k in enumerate(shape))
    return out


def check_probability(value, name: str) -> float:
    """Return ``value`` as float if it lies in [0, 1]."""
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value
