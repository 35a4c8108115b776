"""Shared low-level utilities: validation, RNG, timing, logging."""

from repro.utils.validation import (
    check_positive_int,
    check_shape_tuple,
    check_probability,
)
from repro.utils.rng import as_rng
from repro.utils.timing import PhaseTimer
from repro.utils.logconf import get_logger

__all__ = [
    "check_positive_int",
    "check_shape_tuple",
    "check_probability",
    "as_rng",
    "PhaseTimer",
    "get_logger",
]
