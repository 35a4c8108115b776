"""Utility-layer tests (validation, rng, timing, logging)."""

import logging

import numpy as np
import pytest

from repro.utils import (
    PhaseTimer,
    as_rng,
    check_positive_int,
    check_probability,
    check_shape_tuple,
    get_logger,
)
from repro.utils.logconf import enable_console_logging


# -- validation -----------------------------------------------------------------
def test_check_positive_int():
    assert check_positive_int(5, "x") == 5
    assert check_positive_int(np.int64(3), "x") == 3
    with pytest.raises(ValueError):
        check_positive_int(0, "x")
    with pytest.raises(TypeError):
        check_positive_int(2.5, "x")
    with pytest.raises(TypeError):
        check_positive_int(True, "x")


def test_check_shape_tuple():
    assert check_shape_tuple(4) == (4,)
    assert check_shape_tuple([2, 3]) == (2, 3)
    with pytest.raises(ValueError):
        check_shape_tuple([])
    with pytest.raises(ValueError):
        check_shape_tuple((4, 0))


def test_check_probability():
    assert check_probability(0.5, "p") == 0.5
    with pytest.raises(ValueError):
        check_probability(1.1, "p")


# -- rng -------------------------------------------------------------------------
def test_as_rng_passthrough_and_seed():
    rng = np.random.default_rng(0)
    assert as_rng(rng) is rng
    a = as_rng(42).integers(0, 100, 5)
    b = as_rng(42).integers(0, 100, 5)
    assert np.array_equal(a, b)


# -- timing -----------------------------------------------------------------------
def test_phase_timer_accumulates():
    pt = PhaseTimer()
    with pt.phase("a"):
        pass
    with pt.phase("a"):
        pass
    with pt.phase("b"):
        pass
    assert pt.counts["a"] == 2
    assert pt.counts["b"] == 1
    assert pt.total == pytest.approx(sum(pt.totals.values()))
    report = pt.report()
    assert "a" in report and "TOTAL" in report


# -- logging ------------------------------------------------------------------------
def test_get_logger_namespacing():
    assert get_logger("core.merge").name == "repro.core.merge"
    assert get_logger("repro.core.merge").name == "repro.core.merge"


def test_enable_console_logging_idempotent():
    enable_console_logging(logging.DEBUG)
    root = logging.getLogger("repro")
    n = len(root.handlers)
    enable_console_logging(logging.INFO)
    assert len(logging.getLogger("repro").handlers) == n
