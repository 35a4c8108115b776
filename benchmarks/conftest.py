"""Shared fixtures for the benchmark harness.

The figure benches share one comparison run per scale (session-scoped) so
``pytest benchmarks/ --benchmark-only`` stays affordable; the heavyweight
RAHTM mapping itself is benchmarked separately in ``bench_opt_time.py``.

Every benchmark starts with an empty memo of optimal MILP solves, so a
bench times the solver rather than the answers an earlier bench left
behind (beam widths, for one, share their phase-2 subproblems).

Set ``RAHTM_BENCH_SCALE`` to ``small``/``medium``/``paper`` to rerun the
whole harness at a larger scale (minutes to hours).
"""

from __future__ import annotations

import os

import pytest

from repro.core.milp import clear_milp_memo
from repro.experiments import get_scale, run_comparison

BENCH_SCALE = os.environ.get("RAHTM_BENCH_SCALE", "tiny")


@pytest.fixture(autouse=True)
def _fresh_milp_memo():
    clear_milp_memo()


@pytest.fixture(scope="session")
def scale():
    return get_scale(BENCH_SCALE)


@pytest.fixture(scope="session")
def comparison(scale):
    """One full benchmarks x mappers sweep shared by the figure benches."""
    return run_comparison(scale)
