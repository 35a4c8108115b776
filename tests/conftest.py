"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.commgraph import CommGraph
from repro.core.milp import clear_milp_memo
from repro.observability import clear_active_tracer, get_registry
from repro.routing import DimensionOrderRouter, MinimalAdaptiveRouter
from repro.serve import DaemonConfig, MappingDaemon, ServeClient
from repro.topology import mesh, torus


@pytest.fixture(autouse=True)
def _isolate_observability():
    """Reset process-wide observability state around every test.

    The metrics registry and the active tracer are process globals; a
    test that populates counters or forgets to exit an ``activate()``
    context must not leak telemetry into (or record spans for) the tests
    that run after it. The memo of optimal MILP solves is cleared too:
    a test that counts solves or times one must not be served a
    solve of an earlier test.
    """
    yield
    get_registry().reset()
    clear_active_tracer()
    clear_milp_memo()


@pytest.fixture
def torus44():
    return torus(4, 4)


@pytest.fixture
def torus444():
    return torus(4, 4, 4)


@pytest.fixture
def mesh33():
    return mesh(3, 3)


@pytest.fixture
def mar44(torus44):
    return MinimalAdaptiveRouter(torus44)


@pytest.fixture
def dor44(torus44):
    return DimensionOrderRouter(torus44)


@pytest.fixture
def ring16():
    """A 16-task bidirectional ring graph."""
    edges = []
    for t in range(16):
        edges.append((t, (t + 1) % 16, 5.0))
        edges.append(((t + 1) % 16, t, 5.0))
    return CommGraph.from_edges(16, edges)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def daemon_factory(tmp_path):
    """Start daemons on background threads; always stopped on teardown."""
    running = []

    def start(**overrides):
        overrides.setdefault("cache_dir", str(tmp_path / "cache"))
        overrides.setdefault("janitor_interval", 0.0)
        daemon = MappingDaemon(DaemonConfig(**overrides))
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        assert daemon.ready.wait(15), "daemon did not become ready"
        running.append((daemon, thread))
        return daemon, ServeClient(daemon.url, timeout=15)

    yield start
    for daemon, thread in running:
        daemon.stop("test teardown")
        thread.join(15)
        assert not thread.is_alive()
