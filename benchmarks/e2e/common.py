"""Paths, statistics, the job factory and the output oracle of the benchmark.

The benchmark runs from the root of a source checkout and maps with the
code under ``src/``; it imports nothing from the program until
:func:`require_source` has put that directory on ``sys.path``.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space for caches, child outputs and span files (git-ignored).
WORK = ROOT / ".e2e-work"


def require_source() -> None:
    """Put the checkout's ``src/`` first on the path, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}; run the "
              "benchmark from the root of a full checkout", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for program subprocesses: the checkout's code first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def rahtm_job(spec: str, shape: tuple, scale: str, seed: int | None = None):
    """A RAHTM mapping job at ``scale``'s settings; ``seed``, if given,
    replaces the scale's RAHTM seed."""
    from dataclasses import replace

    from repro.experiments.config import get_scale
    from repro.service.jobs import (
        MapperConfig,
        MappingJob,
        TopologySpec,
        WorkloadSpec,
    )

    config = get_scale(scale).rahtm
    if seed is not None:
        config = replace(config, seed=seed)
    return MappingJob(topology=TopologySpec(shape),
                      workload=WorkloadSpec(spec),
                      mapper=MapperConfig.from_rahtm(config))


def p50(values) -> float:
    return statistics.median(values)


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def check_mapping(mapping_doc: dict, graph, topology, reported_mcl) -> list[str]:
    """Independent checks of one returned mapping; returns the problems.

    The mapping must place exactly ``c = tasks / nodes`` tasks on every
    node, and its MCL, recomputed with a fresh minimal-adaptive router,
    must equal the MCL the program reported, bit for bit.
    """
    import numpy as np

    from repro.mapping.serialize import mapping_from_dict
    from repro.metrics.core import evaluate_mapping
    from repro.routing.minimal_adaptive import MinimalAdaptiveRouter

    nodes = np.asarray(mapping_doc["task_to_node"], dtype=np.int64)
    V = topology.num_nodes
    c, rem = divmod(graph.num_tasks, V)
    if rem or len(nodes) != graph.num_tasks:
        return [f"{len(nodes)} placed tasks for a {graph.num_tasks}-task "
                f"graph on {V} nodes"]
    if nodes.min() < 0 or nodes.max() >= V:
        return ["task placed outside the topology"]
    counts = np.bincount(nodes, minlength=V)
    if not (counts == c).all():
        return [f"node loads {counts.min()}..{counts.max()} tasks, "
                f"expected exactly {c}"]
    mapping = mapping_from_dict(mapping_doc, topology)
    mcl = evaluate_mapping(MinimalAdaptiveRouter(topology), mapping, graph).mcl
    if mcl != reported_mcl:
        return [f"recomputed MCL {mcl!r} != reported {reported_mcl!r}"]
    return []


def default_mcl(graph, topology) -> float:
    """MCL of the platform-default dimension-order mapping (ABC...T)."""
    from repro.baselines.dimorder import DimOrderMapper
    from repro.metrics.core import evaluate_mapping
    from repro.routing.minimal_adaptive import MinimalAdaptiveRouter

    mapping = DimOrderMapper(topology).map(graph)
    return evaluate_mapping(MinimalAdaptiveRouter(topology), mapping, graph).mcl
