"""Figure 1 — why routing awareness matters.

A four-process graph with one heavy pair is mapped onto a 2x2 mesh two
ways: minimizing hop-bytes (heavy pair adjacent, one path) and minimizing
MCL under all-minimal-paths routing (heavy pair diagonal, two paths). The
MCL mapping halves the hottest link, exactly the paper's argument.
"""

from __future__ import annotations

from repro.commgraph.graph import CommGraph
from repro.core.milp import brute_force_mapping
from repro.experiments.report import Table
from repro.mapping.mapping import Mapping
from repro.metrics.core import evaluate_mapping
from repro.routing.minimal_adaptive import MinimalAdaptiveRouter
from repro.topology.cartesian import mesh

__all__ = ["figure1_graph", "run", "main"]


def figure1_graph(heavy: float = 100.0, light: float = 1.0) -> CommGraph:
    """The paper's 4-process example: one heavy pair in a light ring."""
    edges = []
    for a, b, v in [(0, 1, heavy), (0, 2, light), (1, 3, light), (2, 3, light)]:
        edges.append((a, b, float(v)))
        edges.append((b, a, float(v)))
    return CommGraph.from_edges(4, edges)


def run(heavy: float = 100.0, light: float = 1.0) -> Table:
    graph = figure1_graph(heavy, light)
    topo = mesh(2, 2)
    router = MinimalAdaptiveRouter(topo)

    # (b) hop-bytes-optimal placement: exhaustive search on hop-bytes.
    import itertools

    import numpy as np

    best_hb, hb_assign = float("inf"), None
    for perm in itertools.permutations(range(4)):
        mapping = Mapping(topo, np.asarray(perm, dtype=np.int64))
        rep = evaluate_mapping(router, mapping, graph)
        if rep.hop_bytes < best_hb - 1e-9:
            best_hb, hb_assign = rep.hop_bytes, mapping

    # (c) MCL-optimal placement under MAR, what phase 2 picks on a 2x2.
    res = brute_force_mapping(topo, graph, evaluator="uniform")
    mcl_mapping = Mapping(topo, res.assignment)

    table = Table("Figure 1: hop-bytes vs routing-aware (MCL) mapping on 2x2")
    for label, mapping in [("hop-bytes", hb_assign), ("MCL/MAR", mcl_mapping)]:
        rep = evaluate_mapping(router, mapping, graph)
        table.set(label, "MCL", rep.mcl)
        table.set(label, "hop_bytes", rep.hop_bytes)
    return table


def main() -> None:
    print(run().to_text())


if __name__ == "__main__":
    main()
