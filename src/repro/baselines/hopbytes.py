"""Annealed swap-search mapper with hop-bytes or MCL objective.

``objective="hopbytes"`` is the routing-unaware optimizer representative
of pre-RAHTM heuristic mappers: it pulls communicating tasks close
together, which Figure 1 shows actively *fights* adaptive routing by
collapsing path diversity.

``objective="mcl"`` runs the same search with the routing-aware objective
— a flat (non-hierarchical) ablation of RAHTM that shows the metric, not
the search, is what matters most at small scale, but stops scaling long
before the hierarchical decomposition does.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Mapper
from repro.commgraph.graph import CommGraph
from repro.errors import ConfigError
from repro.mapping.mapping import Mapping
from repro.routing.minimal_adaptive import MinimalAdaptiveRouter
from repro.utils.rng import as_rng

__all__ = ["HopBytesMapper"]


class HopBytesMapper(Mapper):
    """Simulated-annealing task-swap search.

    Parameters
    ----------
    topology:
        Target network.
    objective:
        ``"hopbytes"`` (routing-unaware) or ``"mcl"`` (routing-aware).
    iterations:
        Swap proposals; cost is O(degree) per proposal for hop-bytes and
        O(degree x stencil + channels) for MCL.
    seed:
        RNG seed. The search starts from rank order (what a practitioner
        would hand-tune from) and draws its proposals from a child
        stream of this seed.
    """

    def __init__(self, topology, objective: str = "hopbytes",
                 iterations: int = 5000, seed=0):
        super().__init__(topology)
        if objective not in ("hopbytes", "mcl"):
            raise ConfigError(
                f"objective must be 'hopbytes' or 'mcl', got {objective!r}"
            )
        self.objective = objective
        self.iterations = int(iterations)
        self.seed = seed
        self.name = f"anneal-{objective}"

    # -- cost models -------------------------------------------------------------
    def _hopbytes(self, t2n, srcs, dsts, vols) -> float:
        ns, nd = t2n[srcs], t2n[dsts]
        mask = ns != nd
        if not mask.any():
            return 0.0
        hops = self.topology.hop_distance(ns[mask], nd[mask])
        return float((hops * vols[mask]).sum())

    def map(self, graph: CommGraph) -> Mapping:
        conc = self.concentration(graph)
        rng = as_rng(self.seed)
        mask = graph.srcs != graph.dsts
        srcs, dsts, vols = graph.srcs[mask], graph.dsts[mask], graph.vols[mask]
        T = graph.num_tasks
        # incident edge ids per task
        incident: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * T
        by_task: dict[int, list[int]] = {}
        for e, (s, d) in enumerate(zip(srcs, dsts)):
            by_task.setdefault(int(s), []).append(e)
            by_task.setdefault(int(d), []).append(e)
        for t, es in by_task.items():
            incident[t] = np.unique(np.asarray(es, dtype=np.int64))

        t2n = self._anneal(graph, conc, srcs, dsts, vols, incident,
                           as_rng(int(rng.integers(2**62))))
        return Mapping(self.topology, t2n, tasks_per_node=conc)

    def _anneal(self, graph, conc, srcs, dsts, vols, incident, rng):
        T = graph.num_tasks
        t2n = np.arange(T, dtype=np.int64) // conc  # rank-order start
        router = (
            MinimalAdaptiveRouter(self.topology)
            if self.objective == "mcl" else None
        )
        if self.objective == "mcl":
            loads = router.link_loads(t2n[srcs], t2n[dsts], vols)
            cost = float(loads.max()) if loads.size else 0.0
        else:
            loads = None
            cost = self._hopbytes(t2n, srcs, dsts, vols)

        if cost == 0.0 or self.iterations == 0:
            return t2n
        t0 = 0.05 * cost
        alpha = (1e-3) ** (1.0 / max(self.iterations, 1))
        temp = t0
        best_t2n, best_cost = t2n.copy(), cost
        for _ in range(self.iterations):
            a, b = int(rng.integers(T)), int(rng.integers(T))
            if a == b or t2n[a] == t2n[b]:
                temp *= alpha
                continue
            edges = np.union1d(incident[a], incident[b])
            es, ed, ev = srcs[edges], dsts[edges], vols[edges]
            if self.objective == "mcl":
                ns, nd = t2n[es], t2n[ed]
                router.link_loads(ns, nd, -ev, out=loads)
                t2n[a], t2n[b] = t2n[b], t2n[a]
                router.link_loads(t2n[es], t2n[ed], ev, out=loads)
                new_cost = float(loads.max())
            else:
                old = self._edge_hopbytes(t2n, es, ed, ev)
                t2n[a], t2n[b] = t2n[b], t2n[a]
                new_cost = cost - old + self._edge_hopbytes(t2n, es, ed, ev)
            delta = new_cost - cost
            if delta <= 0 or rng.random() < np.exp(-delta / max(temp, 1e-30)):
                cost = new_cost
                if cost < best_cost - 1e-12:
                    best_cost, best_t2n = cost, t2n.copy()
            else:  # revert
                if self.objective == "mcl":
                    router.link_loads(t2n[es], t2n[ed], -ev, out=loads)
                    t2n[a], t2n[b] = t2n[b], t2n[a]
                    router.link_loads(t2n[es], t2n[ed], ev, out=loads)
                else:
                    t2n[a], t2n[b] = t2n[b], t2n[a]
            temp *= alpha
        return best_t2n

    def _edge_hopbytes(self, t2n, es, ed, ev) -> float:
        ns, nd = t2n[es], t2n[ed]
        mask = ns != nd
        if not mask.any():
            return 0.0
        hops = self.topology.hop_distance(ns[mask], nd[mask])
        return float((hops * ev[mask]).sum())
