"""Optional post-merge refinement (Section VI: "techniques to reduce the
mapping computation without sacrificing the quality of mapping").

A cheap annealed pairwise-swap pass over the final cluster placement,
driven by the same MCL objective and incremental load updates. RAHTM's
hierarchical structure restricts mappings to compositions of block
orientations; this pass explores the unstructured neighborhood the
hierarchy cannot reach and typically shaves a few percent of MCL at the
cost of seconds.

Most proposals are rejected, and a rejection leaves the placement as it
was, so the walk prepares its next proposals together on the assumption
that each will be rejected: it draws them as the sequential walk would,
expands them in one batched :meth:`Router.pair_scatter` call and walks
the plans in order. The first acceptance drops the rest of the batch
and the generator replays its draws from the batch's saved state, so
the trajectory, every load vector and every draw are the sequential
walk's, bit for bit. The batch depth returns to 1 after an acceptance
and doubles after a fully rejected batch, within
``Router._pair_batch_entries`` entries.
"""

from __future__ import annotations

import numpy as np

from repro.commgraph.graph import CommGraph
from repro.errors import ConfigError
from repro.observability.metrics import get_registry
from repro.routing.base import Router
from repro.utils.logconf import get_logger
from repro.utils.rng import as_rng

__all__ = ["refine_assignment"]

log = get_logger("core.refine")


def refine_assignment(
    router: Router,
    node_graph: CommGraph,
    assignment: np.ndarray,
    iterations: int,
    seed=0,
    temperature: float | None = None,
    stats: dict | None = None,
) -> tuple[np.ndarray, float]:
    """Annealed cluster-swap refinement of a placement.

    Parameters
    ----------
    router:
        Evaluation router (bound to the target topology).
    node_graph:
        Cluster-level communication graph.
    assignment:
        Bijective cluster -> node placement to refine (not modified).
    iterations:
        Swap proposals; 0 returns the input unchanged.
    temperature:
        Initial annealing temperature; defaults to 2% of the starting MCL.
    stats:
        Optional dict that receives the walk's ``batches`` (pair_scatter
        calls), ``speculated`` (proposals drawn in batches deeper than
        one) and ``discarded`` (drawn proposals dropped after an earlier
        acceptance in their batch).

    Returns
    -------
    (refined_assignment, refined_mcl)
    """
    V = router.topology.num_nodes
    assignment = np.asarray(assignment, dtype=np.int64).copy()
    if len(assignment) != V or len(np.unique(assignment)) != V:
        raise ConfigError("assignment must be a bijection of clusters onto nodes")
    mask = node_graph.srcs != node_graph.dsts
    srcs, dsts = node_graph.srcs[mask], node_graph.dsts[mask]
    vols = node_graph.vols[mask]
    n = node_graph.num_tasks
    incident = _incident_flows(srcs, dsts, n)
    walk = stats if stats is not None else {}
    walk.update(batches=0, speculated=0, discarded=0)

    loads = router.link_loads(assignment[srcs], assignment[dsts], vols)
    cost = float(loads.max()) if loads.size else 0.0
    if iterations <= 0 or cost == 0.0:
        return assignment, cost

    rng = as_rng(seed)
    bitgen = rng.bit_generator
    t0 = temperature if temperature is not None else 0.02 * cost
    alpha = (1e-3) ** (1.0 / iterations)
    temp = t0
    best, best_cost = assignment.copy(), cost
    endpoints = np.stack((srcs, dsts))
    budget = router._pair_batch_entries
    depth, done, widest = 1, 0, 1.0
    # Each batch draws the next ``k`` proposals as the sequential walk
    # would if it rejected them all: two cluster ids each, and a
    # uniform unless a == b. One pair_scatter call expands them against
    # the current assignment. The walk applies each proposal's segment
    # (its old endpoints' entries negated, then its new ones) and rolls
    # a rejected one back with -new, then +old. The first acceptance
    # drops the rest of the batch and replays the generator from the
    # batch's saved state up to it; an acceptance with delta <= 0 drew
    # no uniform in the sequential walk, so its replay draws none. A
    # depth-1 batch draws its uniform only when the walk needs one, so
    # it saves no state and never replays.
    while done < iterations:
        k = min(depth, iterations - done)
        if k > 1:
            saved = bitgen.state
        draws = []
        for _ in range(k):
            a, b = int(rng.integers(n)), int(rng.integers(n))
            draws.append((a, b, rng.random() if k > 1 and a != b else None))
        pairs = [(a, b) for a, b, _ in draws if a != b]
        if pairs:
            plan = _swap_plans(router, pairs, incident, endpoints, vols,
                               assignment)
            widest = max(widest, len(plan.slots) / len(pairs))
            walk["batches"] += 1
        walk["speculated"] += k if k > 1 else 0
        p, accepted = 0, False
        for i, (a, b, u) in enumerate(draws):
            if a != b:
                plan.apply(loads, p)
                new_cost = float(loads.max())
                delta = new_cost - cost
                accepted = delta <= 0 or ((rng.random() if u is None else u)
                                          < np.exp(-delta / max(temp, 1e-30)))
                if accepted:
                    assignment[a], assignment[b] = assignment[b], assignment[a]
                    cost = new_cost
                    if cost < best_cost - 1e-12:
                        best_cost, best = cost, assignment.copy()
                    if k > 1:
                        bitgen.state = saved
                        _replay(rng, n, draws[:i], uniform=delta > 0)
                        walk["discarded"] += k - i - 1
                        k = i + 1
                else:
                    plan.rollback(loads, p)
                    p += 1
            temp *= alpha
            if accepted:
                break
        done += k
        if accepted:
            depth = 1
        else:
            # A fully rejected batch doubles the depth, within the entry
            # budget at the widest batch's entries per proposal so far.
            depth = max(1, min(2 * depth, int(budget / widest)))
    registry = get_registry()
    registry.counter("refine.batches").inc(walk["batches"])
    registry.counter("refine.discarded").inc(walk["discarded"])
    log.debug("refined MCL to %.6g in %d proposals", best_cost, iterations)
    return best, best_cost


def _incident_flows(srcs: np.ndarray, dsts: np.ndarray, n: int) -> list:
    """Each cluster's incident flows, ascending: the rows of a CSR
    sorted by (cluster, flow), split per cluster."""
    ends = np.concatenate((srcs, dsts))
    flows = np.tile(np.arange(len(srcs), dtype=np.int64), 2)
    flows = flows[np.lexsort((flows, ends))]
    indptr = np.bincount(ends, minlength=n).cumsum()
    return np.split(flows, indptr[:-1])


def _swap_plans(router: Router, pairs, incident, endpoints, vols, assignment):
    """One pair_scatter plan for the swaps ``pairs``, each against the
    current ``assignment``; a swap's flows are its two clusters' incident
    flows, ascending and each once, as ``np.union1d`` lists them."""
    E, K = len(vols), len(pairs)
    parts = [incident[c] for pair in pairs for c in pair]
    flows = np.concatenate(parts)
    if K > 1:  # swap p's flows sort into [p*E, (p+1)*E)
        per_swap = [len(x) + len(y) for x, y in zip(parts[0::2], parts[1::2])]
        flows += np.arange(0, K * E, E).repeat(per_swap)
    flows.sort()
    first = np.empty(len(flows), dtype=bool)
    first[:1] = True
    np.not_equal(flows[1:], flows[:-1], out=first[1:])
    flows = flows[first]
    bounds = None
    if K > 1:
        bounds = flows.searchsorted(np.arange(0, (K + 1) * E, E))
        flows %= E
    clusters = endpoints[:, flows]
    moved = np.empty((2, 2, len(flows)), dtype=np.int64)  # src/dst, old/new
    old = moved[:, 0]
    old[...] = assignment[clusters]
    if K == 1:
        # A lone swap reads its new endpoints off the swapped placement:
        # one gather, where the batched form below takes four passes.
        # Paper-scale swaps always run alone (see _pair_batch_entries).
        (a, b), = pairs
        assignment[a], assignment[b] = assignment[b], assignment[a]
        moved[:, 1] = assignment[clusters]
        assignment[a], assignment[b] = assignment[b], assignment[a]
    else:
        na, nb = assignment[np.array(pairs).T].repeat(np.diff(bounds), axis=1)
        moved[:, 1] = np.where(old == na, nb, np.where(old == nb, na, old))
    return router.pair_scatter(moved[0], moved[1], vols[flows], bounds)


def _replay(rng, n: int, rejected, uniform: bool) -> None:
    """Redraw what the sequential walk drew for the ``rejected``
    proposals and the accepted one after them: two cluster ids each,
    a uniform for each rejection of ``a != b``, and one for the
    acceptance only when its delta was positive."""
    for a, b, _ in rejected:
        rng.integers(n), rng.integers(n)
        if a != b:
            rng.random()
    rng.integers(n), rng.integers(n)
    if uniform:
        rng.random()
