"""The RAHTM mapper facade.

Orchestrates the phases over a 2^q-ary torus, optionally extended by
arity-2 dimensions (e.g. BG/Q's E dimension):

1. cluster the task graph to the concentration factor (phase 1a);
2. fold each arity-2 dimension of a non-uniform shape: pair the node
   clusters by greedy heavy-edge matching and keep each pair's lower id,
   so the half lives on the topology with that dimension set to 1;
3. on the uniform (half) topology: build the 2-ary hierarchy (phase 1b),
   pseudo-pin via the Table II MILP top-down (phase 2), and beam-merge
   bottom-up (phase 3);
4. mirror every partner onto its pair's coordinates with the folded
   coordinate set to 1 (the paper's Fig. 7 symmetry copy, applied across
   the arity-2 dimension), then optionally refine (phase 4).

Usage::

    mapper = RAHTMMapper(torus(4, 4, 4), RAHTMConfig(seed=0))
    mapping = mapper.map(graph)      # graph: CommGraph with V*c tasks
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.commgraph.graph import CommGraph
from repro.core.clustering import (
    build_cluster_hierarchy,
    cluster_fixed_size,
    greedy_fixed_size_labels,
)
from repro.core.merge import MergeConfig, hierarchical_merge
from repro.core.pseudo_pin import pseudo_pin
from repro.core.refine import refine_assignment
from repro.errors import ConfigError
from repro.mapping.mapping import Mapping
from repro.observability.trace import span
from repro.resilience.degrade import DegradationLog
from repro.routing.dor import DimensionOrderRouter
from repro.routing.minimal_adaptive import MinimalAdaptiveRouter
from repro.topology.bgq import BGQTopology
from repro.topology.cartesian import CartesianTopology
from repro.topology.hierarchy import CubeHierarchy
from repro.utils.logconf import get_logger
from repro.utils.timing import PhaseTimer

__all__ = ["RAHTMConfig", "RAHTMMapper", "mirror_folds"]

log = get_logger("core.rahtm")


@dataclass(frozen=True)
class RAHTMConfig:
    """All tunables of the RAHTM pipeline.

    Attributes
    ----------
    beam_width:
        Phase-3 beam (``N = 64`` in the paper).
    max_orientations:
        Cap on block orientations searched (None = full hyperoctahedral
        group; the paper searches all orientations at its scales).
    order_mode:
        Merge-order heuristic fidelity (see :class:`MergeConfig`).
    milp_time_limit / milp_rel_gap:
        Phase-2 solver budget per subproblem.
    use_milp:
        ``False`` swaps phase 2's MILP for the greedy placer (ablation).
        The MILP is always the full Table II model, with the C3
        minimal-routing constraints and the symmetry break.
    routing:
        Router used for all MCL evaluations: ``"mar"`` (all-minimal-paths
        approximation of BG/Q's adaptive routing) or ``"dor"``
        (dimension-order; the routing-unaware ablation).
    reposition:
        Enable the merge phase's repositioning freedom (blocks may swap
        congruent slots — the paper's second degree of freedom).
    refine_iterations:
        Post-merge annealed swap proposals on the final placement
        (Section VI's cheap-refinement direction); 0 disables.
    seed:
        Seeds orientation sampling and any stochastic fallback.
    """

    beam_width: int = 64
    max_orientations: int | None = None
    order_mode: str = "sampled"
    milp_time_limit: float | None = 60.0
    milp_rel_gap: float | None = None
    use_milp: bool = True
    routing: str = "mar"
    reposition: bool = False
    refine_iterations: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.beam_width < 1:
            raise ConfigError(f"beam_width must be >= 1, got {self.beam_width}")
        if self.max_orientations is not None and self.max_orientations < 1:
            raise ConfigError(
                f"max_orientations must be >= 1 or None, "
                f"got {self.max_orientations}"
            )
        if self.order_mode not in ("identity", "sampled"):
            raise ConfigError(
                f"order_mode must be 'identity' or 'sampled', "
                f"got {self.order_mode!r}"
            )
        if self.milp_time_limit is not None and self.milp_time_limit <= 0:
            raise ConfigError(
                f"milp_time_limit must be > 0 or None, "
                f"got {self.milp_time_limit}"
            )
        if self.milp_rel_gap is not None and self.milp_rel_gap <= 0:
            raise ConfigError(
                f"milp_rel_gap must be > 0 or None, got {self.milp_rel_gap}"
            )
        if self.routing not in ("mar", "dor"):
            raise ConfigError(f"routing must be 'mar' or 'dor', got {self.routing!r}")
        if self.refine_iterations < 0:
            raise ConfigError("refine_iterations must be >= 0")

    def merge_config(self) -> MergeConfig:
        return MergeConfig(
            beam_width=self.beam_width,
            max_orientations=self.max_orientations,
            order_mode=self.order_mode,
            reposition=self.reposition,
            seed=self.seed,
        )


class RAHTMMapper:
    """Routing Algorithm aware Hierarchical Task Mapper.

    Parameters
    ----------
    topology:
        A :class:`CartesianTopology` or :class:`BGQTopology`.
    config:
        Algorithm tunables; defaults follow the paper.
    """

    name = "RAHTM"
    #: Feature flag for the service layer: ``map()`` accepts ``budget``
    #: and ``checkpoint`` keyword arguments.
    supports_resilience = True

    def __init__(self, topology, config: RAHTMConfig | None = None):
        if isinstance(topology, BGQTopology):
            topology = topology.network
        if not isinstance(topology, CartesianTopology):
            raise ConfigError(
                f"unsupported topology type {type(topology).__name__}"
            )
        self.topology = topology
        self.folds = mirror_folds(topology)
        self.config = config or RAHTMConfig()
        self.timer = PhaseTimer()
        self.stats: dict = {}
        self.degradation = DegradationLog()

    def _router(self, topo: CartesianTopology):
        if self.config.routing == "dor":
            return DimensionOrderRouter(topo)
        return MinimalAdaptiveRouter(topo)

    # ------------------------------------------------------------------------------
    def map(self, graph: CommGraph, *, budget=None, checkpoint=None) -> Mapping:
        """Map ``graph``'s tasks onto the topology; returns a :class:`Mapping`.

        Parameters
        ----------
        graph:
            Communication graph with ``V * c`` tasks.
        budget:
            Optional :class:`~repro.resilience.Budget`. Phase 2 divides
            the remaining wall clock across its MILP subproblems; on
            exhaustion each phase degrades (MILP → greedy → static, full
            merge → first-fit) but always returns a *valid* mapping.
            Degradation events land in ``self.stats["degradation"]``.
        checkpoint:
            Optional :class:`~repro.resilience.MapperCheckpoint`. Each
            completed phase (pseudo-pin, merge) is persisted; a rerun of
            the same job resumes from the last completed phase with zero
            repeat MILP solves. Checkpoints are
            cleared once the mapping completes.
        """
        topo = self.topology
        V = topo.num_nodes
        if graph.num_tasks % V:
            raise ConfigError(
                f"{graph.num_tasks} tasks do not divide over {V} nodes"
            )
        concentration = graph.num_tasks // V
        self.timer = PhaseTimer()
        self.stats = {"concentration": concentration}
        self.degradation = DegradationLog()

        with span("rahtm.map", tasks=graph.num_tasks, nodes=V,
                  concentration=concentration):
            # Phase 1a: concentration clustering.
            with self.timer.phase("phase1-concentration"), \
                    span("rahtm.cluster", tasks=graph.num_tasks):
                node_level = cluster_fixed_size(graph, concentration)
            node_graph = node_level.graph

            if self.folds:
                assignment = self._map_folded(node_graph, budget, checkpoint)
            else:
                assignment = self._map_uniform(
                    topo, node_graph, budget=budget, checkpoint=checkpoint,
                )

            if self.config.refine_iterations:
                if budget is not None and budget.exhausted():
                    self.degradation.record("phase4", "refine->skipped",
                                            "budget-exhausted")
                else:
                    with self.timer.phase("phase4-refine"), \
                            span("rahtm.refine",
                                 iterations=self.config.refine_iterations
                                 ) as refine_span:
                        walk: dict = {}
                        assignment, refined_mcl = refine_assignment(
                            self._router(topo), node_graph, assignment,
                            self.config.refine_iterations,
                            seed=self.config.seed, stats=walk,
                        )
                        refine_span.set(**walk)
                    self.stats["refined_mcl"] = refined_mcl

        task_to_node = assignment[node_level.labels]
        mapping = Mapping(topo, task_to_node, tasks_per_node=concentration)
        self.stats["phase_seconds"] = dict(self.timer.totals)
        self.stats["degradation"] = self.degradation.as_dicts()
        if budget is not None:
            self.stats["budget"] = budget.snapshot()
        if checkpoint is not None:
            self.stats["checkpoint"] = checkpoint.stats()
            # The finished mapping supersedes its intermediate states.
            checkpoint.clear()
        if self.degradation:
            log.warning("mapping degraded: %s", self.degradation.summary())
        return mapping

    # -- uniform path -----------------------------------------------------------------
    def _map_uniform(
        self, topo: CartesianTopology, node_graph: CommGraph,
        budget=None, checkpoint=None,
    ) -> np.ndarray:
        cube_h = CubeHierarchy(topo)
        with self.timer.phase("phase1-hierarchy"), \
                span("rahtm.hierarchy", levels=cube_h.num_levels):
            hierarchy = build_cluster_hierarchy(
                node_graph, topo.num_nodes, 2**cube_h.n, cube_h.num_levels
            )

        cluster_to_node = None
        if checkpoint is not None:
            cluster_to_node = checkpoint.load_assignment(
                "pin", expect_len=hierarchy.num_node_clusters
            )
        if cluster_to_node is None:
            degraded_before = len(self.degradation)
            with self.timer.phase("phase2-milp"), \
                    span("rahtm.pseudo_pin", levels=cube_h.num_levels):
                pin = pseudo_pin(
                    hierarchy, cube_h,
                    time_limit=self.config.milp_time_limit,
                    mip_rel_gap=self.config.milp_rel_gap,
                    use_milp=self.config.use_milp,
                    budget=budget, degradation=self.degradation,
                )
            cluster_to_node = pin.cluster_to_node
            self.stats.setdefault("milp", []).extend(
                (r.status, r.mcl, r.solve_seconds) for r in pin.milp_stats
            )
            self.stats.setdefault("milp_cache_hits", 0)
            self.stats["milp_cache_hits"] += pin.cache_hits
            # Only checkpoint full-quality phase results: a degraded pin
            # must not be trusted by a later resume with a fresh budget.
            if checkpoint is not None \
                    and len(self.degradation) == degraded_before:
                checkpoint.save_assignment("pin", cluster_to_node)

        assignment = None
        if checkpoint is not None:
            assignment = checkpoint.load_assignment(
                "merge", expect_len=topo.num_nodes
            )
        if assignment is None:
            degraded_before = len(self.degradation)
            with self.timer.phase("phase3-merge"), \
                    span("rahtm.merge", beam_width=self.config.beam_width):
                router = self._router(topo)
                assignment, mstats = hierarchical_merge(
                    topo, router, cube_h, node_graph, cluster_to_node,
                    self.config.merge_config(),
                    budget=budget, degradation=self.degradation,
                )
            self.stats.setdefault("merge_evaluations", 0)
            self.stats["merge_evaluations"] += mstats["evaluations"]
            self.stats.setdefault("merge_cache_hits", 0)
            self.stats["merge_cache_hits"] += mstats["cache_hits"]
            # A merge cut short by the deadline is valid but unoptimized;
            # don't freeze it into a checkpoint a resumed run would trust.
            if checkpoint is not None \
                    and len(self.degradation) == degraded_before:
                checkpoint.save_assignment("merge", assignment)
        return assignment

    # -- mirror path ------------------------------------------------------------------
    def _map_folded(self, node_graph: CommGraph, budget=None,
                    checkpoint=None) -> np.ndarray:
        """Map one half per fold with :meth:`_map_uniform`, then mirror.

        Each fold pairs the current clusters by greedy heavy-edge matching
        and keeps each pair's lower id, so the heavy pairs end up one
        (double-wide) arity-2 hop apart.
        """
        steps = []
        graph, topo = node_graph, self.topology
        with self.timer.phase("phase1-partition"), \
                span("rahtm.partition", folds=len(self.folds)):
            for dim, half in self.folds:
                labels = greedy_fixed_size_labels(graph, 2)
                by_pair = np.lexsort((np.arange(graph.num_tasks), labels))
                lower, upper = by_pair.reshape(-1, 2).T
                steps.append((dim, topo, lower, upper))
                graph, topo = graph.subgraph(lower), half
        assignment = self._map_uniform(
            topo, graph, budget=budget, checkpoint=checkpoint,
        )
        # Unfold innermost first: a half's node keeps its coordinates in the
        # parent, and its partner sits across the folded dimension.
        for dim, parent, lower, upper in reversed(steps):
            coords = topo.coords(assignment)
            assignment = np.empty(parent.num_nodes, dtype=np.int64)
            assignment[lower] = parent.index(coords)
            coords[:, dim] = 1
            assignment[upper] = parent.index(coords)
            topo = parent
        return assignment


def mirror_folds(
    topo: CartesianTopology,
) -> list[tuple[int, CartesianTopology]]:
    """The ``(dimension, half topology)`` folds that make ``topo`` uniform.

    Empty for a uniform 2^q shape (all-2 shapes included). Otherwise the
    last arity-2 dimension is set to 1, repeatedly, until the shape is
    uniform 2^q; shapes that never get there raise :class:`ConfigError`.
    """
    shape = topo.shape
    folds = []
    while not _is_uniform_pow2(topo):
        arity2 = [d for d, k in enumerate(topo.shape) if k == 2]
        if not arity2:
            raise ConfigError(
                f"RAHTM needs a 2^q-ary torus, optionally extended by "
                f"arity-2 dimensions; got shape {shape}"
            )
        dim = arity2[-1]
        half = list(topo.shape)
        half[dim] = 1
        wrap = list(topo.wrap)
        wrap[dim] = False
        topo = CartesianTopology(half, wrap=wrap)
        folds.append((dim, topo))
    return folds


def _is_uniform_pow2(topo: CartesianTopology) -> bool:
    arities = {k for k in topo.shape if k > 1}
    if len(arities) != 1:
        return False
    k = arities.pop()
    return (k & (k - 1)) == 0
