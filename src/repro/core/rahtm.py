"""The RAHTM mapper facade.

Orchestrates the three phases over a (possibly non-uniform) torus:

1. cluster the task graph to the concentration factor (phase 1a) and, when
   the topology is non-uniform (e.g. BG/Q's arity-2 E dimension), split the
   node-cluster graph across uniform topology partitions (Section III-B);
2. per partition: build the 2-ary hierarchy (phase 1b), pseudo-pin via the
   Table II MILP top-down (phase 2), and beam-merge bottom-up (phase 3);
3. stitch partitions back together with one more orientation merge on the
   full topology.

Usage::

    mapper = RAHTMMapper(torus(4, 4, 4), RAHTMConfig(seed=0))
    mapping = mapper.map(graph)      # graph: CommGraph with V*c tasks
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.commgraph.graph import CommGraph
from repro.core.clustering import build_cluster_hierarchy, cluster_fixed_size
from repro.core.merge import (
    MergeBlock,
    MergeConfig,
    first_fit_merge,
    hierarchical_merge,
    merge_blocks,
)
from repro.core.pseudo_pin import pseudo_pin
from repro.errors import ConfigError
from repro.mapping.mapping import Mapping
from repro.observability.trace import span
from repro.resilience.degrade import DegradationLog
from repro.routing.dor import DimensionOrderRouter
from repro.routing.minimal_adaptive import MinimalAdaptiveRouter
from repro.topology.bgq import BGQTopology
from repro.topology.cartesian import CartesianTopology
from repro.topology.hierarchy import CubeHierarchy
from repro.topology.partition import uniform_partitions
from repro.utils.logconf import get_logger
from repro.utils.timing import PhaseTimer

__all__ = ["RAHTMConfig", "RAHTMMapper"]

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
    order_mode / order_samples:
        Merge-order heuristic fidelity (see :class:`MergeConfig`).
    milp_time_limit / milp_rel_gap:
        Phase-2 solver budget per subproblem.
    use_milp:
        ``False`` swaps phase 2's MILP for the greedy placer (ablation).
    enforce_minimal:
        Emit the C3 minimal-routing constraints (paper notes they may be
        omitted; ablation knob).
    fix_first:
        Symmetry-break the MILP by pinning the heaviest cluster.
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
    order_samples: int = 4
    milp_time_limit: float | None = 60.0
    milp_rel_gap: float | None = None
    use_milp: bool = True
    enforce_minimal: bool = True
    fix_first: bool = True
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
        if self.order_mode not in ("identity", "sampled", "exhaustive"):
            raise ConfigError(
                f"order_mode must be 'identity', 'sampled' or 'exhaustive', "
                f"got {self.order_mode!r}"
            )
        if self.order_samples < 1:
            raise ConfigError(
                f"order_samples must be >= 1, got {self.order_samples}"
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

    def merge_config(self, seed_offset: int = 0) -> MergeConfig:
        return MergeConfig(
            beam_width=self.beam_width,
            max_orientations=self.max_orientations,
            order_mode=self.order_mode,
            order_samples=self.order_samples,
            reposition=self.reposition,
            seed=self.seed + seed_offset,
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
            merge → first-fit) but always returns a *valid* mapping —
            unless the budget's policy is ``fail``, which raises
            :class:`~repro.errors.DeadlineExceededError` instead.
            Degradation events land in ``self.stats["degradation"]``.
        checkpoint:
            Optional :class:`~repro.resilience.MapperCheckpoint`. Each
            completed phase (pseudo-pin, merge, each partition) is
            persisted; a rerun of the same job resumes from the last
            completed phase with zero repeat MILP solves. Checkpoints are
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

            # Partitioning for non-uniform topologies.
            parts = (uniform_partitions(topo)
                     if not _is_uniform_pow2(topo) else None)
            if parts is None:
                assignment = self._map_uniform(
                    topo, node_graph, seed_offset=0,
                    budget=budget, checkpoint=checkpoint, ckpt_ns="",
                )
            else:
                assignment = self._map_partitioned(
                    topo, node_graph, parts,
                    budget=budget, checkpoint=checkpoint,
                )

            if self.config.refine_iterations:
                if budget is not None and budget.enforce("phase4"):
                    self.degradation.record("phase4", "refine->skipped",
                                            "budget-exhausted")
                else:
                    with self.timer.phase("phase4-refine"), \
                            span("rahtm.refine",
                                 iterations=self.config.refine_iterations):
                        from repro.core.refine import refine_assignment

                        assignment, refined_mcl = refine_assignment(
                            self._router(topo), node_graph, assignment,
                            self.config.refine_iterations,
                            seed=self.config.seed,
                        )
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
        self, topo: CartesianTopology, node_graph: CommGraph, seed_offset: int,
        budget=None, checkpoint=None, ckpt_ns: str = "",
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
                f"{ckpt_ns}pin", expect_len=hierarchy.num_node_clusters
            )
        if cluster_to_node is None:
            degraded_before = len(self.degradation)
            with self.timer.phase("phase2-milp"), \
                    span("rahtm.pseudo_pin", levels=cube_h.num_levels):
                pin = pseudo_pin(
                    hierarchy, cube_h,
                    time_limit=self.config.milp_time_limit,
                    mip_rel_gap=self.config.milp_rel_gap,
                    enforce_minimal=self.config.enforce_minimal,
                    fix_first=self.config.fix_first,
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
                checkpoint.save_assignment(f"{ckpt_ns}pin", cluster_to_node)

        assignment = None
        if checkpoint is not None:
            assignment = checkpoint.load_assignment(
                f"{ckpt_ns}merge", expect_len=topo.num_nodes
            )
        if assignment is None:
            degraded_before = len(self.degradation)
            with self.timer.phase("phase3-merge"), \
                    span("rahtm.merge", beam_width=self.config.beam_width):
                router = self._router(topo)
                assignment, mstats = hierarchical_merge(
                    topo, router, cube_h, node_graph, cluster_to_node,
                    self.config.merge_config(seed_offset),
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
                checkpoint.save_assignment(f"{ckpt_ns}merge", assignment)
        return assignment

    # -- partitioned path ----------------------------------------------------
    def _map_partitioned(
        self, topo: CartesianTopology, node_graph: CommGraph, parts,
        budget=None, checkpoint=None,
    ) -> np.ndarray:
        nparts = len(parts)
        V = topo.num_nodes
        if V % nparts:
            raise ConfigError("partitions do not evenly divide the topology")
        part_size = V // nparts

        # Split node-clusters into one group per partition (phase-1 tiling
        # again, at partition granularity).
        with self.timer.phase("phase1-partition"), \
                span("rahtm.partition", partitions=nparts):
            part_level = cluster_fixed_size(node_graph, part_size)
        group_of = part_level.labels  # node-cluster -> partition group

        assignment = np.full(V, -1, dtype=np.int64)
        blocks: list[MergeBlock] = []
        for gi, part in enumerate(parts):
            members = np.flatnonzero(group_of == gi)
            sub = node_graph.subgraph(members)
            local_topo = part.local_topology(topo)
            local_assignment = None
            if checkpoint is not None:
                local_assignment = checkpoint.load_assignment(
                    f"part{gi}", expect_len=local_topo.num_nodes
                )
            if local_assignment is not None:
                # The whole-partition checkpoint supersedes its sub-stages;
                # mark them so clear() evicts any the killed run left behind.
                checkpoint.mark(f"part{gi}-pin", f"part{gi}-merge")
            else:
                degraded_before = len(self.degradation)
                with span("rahtm.map_partition", index=gi,
                          nodes=local_topo.num_nodes):
                    local_assignment = self._map_uniform(
                        local_topo, sub, seed_offset=17 * (gi + 1),
                        budget=budget, checkpoint=checkpoint,
                        ckpt_ns=f"part{gi}-",
                    )
                if checkpoint is not None \
                        and len(self.degradation) == degraded_before:
                    checkpoint.save_assignment(f"part{gi}", local_assignment)
            # Record the partition as a rigid block for the stitch merge.
            local_coords = local_topo.coords(local_assignment)
            blocks.append(MergeBlock(
                origin=np.asarray(part.origin, dtype=np.int64),
                shape=part.shape,
                clusters=members,
                local_coords=local_coords,
            ))
        with self.timer.phase("phase3-stitch"), \
                span("rahtm.stitch", partitions=nparts):
            if budget is not None and budget.enforce("phase3-stitch"):
                self.degradation.record(
                    "phase3", "stitch->first-fit", "budget-exhausted",
                    partitions=nparts,
                )
                outcome = first_fit_merge(topo, blocks)
            else:
                router = self._router(topo)
                outcome = merge_blocks(
                    topo, router, blocks,
                    node_graph.srcs, node_graph.dsts, node_graph.vols,
                    self.config.merge_config(seed_offset=9999),
                    num_clusters=node_graph.num_tasks,
                )
        self.stats.setdefault("merge_evaluations", 0)
        self.stats["merge_evaluations"] += outcome.evaluations
        self.stats["stitch_mcl"] = outcome.mcl
        for cluster, node in outcome.positions.items():
            assignment[cluster] = node
        if (assignment < 0).any():
            raise ConfigError("partition stitching left clusters unplaced")
        return assignment


def _is_uniform_pow2(topo: CartesianTopology) -> bool:
    arities = {k for k in topo.shape if k > 1}
    if len(arities) != 1:
        return False
    k = arities.pop()
    return (k & (k - 1)) == 0
