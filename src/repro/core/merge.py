"""Phase 3 — bottom-up beam merging of block mappings (paper Section III-D).

Blocks (sub-cubes whose internal mapping is already fixed) are merged into
their parent while searching *orientations* (rotations/reflections of each
block — the hyperoctahedral group) and, optionally, *repositions* (which
congruent corner slot each block occupies — the paper's "twin degrees of
freedom of rotation and repositioning"). The search is the paper's
incremental beam:

1. **Order determination** — blocks are ranked by the average MCL of their
   pairwise interactions (heaviest first, so the most constrained blocks
   get the most placement freedom).
2. **The first two blocks** are merged exhaustively over orientation pairs
   (when repositioning is off, matching the paper; with repositioning on,
   every step is beam-pruned to bound the product space).
3. Each remaining block is merged against every retained partial solution,
   keeping the best ``N`` (= 64 in the paper) merged configurations.

MCL is evaluated with the all-minimal-paths oblivious router on the global
topology (minimal paths never leave the parent's bounding box, so global
channel space is exact). Identical sibling merge problems are solved once
and copied (the paper's symmetry exploitation).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.commgraph.graph import CommGraph
from repro.core.orientation import (
    Orientation,
    apply_batch,
    orientations_for_shape,
    sample_orientations,
)
from repro.errors import ConfigError
from repro.observability.metrics import get_registry
from repro.observability.trace import span
from repro.routing.base import Router
from repro.topology.cartesian import CartesianTopology
from repro.topology.hierarchy import CubeHierarchy
from repro.utils.logconf import get_logger
from repro.utils.rng import as_rng

__all__ = ["MergeConfig", "MergeBlock", "MergeOutcome", "merge_blocks",
           "hierarchical_merge"]

log = get_logger("core.merge")

#: Random orientation pairs per block pair in ``"sampled"`` order mode.
ORDER_SAMPLES = 4


@dataclass(frozen=True)
class MergeConfig:
    """Knobs of the phase-3 search.

    Attributes
    ----------
    beam_width:
        ``N`` of the paper — retained merged configurations (default 64).
    max_orientations:
        Cap on orientations per block (None = the full hyperoctahedral
        group; sampling keeps the identity).
    order_mode:
        How pairwise MCLs for the order heuristic are computed:
        ``"identity"`` (cheapest) or ``"sampled"`` (min over the
        identity pair and :data:`ORDER_SAMPLES` random orientation
        pairs).
    reposition:
        Also search which congruent slot each block occupies (the paper's
        repositioning freedom). Grows the branching factor by the number
        of congruent free slots per step.
    seed:
        Randomness seed (orientation sampling only).
    """

    beam_width: int = 64
    max_orientations: int | None = None
    order_mode: str = "sampled"
    reposition: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.beam_width < 1:
            raise ConfigError(f"beam_width must be >= 1, got {self.beam_width}")
        if self.order_mode not in ("identity", "sampled"):
            raise ConfigError(f"invalid order_mode {self.order_mode!r}")


@dataclass
class MergeBlock:
    """A rigid block to be merged: clusters pinned at block-local coords."""

    origin: np.ndarray        # (ndim,) absolute coords of block corner
    shape: tuple[int, ...]    # block extent per dimension
    clusters: np.ndarray      # global cluster ids
    local_coords: np.ndarray  # (len(clusters), ndim) within-block coords


@dataclass
class MergeOutcome:
    """Result of merging one set of blocks."""

    positions: dict[int, int]  # cluster id -> absolute node id
    mcl: float
    evaluations: int = 0
    orientations: list[Orientation] = field(default_factory=list)


class _State:
    __slots__ = ("loads", "positions", "used_slots", "mcl", "order")

    def __init__(self, loads, positions, used_slots, mcl, order):
        self.loads = loads            # dense channel loads
        self.positions = positions    # dense (num_clusters,), -1 = unplaced
        self.used_slots = used_slots  # frozenset of occupied slot indices
        self.mcl = mcl
        self.order = order            # deterministic tiebreak


class _MergeEngine:
    """One merge_blocks invocation's working state."""

    def __init__(self, topo, router, blocks, srcs, dsts, vols, config,
                 num_clusters):
        if router.topology != topo:
            raise ConfigError("router is bound to a different topology")
        self.topo = topo
        self.router = router
        self.blocks = blocks
        self.config = config
        self.num_clusters = num_clusters
        self.rng = as_rng(config.seed)
        self.evaluations = 0
        self.seq = 0

        member = np.zeros(num_clusters, dtype=bool)
        for b in blocks:
            member[b.clusters] = True
        keep = member[srcs] & member[dsts] & (srcs != dsts)
        self.srcs, self.dsts, self.vols = srcs[keep], dsts[keep], vols[keep]

        self.block_of = np.full(num_clusters, -1, dtype=np.int64)
        for bi, b in enumerate(blocks):
            self.block_of[b.clusters] = bi
        self.bsrc = self.block_of[self.srcs]
        self.bdst = self.block_of[self.dsts]

        # Slot table: one slot per block's initial origin.
        self.slot_origin = [np.asarray(b.origin, dtype=np.int64) for b in blocks]
        self.slot_shape = [tuple(b.shape) for b in blocks]

        self.orients: list[list[Orientation]] = [
            sample_orientations(
                orientations_for_shape(b.shape), config.max_orientations,
                self.rng,
            )
            for b in blocks
        ]
        self._pos_cache: dict[tuple[int, int, int], np.ndarray] = {}
        # (O, m, ndim) oriented local coords per block, built in one
        # hyperoctahedral batch transform on first use.
        self._orient_coords: dict[int, np.ndarray] = {}
        # Intra-block loads depend only on (block, slot, orientation) —
        # engine-level cache so beam states in the same step share them.
        self._intra_cache: dict[tuple[int, int, int], np.ndarray] = {}

    # -- geometry -------------------------------------------------------------
    def allowed_slots(self, bi: int) -> list[int]:
        if not self.config.reposition:
            return [bi]
        shape = tuple(self.blocks[bi].shape)
        return [s for s, sh in enumerate(self.slot_shape) if sh == shape]

    def oriented_coords(self, bi: int) -> np.ndarray:
        """(O, m, ndim) local coords of block bi under every orientation."""
        got = self._orient_coords.get(bi)
        if got is None:
            b = self.blocks[bi]
            got = apply_batch(self.orients[bi], b.local_coords, b.shape)
            self._orient_coords[bi] = got
        return got

    def positions_for(self, bi: int, slot: int, oi: int) -> np.ndarray:
        """Dense cluster->node array for block bi at slot with orientation oi
        (-1 outside the block)."""
        key = (bi, slot, oi)
        cached = self._pos_cache.get(key)
        if cached is not None:
            return cached
        b = self.blocks[bi]
        coords = self.slot_origin[slot][None, :] + self.oriented_coords(bi)[oi]
        dense = np.full(self.num_clusters, -1, dtype=np.int64)
        dense[b.clusters] = self.topo.index(coords)
        self._pos_cache[key] = dense
        return dense

    # -- evaluation --------------------------------------------------------------
    def edges_between(self, group_a, group_b):
        in_a = np.isin(self.bsrc, group_a) | np.isin(self.bsrc, group_b)
        in_b = np.isin(self.bdst, group_a) | np.isin(self.bdst, group_b)
        m = in_a & in_b
        return self.srcs[m], self.dsts[m], self.vols[m]

    def pair_mcl(self, b1, s1, o1, b2, s2, o2) -> float:
        es, ed, ev = self.edges_between([b1], [b2])
        if len(es) == 0:
            return 0.0
        p1 = self.positions_for(b1, s1, o1)
        p2 = self.positions_for(b2, s2, o2)
        dense = np.where(p1 >= 0, p1, p2)
        loads = self.router.link_loads(dense[es], dense[ed], ev)
        self.evaluations += 1
        return float(loads.max()) if loads.size else 0.0

    def pair_mcl_batch(self, b1, s1, b2, s2, pairs) -> np.ndarray:
        """Isolated-pair MCL for many (o1, o2) orientation candidates.

        One ``link_loads_many`` scatter per chunk instead of a
        ``link_loads`` per candidate; each row is bitwise what the solo
        :meth:`pair_mcl` call computes. Chunked so huge orientation
        products cannot blow up the (B, S) buffer.
        """
        es, ed, ev = self.edges_between([b1], [b2])
        B = len(pairs)
        if len(es) == 0:
            return np.zeros(B)
        a1: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        a2: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        m = len(es)
        ps = np.empty((B, m), dtype=np.int64)
        pd = np.empty((B, m), dtype=np.int64)
        for i, (o1, o2) in enumerate(pairs):
            if o1 not in a1:
                p = self.positions_for(b1, s1, o1)
                a1[o1] = (p[es], p[ed])
            if o2 not in a2:
                p = self.positions_for(b2, s2, o2)
                a2[o2] = (p[es], p[ed])
            e1, d1 = a1[o1]
            e2, d2 = a2[o2]
            ps[i] = np.where(e1 >= 0, e1, e2)
            pd[i] = np.where(d1 >= 0, d1, d2)
        S = self.topo.num_channel_slots
        mcls = np.empty(B)
        step = max(1, 8_388_608 // max(S, 1))  # ~64 MB of rows per chunk
        for lo in range(0, B, step):
            hi = min(B, lo + step)
            out = np.zeros((hi - lo, S))
            self.router.link_loads_many(ps[lo:hi], pd[lo:hi], ev, out=out)
            mcls[lo:hi] = out.max(axis=1)
        self.evaluations += B
        return mcls

    # -- order determination -------------------------------------------------------
    def merge_order(self) -> np.ndarray:
        nb = len(self.blocks)
        cfg = self.config
        scores = np.zeros((nb, nb))
        for b1 in range(nb):
            s1 = self.allowed_slots(b1)[0]
            for b2 in range(b1 + 1, nb):
                s2 = b2 if not cfg.reposition else self.allowed_slots(b2)[-1]
                if s2 == s1:
                    s2 = self.allowed_slots(b2)[0]
                if cfg.order_mode == "identity":
                    score = self.pair_mcl(b1, s1, 0, b2, s2, 0)
                else:  # sampled
                    cands = {(0, 0)}
                    for _ in range(ORDER_SAMPLES):
                        cands.add((
                            int(self.rng.integers(len(self.orients[b1]))),
                            int(self.rng.integers(len(self.orients[b2]))),
                        ))
                    score = float(
                        self.pair_mcl_batch(
                            b1, s1, b2, s2, list(cands)
                        ).min()
                    )
                scores[b1, b2] = scores[b2, b1] = score
        avg = scores.sum(axis=1) / max(nb - 1, 1)
        return np.argsort(-avg, kind="stable")

    # -- beam expansion ----------------------------------------------------------------
    def _intra_loads(self, bi, cands, denses, ies, ied, iev) -> np.ndarray:
        """(B, S) intra-block load rows for each (slot, oi) candidate.

        Rows are cached engine-level — intra loads are independent of the
        beam state — and missing rows are computed in one batched scatter
        (bitwise-equal to per-candidate ``link_loads`` into zeros).
        """
        S = self.topo.num_channel_slots
        istack = np.empty((len(cands), S))
        missing: list[tuple[int, int, int]] = []
        midx: list[int] = []
        for ci, (slot, oi) in enumerate(cands):
            key = (bi, slot, oi)
            cached = self._intra_cache.get(key)
            if cached is not None:
                istack[ci] = cached
            else:
                missing.append(key)
                midx.append(ci)
        if missing:
            fresh = np.zeros((len(missing), S))
            if len(ies):
                ps = np.stack([denses[ci][ies] for ci in midx])
                pd = np.stack([denses[ci][ied] for ci in midx])
                self.router.link_loads_many(ps, pd, iev, out=fresh)
            for row, key, ci in zip(fresh, missing, midx):
                self._intra_cache[key] = row
                istack[ci] = row
            self.evaluations += len(missing)
        return istack

    def expand(self, state: _State, bi: int, placed_blocks) -> list[_State]:
        """All candidate states from adding block ``bi`` to ``state``.

        Candidates (slot x orientation) are scored in one batched pass:
        intra-block load rows come from the engine cache, then a single
        ``link_loads_many`` scatter adds every candidate's cross-block
        flows. Per-candidate results are bitwise-identical to the scalar
        per-candidate loop (the property suite pins this).
        """
        intra = (self.bsrc == bi) & (self.bdst == bi)
        ies, ied, iev = self.srcs[intra], self.dsts[intra], self.vols[intra]
        placed_src = np.isin(self.bsrc, placed_blocks)
        placed_dst = np.isin(self.bdst, placed_blocks)
        cross = ((self.bsrc == bi) & placed_dst) | (placed_src & (self.bdst == bi))
        ces, ced, cev = self.srcs[cross], self.dsts[cross], self.vols[cross]

        cands = [
            (slot, oi)
            for slot in self.allowed_slots(bi)
            if slot not in state.used_slots
            for oi in range(len(self.orients[bi]))
        ]
        out: list[_State] = []
        if not cands:
            return out
        denses = [self.positions_for(bi, slot, oi) for slot, oi in cands]
        loads2d = state.loads[None, :] + self._intra_loads(
            bi, cands, denses, ies, ied, iev
        )
        if len(ces):
            dces = np.stack([d[ces] for d in denses])
            dced = np.stack([d[ced] for d in denses])
            ps = np.where(dces >= 0, dces, state.positions[ces][None, :])
            pd = np.where(dced >= 0, dced, state.positions[ced][None, :])
            self.router.link_loads_many(ps, pd, cev, out=loads2d)
        self.evaluations += len(cands)
        mcls = loads2d.max(axis=1) if loads2d.shape[1] else None
        for ci, (slot, oi) in enumerate(cands):
            dense = denses[ci]
            pos = state.positions.copy()
            sel = dense >= 0
            pos[sel] = dense[sel]
            mcl = float(mcls[ci]) if mcls is not None else 0.0
            out.append(_State(
                loads2d[ci], pos, state.used_slots | {slot}, mcl, self.seq
            ))
            self.seq += 1
        return out

    def top_n(self, states: list[_State]) -> list[_State]:
        states.sort(key=lambda s: (s.mcl, s.order))
        return states[: self.config.beam_width]

    def empty_state(self) -> _State:
        return _State(
            np.zeros(self.topo.num_channel_slots),
            np.full(self.num_clusters, -1, dtype=np.int64),
            frozenset(), 0.0, -1,
        )

    # -- driver --------------------------------------------------------------
    def run(self) -> MergeOutcome:
        blocks = self.blocks
        if len(blocks) == 1:
            dense = self.positions_for(0, 0, 0)
            loads = self.router.link_loads(
                dense[self.srcs], dense[self.dsts], self.vols
            )
            self.evaluations += 1
            mcl = float(loads.max()) if loads.size else 0.0
            return MergeOutcome(
                positions={int(c): int(dense[c]) for c in blocks[0].clusters},
                mcl=mcl, evaluations=self.evaluations,
                orientations=[self.orients[0][0]],
            )

        order = self.merge_order()
        placed: list[int] = []
        states = [self.empty_state()]
        beam_hist = get_registry().histogram("merge.beam_candidates")
        # Keeping *all* first-block orientations (no pruning at step 0)
        # reproduces the paper's exhaustive first-pair exploration: the
        # first block's orientations all tie on MCL, so pruning there would
        # arbitrarily discard pair candidates. Repositioning multiplies the
        # branching, so it prunes every step instead (bounded search).
        for step, bi in enumerate(order):
            bi = int(bi)
            prune = self.config.reposition or step != 0
            new_states: list[_State] = []
            for st in states:
                new_states.extend(self.expand(st, bi, placed))
                if prune and len(new_states) > max(
                    4096, 8 * self.config.beam_width
                ):
                    # top-N selection commutes with chunking; this only
                    # bounds memory, never changes the result.
                    new_states = self.top_n(new_states)
            beam_hist.record(len(new_states))
            states = self.top_n(new_states) if prune else new_states
            if prune:
                # Surviving loads are rows (views) of per-expand batch
                # buffers; detach them so pruned siblings' buffers free.
                for st in states:
                    if st.loads.base is not None:
                        st.loads = st.loads.copy()
            placed.append(bi)
        states = self.top_n(states)
        best = states[0]
        positions = {
            int(c): int(best.positions[c]) for b in blocks for c in b.clusters
        }
        return MergeOutcome(
            positions=positions, mcl=best.mcl, evaluations=self.evaluations,
        )


def merge_blocks(
    topo: CartesianTopology,
    router: Router,
    blocks: list[MergeBlock],
    srcs: np.ndarray,
    dsts: np.ndarray,
    vols: np.ndarray,
    config: MergeConfig,
    num_clusters: int,
) -> MergeOutcome:
    """Merge ``blocks`` within ``topo``, minimizing MCL of the given flows.

    ``srcs``/``dsts`` are *cluster ids*; only flows with both endpoints
    inside the union of the blocks are evaluated (the rest belong to outer
    levels of the hierarchy).
    """
    outcome = _MergeEngine(
        topo, router, blocks, srcs, dsts, vols, config, num_clusters
    ).run()
    get_registry().counter("merge.evaluations").inc(outcome.evaluations)
    return outcome


def hierarchical_merge(
    topo: CartesianTopology,
    router: Router,
    cube_h: CubeHierarchy,
    node_graph: CommGraph,
    assignment: np.ndarray,
    config: MergeConfig,
    budget=None,
    degradation=None,
) -> tuple[np.ndarray, dict]:
    """Run phase 3 over the whole hierarchy, bottom-up.

    Parameters
    ----------
    assignment:
        Phase-2 placement (node-cluster -> node id); must be a bijection.
    budget / degradation:
        Optional :class:`~repro.resilience.Budget` and
        :class:`~repro.resilience.DegradationLog`. When the budget runs
        out mid-merge the remaining parent merges are skipped — the
        incoming (phase-2) arrangement is kept for them, i.e. a first-fit
        orientation — and one degradation event is recorded.

    Returns
    -------
    (new_assignment, stats) where stats counts evaluations and cache hits.
    """
    V = topo.num_nodes
    if len(assignment) != V or len(np.unique(assignment)) != V:
        raise ConfigError("assignment must be a bijection of clusters onto nodes")
    assignment = assignment.copy()
    stats = {"evaluations": 0, "cache_hits": 0, "levels": {}}
    cache: dict[tuple, dict[int, np.ndarray]] = {}

    if budget is not None and budget.enforce("phase3"):
        if degradation is not None:
            degradation.record("phase3", "merge->first-fit",
                               "budget-exhausted", level=2)
        stats["degraded"] = True
        return assignment, stats

    for level in range(2, cube_h.num_levels + 1):
        if budget is not None and budget.enforce("phase3"):
            if degradation is not None:
                degradation.record("phase3", "merge->first-fit",
                                   "budget-exhausted", level=level)
            stats["degraded"] = True
            break
        inv = np.empty(V, dtype=np.int64)
        inv[assignment] = np.arange(V)
        level_mcls = []
        for pb in range(cube_h.num_blocks(level)):
            if budget is not None and pb and budget.enforce("phase3"):
                # Mid-level exhaustion: the parents already merged keep
                # their searched orientations, the rest keep phase-2's
                # arrangement — still bijective (merges only permute
                # within their own parent block).
                if degradation is not None:
                    degradation.record("phase3", "merge->first-fit",
                                       "budget-exhausted",
                                       level=level, parent=pb)
                stats["degraded"] = True
                stats["levels"][level] = level_mcls
                return assignment, stats
            blocks, local_index = _parent_blocks(
                topo, cube_h, level, pb, assignment, inv
            )
            srcs, dsts, vols = node_graph.srcs, node_graph.dsts, node_graph.vols
            sig = _merge_signature(level, blocks, local_index,
                                   srcs, dsts, vols)
            cached = cache.get(sig)
            parent_origin = _parent_origin(topo, cube_h, level, pb)
            if cached is not None:
                stats["cache_hits"] += 1
                get_registry().counter("merge.cache_hits").inc()
                for local, rel in cached.items():
                    cluster = local_index[local]
                    assignment[cluster] = int(topo.index(parent_origin + rel))
                continue
            cfg = replace(config, seed=config.seed + 1009 * level + pb)
            with span("rahtm.merge.block", level=level, parent=pb) as msp:
                outcome = merge_blocks(
                    topo, router, blocks, srcs, dsts, vols, cfg,
                    num_clusters=node_graph.num_tasks,
                )
                msp.set(mcl=outcome.mcl, evaluations=outcome.evaluations)
            stats["evaluations"] += outcome.evaluations
            level_mcls.append(outcome.mcl)
            rel_by_local = {}
            cluster_to_local = {int(c): i for i, c in enumerate(local_index)}
            for cluster, node in outcome.positions.items():
                assignment[cluster] = node
                rel = topo.coords(node) - parent_origin
                rel_by_local[cluster_to_local[cluster]] = rel
            cache[sig] = rel_by_local
        stats["levels"][level] = level_mcls
    return assignment, stats


def _parent_origin(topo, cube_h, level, pb) -> np.ndarray:
    nodes = cube_h.block_nodes(level, pb)
    return topo.coords(int(nodes[0]))


def _parent_blocks(topo, cube_h, level, pb, assignment, inv):
    """Child MergeBlocks of a parent, plus the canonical local cluster order.

    ``local_index[i]`` is the global cluster id of canonical local index
    ``i`` (children in corner order, clusters in within-child C order).
    """
    branching = 2**cube_h.n
    blocks = []
    local_index: list[int] = []
    for corner in range(branching):
        origin = cube_h.corner_origin(level, pb, corner)
        node0 = int(topo.index(origin))
        child_block = cube_h.block_of(node0, level - 1)
        child_nodes = cube_h.block_nodes(level - 1, int(child_block))
        clusters = inv[child_nodes]
        coords = topo.coords(assignment[clusters]) - origin[None, :]
        side = 2 ** (level - 1)
        shape = tuple(
            side if d in cube_h.dims else topo.shape[d]
            for d in range(topo.ndim)
        )
        blocks.append(MergeBlock(
            origin=origin, shape=shape,
            clusters=clusters.copy(), local_coords=coords,
        ))
        local_index.extend(int(c) for c in clusters)
    return blocks, np.asarray(local_index, dtype=np.int64)


def _merge_signature(level, blocks, local_index, srcs, dsts, vols) -> tuple:
    """Canonical key of a parent merge problem for symmetry copying."""
    lookup = {int(c): i for i, c in enumerate(local_index)}
    edges = []
    for s, d, v in zip(srcs, dsts, vols):
        ls, ld = lookup.get(int(s)), lookup.get(int(d))
        if ls is not None and ld is not None and ls != ld:
            edges.append((ls, ld, round(float(v), 9)))
    coords_sig = tuple(
        tuple(map(int, row)) for b in blocks for row in b.local_coords
    )
    return (level, tuple(b.shape for b in blocks), coords_sig,
            tuple(sorted(edges)))
