"""Network introspection: hotspot reports, load stats, mapping diffs.

Everything RAHTM optimizes collapses into one scalar — the maximum
channel load — and this module answers the questions that scalar hides:
*which* links are hot, *which* flows (and task pairs) load them, how the
load distributes across dimensions and directions, and what changed
between two mappings. It sits on top of
:mod:`repro.observability.attribution` (the sparse flow x link matrix)
and cross-checks saturation against the fluid simulator's max-min fair
rates, so the per-link story is consistent with both load models.

Artifacts are schema-versioned JSON (:data:`NETVIEW_SCHEMA_VERSION`);
``kind`` distinguishes full net views (``"netview"``), compact payload
summaries (``"netview_summary"``) and mapping diffs (``"mapping_diff"``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ReproError
from repro.observability.attribution import FlowLinkAttribution, attribute_mapping

if TYPE_CHECKING:  # typing only, keeping the observability package import-light
    from repro.commgraph.graph import CommGraph
    from repro.mapping.mapping import Mapping
    from repro.routing.base import Router

__all__ = [
    "NETVIEW_SCHEMA_VERSION",
    "LinkRef",
    "FlowContribution",
    "LinkHotspot",
    "LoadStats",
    "DimensionLoad",
    "SaturationEstimate",
    "NetView",
    "MappingDiff",
    "build_netview",
    "diff_mappings",
    "netview_summary",
    "load_stats",
    "gini",
]

#: Version of every JSON artifact this module emits.
NETVIEW_SCHEMA_VERSION = 1

#: How many moved tasks a :class:`MappingDiff` lists by name.
MAX_MOVED_TASKS = 16


# -- link identity ---------------------------------------------------------------------
@dataclass(frozen=True)
class LinkRef:
    """A directed channel slot, resolved to human-readable coordinates."""

    slot: int
    src_node: int
    dst_node: int
    src_coords: tuple[int, ...]
    dim: int
    direction: str  # "+" or "-"

    @classmethod
    def from_slot(cls, topology, slot: int) -> "LinkRef":
        slot = int(slot)
        return cls(
            slot=slot,
            src_node=int(topology.channel_src[slot]),
            dst_node=int(topology.channel_dst[slot]),
            src_coords=tuple(
                int(x) for x in topology.coords_array[topology.channel_src[slot]]
            ),
            dim=int(topology.channel_dim[slot]),
            direction="+" if int(topology.channel_dir[slot]) == 0 else "-",
        )

    def label(self) -> str:
        coords = ",".join(map(str, self.src_coords))
        return f"({coords}) dim{self.dim}{self.direction}"


# -- per-link hotspot decomposition ----------------------------------------------------
@dataclass(frozen=True)
class FlowContribution:
    """One node-level flow's share of a hot link."""

    src_node: int
    dst_node: int
    volume: float
    contribution: float  # absolute load this flow puts on the link
    share: float  # contribution / link load
    task_pairs: list = field(default_factory=list)  # [(src_task, dst_task, vol)]


@dataclass(frozen=True)
class LinkHotspot:
    """One of the k hottest links and the flows that load it."""

    link: LinkRef
    load: float
    share_of_mcl: float
    share_of_total: float
    flows: list  # list[FlowContribution], descending contribution


@dataclass(frozen=True)
class LoadStats:
    """Distribution statistics over valid-channel loads."""

    mcl: float
    mean: float
    p50: float
    p95: float
    p99: float
    gini: float
    imbalance: float  # mcl / mean (1.0 == perfectly balanced)
    total_load: float
    num_channels: int
    zero_channels: int


@dataclass(frozen=True)
class DimensionLoad:
    """Load balance of one (dimension, direction) channel class."""

    dim: int
    direction: str
    max: float
    mean: float
    total: float


@dataclass(frozen=True)
class SaturationEstimate:
    """Max-min-fair saturation picture, cross-checked with the fluid model.

    ``utilization`` entries are per-link demand/capacity under the fluid
    simulator's progressive-filling rates
    (:func:`repro.simulator.fluid.max_min_fair_rates`); ``agrees`` is
    True when the MCL link is (one of) the fluid model's saturated
    bottlenecks — i.e. the MCL abstraction and the fluid model blame the
    same place.
    """

    link_bandwidth: float
    bottleneck: LinkRef
    bottleneck_utilization: float
    mcl_link_utilization: float
    saturated_links: int
    mcl_seconds: float  # phase time the MCL abstraction predicts
    agrees: bool


def gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative load vector (0 = equal)."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = len(x)
    total = float(x.sum())
    if n == 0 or total <= 0:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float(2.0 * (ranks * x).sum() / (n * total) - (n + 1) / n)


def load_stats(loads: np.ndarray, valid: np.ndarray) -> LoadStats:
    """Distribution statistics of ``loads`` over the ``valid`` mask."""
    sub = loads[valid]
    if sub.size == 0:
        return LoadStats(
            mcl=0.0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, gini=0.0,
            imbalance=0.0, total_load=0.0, num_channels=0, zero_channels=0,
        )
    mean = float(sub.mean())
    mcl = float(sub.max())
    p50, p95, p99 = (float(v) for v in np.percentile(sub, [50, 95, 99]))
    return LoadStats(
        mcl=mcl,
        mean=mean,
        p50=p50,
        p95=p95,
        p99=p99,
        gini=gini(sub),
        imbalance=mcl / mean if mean else 0.0,
        total_load=float(sub.sum()),
        num_channels=int(sub.size),
        zero_channels=int((sub == 0).sum()),
    )


def _dimension_loads(topology, loads: np.ndarray) -> list[DimensionLoad]:
    out: list[DimensionLoad] = []
    for d in range(topology.ndim):
        for direction, sign in ((0, "+"), (1, "-")):
            sel = (
                topology.channel_valid
                & (topology.channel_dim == d)
                & (topology.channel_dir == direction)
            )
            if not sel.any():
                continue
            sub = loads[sel]
            out.append(
                DimensionLoad(
                    dim=d,
                    direction=sign,
                    max=float(sub.max()),
                    mean=float(sub.mean()),
                    total=float(sub.sum()),
                )
            )
    return out


def _task_pairs(
    mapping: Mapping, graph: CommGraph, src_node: int, dst_node: int, limit: int
) -> list:
    """Heaviest task pairs behind one node-level flow (src_node->dst_node)."""
    if limit <= 0:
        return []
    t2n = mapping.task_to_node
    sel = (t2n[graph.srcs] == src_node) & (t2n[graph.dsts] == dst_node)
    idx = np.flatnonzero(sel)
    if len(idx) == 0:
        return []
    order = idx[np.argsort(-graph.vols[idx], kind="stable")][:limit]
    return [
        (int(graph.srcs[i]), int(graph.dsts[i]), float(graph.vols[i]))
        for i in order
    ]


def _hotspots(
    attribution: FlowLinkAttribution,
    loads: np.ndarray,
    mapping: Mapping | None,
    graph: CommGraph | None,
    top_k: int,
    flows_per_link: int,
    task_pairs_per_flow: int,
) -> list[LinkHotspot]:
    topo = attribution.router.topology
    valid = topo.channel_valid
    mcl = float(loads[valid].max()) if valid.any() else 0.0
    total = float(loads[valid].sum()) if valid.any() else 0.0
    valid_slots = np.flatnonzero(valid)
    order = valid_slots[np.argsort(-loads[valid], kind="stable")]
    hotspots: list[LinkHotspot] = []
    for slot in order[: max(top_k, 0)]:
        load = float(loads[slot])
        if load <= 0:
            break  # remaining links are idle; an empty tail is not a hotspot
        flow_idx, contribs = attribution.flows_through(int(slot))
        flows = []
        for i, contrib in zip(flow_idx[:flows_per_link], contribs):
            s_node = int(attribution.srcs[i])
            d_node = int(attribution.dsts[i])
            pairs = (
                _task_pairs(mapping, graph, s_node, d_node, task_pairs_per_flow)
                if mapping is not None and graph is not None
                else []
            )
            flows.append(
                FlowContribution(
                    src_node=s_node,
                    dst_node=d_node,
                    volume=float(attribution.vols[i]),
                    contribution=float(contrib),
                    share=float(contrib / load) if load else 0.0,
                    task_pairs=pairs,
                )
            )
        hotspots.append(
            LinkHotspot(
                link=LinkRef.from_slot(topo, int(slot)),
                load=load,
                share_of_mcl=load / mcl if mcl else 0.0,
                share_of_total=load / total if total else 0.0,
                flows=flows,
            )
        )
    return hotspots


def _saturation(
    attribution: FlowLinkAttribution,
    loads: np.ndarray,
    link_bandwidth: float,
) -> SaturationEstimate | None:
    from repro.simulator.fluid import max_min_fair_rates

    topo = attribution.router.topology
    valid = topo.channel_valid
    if attribution.num_flows == 0 or not valid.any():
        return None
    usage = attribution.usage_matrix()
    capacity = np.full(usage.shape[0], float(link_bandwidth))
    active = np.ones(attribution.num_flows, dtype=bool)
    rates = max_min_fair_rates(usage, capacity, active)
    utilization = np.asarray(usage @ rates).ravel() / capacity
    utilization[~valid] = 0.0
    bottleneck_slot = int(utilization.argmax())
    mcl_slot = int(np.flatnonzero(valid)[loads[valid].argmax()])
    tol = 1.0 - 1e-6
    mcl = float(loads[valid].max())
    return SaturationEstimate(
        link_bandwidth=float(link_bandwidth),
        bottleneck=LinkRef.from_slot(topo, bottleneck_slot),
        bottleneck_utilization=float(utilization[bottleneck_slot]),
        mcl_link_utilization=float(utilization[mcl_slot]),
        saturated_links=int((utilization >= tol).sum()),
        mcl_seconds=mcl / float(link_bandwidth) if link_bandwidth > 0 else 0.0,
        agrees=bool(utilization[mcl_slot] >= tol),
    )


# -- the full report -------------------------------------------------------------------
@dataclass(frozen=True)
class NetView:
    """The complete network-level explanation of one mapping's MCL."""

    router: str
    topology_shape: tuple[int, ...]
    topology_wrap: tuple[bool, ...]
    num_flows: int
    stats: LoadStats
    dimension_loads: list  # list[DimensionLoad]
    hotspots: list  # list[LinkHotspot]
    saturation: SaturationEstimate | None = None
    max_residual: float = 0.0

    @property
    def mcl(self) -> float:
        return self.stats.mcl

    def to_dict(self) -> dict:
        return {
            "schema": NETVIEW_SCHEMA_VERSION,
            "kind": "netview",
            "router": self.router,
            "topology": {
                "shape": list(self.topology_shape),
                "wrap": list(self.topology_wrap),
            },
            "num_flows": self.num_flows,
            "mcl": self.stats.mcl,
            "stats": asdict(self.stats),
            "dimension_loads": [asdict(d) for d in self.dimension_loads],
            "hotspots": [
                {
                    **asdict(h),
                    "link": {**asdict(h.link), "label": h.link.label()},
                }
                for h in self.hotspots
            ],
            "saturation": (
                None
                if self.saturation is None
                else {
                    **asdict(self.saturation),
                    "bottleneck": {
                        **asdict(self.saturation.bottleneck),
                        "label": self.saturation.bottleneck.label(),
                    },
                }
            ),
            "max_residual": self.max_residual,
        }

    def write_json(self, path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path


def build_netview(
    router: Router,
    mapping: Mapping,
    graph: CommGraph,
    top_k: int = 5,
    flows_per_link: int = 5,
    task_pairs_per_flow: int = 4,
    saturation: bool = False,
    link_bandwidth: float = 1.8e9,
) -> NetView:
    """Explain one mapping's channel loads end to end.

    ``saturation=True`` additionally runs one progressive-filling pass of
    the fluid model's max-min fair rates to estimate per-link utilization
    (opt-in: it costs one sparse matvec per freeze round).
    """
    attribution = attribute_mapping(router, mapping, graph)
    loads = attribution.channel_loads()
    topo = router.topology
    return NetView(
        router=getattr(router, "name", type(router).__name__),
        topology_shape=tuple(topo.shape),
        topology_wrap=tuple(topo.wrap),
        num_flows=attribution.num_flows,
        stats=load_stats(loads, topo.channel_valid),
        dimension_loads=_dimension_loads(topo, loads),
        hotspots=_hotspots(
            attribution, loads, mapping, graph,
            top_k, flows_per_link, task_pairs_per_flow,
        ),
        saturation=(
            _saturation(attribution, loads, link_bandwidth) if saturation else None
        ),
        max_residual=attribution.max_residual(),
    )


def netview_summary(
    router: Router,
    mapping: Mapping,
    graph: CommGraph,
    top_k: int = 3,
) -> dict:
    """Compact JSON-ready summary for job payloads and bench snapshots.

    Deliberately small (no per-flow task pairs, no saturation): it rides
    inside service payloads and snapshot cells, where a few hundred bytes
    per cell is the budget.
    """
    view = build_netview(
        router, mapping, graph,
        top_k=top_k, flows_per_link=0, task_pairs_per_flow=0,
    )
    return {
        "schema": NETVIEW_SCHEMA_VERSION,
        "kind": "netview_summary",
        "router": view.router,
        "mcl": view.stats.mcl,
        "p95": view.stats.p95,
        "p99": view.stats.p99,
        "gini": view.stats.gini,
        "imbalance": view.stats.imbalance,
        "num_flows": view.num_flows,
        "top": [
            {
                "slot": h.link.slot,
                "label": h.link.label(),
                "dim": h.link.dim,
                "direction": h.link.direction,
                "load": h.load,
                "share_of_total": h.share_of_total,
            }
            for h in view.hotspots
        ],
    }


# -- mapping diffs ---------------------------------------------------------------------
@dataclass(frozen=True)
class MappingDiff:
    """Link-by-link comparison of two mappings of the same graph.

    ``moved_load`` is half the L1 distance between the two load vectors —
    the volume-weighted amount of traffic that changed links.
    ``phase_seconds`` (optional) carries the per-phase wall-time
    attribution recorded by the PR 3 tracing spans for each side, so a
    diff artifact also says *which pipeline phase* paid for the change.
    """

    label_a: str
    label_b: str
    router: str
    topology_shape: tuple[int, ...]
    mcl_a: float
    mcl_b: float
    total_a: float
    total_b: float
    moved_load: float
    tasks_moved: int
    moved_tasks: list  # first few (task, node_a, node_b) triples
    hotspots_entered: list  # LinkRef dicts hot in b but not in a
    hotspots_left: list  # LinkRef dicts hot in a but not in b
    top_deltas: list  # [{link, load_a, load_b, delta}] by |delta|
    phase_seconds: dict | None = None

    @property
    def delta_mcl(self) -> float:
        return self.mcl_b - self.mcl_a

    def to_dict(self) -> dict:
        return {
            "schema": NETVIEW_SCHEMA_VERSION,
            "kind": "mapping_diff",
            "label_a": self.label_a,
            "label_b": self.label_b,
            "router": self.router,
            "topology": {"shape": list(self.topology_shape)},
            "mcl_a": self.mcl_a,
            "mcl_b": self.mcl_b,
            "delta_mcl": self.delta_mcl,
            "total_a": self.total_a,
            "total_b": self.total_b,
            "moved_load": self.moved_load,
            "tasks_moved": self.tasks_moved,
            "moved_tasks": [list(t) for t in self.moved_tasks],
            "hotspots_entered": self.hotspots_entered,
            "hotspots_left": self.hotspots_left,
            "top_deltas": self.top_deltas,
            "phase_seconds": self.phase_seconds,
        }

    def write_json(self, path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    def summary_line(self) -> str:
        arrow = "=" if self.delta_mcl == 0 else ("^" if self.delta_mcl > 0 else "v")
        return (
            f"{self.label_a} -> {self.label_b}: MCL {self.mcl_a:.6g} -> "
            f"{self.mcl_b:.6g} ({arrow}{abs(self.delta_mcl):.6g}), "
            f"moved load {self.moved_load:.6g}, tasks moved {self.tasks_moved}"
        )


def diff_mappings(
    router: Router,
    graph: CommGraph,
    mapping_a: Mapping,
    mapping_b: Mapping,
    label_a: str = "a",
    label_b: str = "b",
    top_k: int = 5,
    phase_seconds_a: dict | None = None,
    phase_seconds_b: dict | None = None,
) -> MappingDiff:
    """Compare two mappings of the same graph under the same router."""
    topo = router.topology
    if mapping_a.topology != mapping_b.topology:
        raise ReproError("mappings target different topologies")
    if mapping_a.num_tasks != mapping_b.num_tasks:
        raise ReproError("mappings place different task counts")
    loads_a = router.link_loads(*mapping_a.network_flows(graph))
    loads_b = router.link_loads(*mapping_b.network_flows(graph))
    valid = topo.channel_valid
    sub_a, sub_b = loads_a[valid], loads_b[valid]
    mcl_a = float(sub_a.max()) if sub_a.size else 0.0
    mcl_b = float(sub_b.max()) if sub_b.size else 0.0
    delta = loads_b - loads_a
    moved = np.flatnonzero(mapping_a.task_to_node != mapping_b.task_to_node)

    def top_slots(loads: np.ndarray) -> list[int]:
        slots = np.flatnonzero(valid)
        hot = slots[np.argsort(-loads[valid], kind="stable")][:top_k]
        return [int(s) for s in hot if loads[s] > 0]

    hot_a, hot_b = set(top_slots(loads_a)), set(top_slots(loads_b))

    def describe(slots) -> list[dict]:
        out = []
        for slot in sorted(slots):
            ref = LinkRef.from_slot(topo, slot)
            out.append({**asdict(ref), "label": ref.label()})
        return out

    delta_order = np.flatnonzero(valid)[
        np.argsort(-np.abs(delta[valid]), kind="stable")
    ][:top_k]
    top_deltas = []
    for slot in delta_order:
        if delta[slot] == 0:
            break
        ref = LinkRef.from_slot(topo, int(slot))
        top_deltas.append(
            {
                "link": {**asdict(ref), "label": ref.label()},
                "load_a": float(loads_a[slot]),
                "load_b": float(loads_b[slot]),
                "delta": float(delta[slot]),
            }
        )
    phases = None
    if phase_seconds_a or phase_seconds_b:
        phases = {
            "a": dict(phase_seconds_a or {}),
            "b": dict(phase_seconds_b or {}),
        }
    return MappingDiff(
        label_a=label_a,
        label_b=label_b,
        router=getattr(router, "name", type(router).__name__),
        topology_shape=tuple(topo.shape),
        mcl_a=mcl_a,
        mcl_b=mcl_b,
        total_a=float(sub_a.sum()) if sub_a.size else 0.0,
        total_b=float(sub_b.sum()) if sub_b.size else 0.0,
        moved_load=float(np.abs(delta[valid]).sum() / 2.0) if sub_a.size else 0.0,
        tasks_moved=int(len(moved)),
        moved_tasks=[
            (int(t), int(mapping_a.task_to_node[t]), int(mapping_b.task_to_node[t]))
            for t in moved[:MAX_MOVED_TASKS]
        ],
        hotspots_entered=describe(hot_b - hot_a),
        hotspots_left=describe(hot_a - hot_b),
        top_deltas=top_deltas,
        phase_seconds=phases,
    )
