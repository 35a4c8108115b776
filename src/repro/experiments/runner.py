"""Shared experiment runner: benchmarks x mappers -> timed comparison.

The mapper x benchmark grid is embarrassingly parallel and highly
cacheable, so the default path submits every cell as a
:class:`~repro.service.jobs.MappingJob` through a
:class:`~repro.service.engine.MappingEngine` (the caller's engine sets
parallelism, the content-addressed warm cache and resilience). Callers
that pass live mapper objects (``mappers=``) take the in-process serial
path instead — those objects are not expressible as job specs.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import ServiceError
from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.report import Table
from repro.metrics.core import evaluate_mapping
from repro.observability.netview import netview_summary
from repro.routing.minimal_adaptive import MinimalAdaptiveRouter
from repro.simulator.app import ApplicationModel, calibrate_compute
from repro.simulator.apps import (
    PAPER_COMM_FRACTIONS,
    bt_application,
    cg_application,
    sp_application,
)
from repro.simulator.network import NetworkModel
from repro.utils.logconf import get_logger

__all__ = ["MapperSpec", "ComparisonResult", "default_mapper_configs",
           "benchmark_apps", "benchmark_workload_specs", "run_comparison"]

log = get_logger("experiments.runner")


@dataclass(frozen=True)
class MapperSpec:
    """A labelled mapper factory (topology -> mapper)."""

    label: str
    factory: Callable

    def build(self, topology):
        return self.factory(topology)


def default_mapper_configs(scale: ExperimentScale):
    """The paper's Figure 8/10 line-up at this scale, as (label, config)
    pairs.

    Order: platform default first (everything is normalized to it), the
    two alternate dimension permutations, Hilbert, RHT, then RAHTM.
    """
    from repro.service.jobs import MapperConfig

    configs = [
        (order, MapperConfig.make("dimorder", order=order))
        for order in scale.dim_orders
    ]
    configs.append(("Hilbert", MapperConfig.make("hilbert")))
    configs.append(("RHT", MapperConfig.make("rubik")))
    configs.append(("RAHTM", MapperConfig.from_rahtm(scale.rahtm)))
    return configs


def benchmark_apps(scale: ExperimentScale) -> dict[str, ApplicationModel]:
    """The paper's three communication-heavy benchmarks (Table I)."""
    n = scale.num_tasks
    cls = scale.problem_class
    return {
        "BT": bt_application(n, cls),
        "SP": sp_application(n, cls),
        "CG": cg_application(n, cls),
    }


def benchmark_workload_specs(scale: ExperimentScale) -> dict[str, str]:
    """The Table I benchmarks as workload spec strings (job currency)."""
    n, cls = scale.num_tasks, scale.problem_class
    return {"BT": f"bt:{n}:{cls}", "SP": f"sp:{n}:{cls}", "CG": f"cg:{n}:{cls}"}


@dataclass
class ComparisonResult:
    """All raw numbers behind Figures 8, 9, 10 and the V-B discussion."""

    scale: ExperimentScale
    exec_seconds: Table
    comm_seconds: Table
    mcl: Table
    hop_bytes: Table
    mapping_seconds: Table
    comm_fraction: dict[str, float] = field(default_factory=dict)
    #: Compact per-cell netview summaries keyed by ``(benchmark, mapper)``,
    #: populated only on the engine path with ``netview=True``.
    netviews: dict[tuple[str, str], dict] = field(default_factory=dict)

    @property
    def default_label(self) -> str:
        return self.exec_seconds.col_labels[0]

    def normalized(self, table: Table, title: str) -> Table:
        """Each cell divided by the default mapper's cell (paper's Y axis)."""
        out = Table(title)
        base_col = table.col_labels[0]
        for r in table.row_labels:
            base = table.get(r, base_col)
            for c in table.col_labels:
                out.set(r, c, table.get(r, c) / base if base else float("nan"))
        out.add_geomean_row()
        return out


def _empty_result(scale: ExperimentScale) -> ComparisonResult:
    return ComparisonResult(
        scale=scale,
        exec_seconds=Table("execution time (s)"),
        comm_seconds=Table("communication time (s)"),
        mcl=Table("max channel load (bytes)"),
        hop_bytes=Table("hop-bytes"),
        mapping_seconds=Table("offline mapping time (s)"),
    )


def run_comparison(
    scale="small",
    mappers: list[MapperSpec] | None = None,
    *,
    mapper_configs=None,
    engine=None,
    netview: bool = False,
) -> ComparisonResult:
    """Run every benchmark under every mapper and collect all metrics.

    The first mapper is the platform default: applications are calibrated
    so its communication fraction matches the paper's Figure 9 values.

    Without live ``mappers`` objects, each cell is submitted as a job
    through ``engine`` (a :class:`~repro.service.engine.MappingEngine`,
    which sets parallelism, caching, deadlines and checkpoint/resume);
    without one, a serial uncached engine is built here and closed on
    return. ``netview=True`` additionally collects a compact per-cell
    network-introspection summary of each returned mapping into
    :attr:`ComparisonResult.netviews`. Passing live ``mappers`` objects
    keeps the legacy in-process serial path. Both paths run the
    :func:`benchmark_apps` of ``scale`` on the default
    :class:`~repro.simulator.network.NetworkParams`.
    """
    scale = get_scale(scale)
    if mappers is not None:
        return _run_comparison_serial(scale, mappers)
    owned = None  # an engine built here is closed here
    if engine is None:
        from repro.service.engine import MappingEngine

        engine = owned = MappingEngine()
    try:
        return _run_comparison_engine(
            scale, engine, mapper_configs or default_mapper_configs(scale),
            netview,
        )
    finally:
        if owned is not None:
            owned.close()


# -- engine path -----------------------------------------------------------------------
def _run_comparison_engine(
    scale: ExperimentScale, engine, mapper_configs, netview: bool,
) -> ComparisonResult:
    from repro.service.jobs import (
        MappingJob,
        NetworkSpec,
        TopologySpec,
        WorkloadSpec,
    )

    topo_spec = TopologySpec.from_topology(scale.topology())
    net_spec = NetworkSpec()
    app_specs = benchmark_workload_specs(scale)
    grid, job_list = [], []
    for bench_name, workload in app_specs.items():
        for label, config in mapper_configs:
            grid.append((bench_name, label))
            job_list.append(MappingJob(
                topology=topo_spec, workload=WorkloadSpec(workload),
                mapper=config, router="mar", network=net_spec,
            ))
    outcomes = engine.run(job_list)
    failures = [
        f"{bench}/{label}: {outcome.error}"
        for (bench, label), outcome in zip(grid, outcomes)
        if not outcome.ok
    ]
    if failures:
        raise ServiceError(
            "comparison cells failed: " + "; ".join(failures)
        )
    cells = {
        cell: outcome.result for cell, outcome in zip(grid, outcomes)
    }

    result = _empty_result(scale)
    labels = [label for label, _ in mapper_configs]
    default_label = labels[0]
    router = MinimalAdaptiveRouter(topo_spec.build()) if netview else None
    for bench_name, workload in app_specs.items():
        if netview:
            graph = WorkloadSpec(workload).build_application().comm_graph()
        default_cell = cells[(bench_name, default_label)]
        target = PAPER_COMM_FRACTIONS.get(bench_name, 0.5)
        # Same arithmetic as calibrate_compute + ApplicationModel.simulate,
        # factored over per-cell iteration communication times.
        compute_per_iter = (
            default_cell.iter_comm_seconds * (1.0 - target) / target
        )
        log.info("%s calibrated: comm fraction %.0f%% under %s",
                 bench_name, 100 * target, default_label)
        for label in labels:
            cell = cells[(bench_name, label)]
            comm = cell.iterations * cell.iter_comm_seconds
            compute = cell.iterations * compute_per_iter
            total = comm + compute
            result.exec_seconds.set(bench_name, label, total)
            result.comm_seconds.set(bench_name, label, comm)
            result.mcl.set(bench_name, label, cell.report.mcl)
            result.hop_bytes.set(bench_name, label, cell.report.hop_bytes)
            result.mapping_seconds.set(bench_name, label, cell.map_seconds)
            if netview:
                result.netviews[(bench_name, label)] = netview_summary(
                    router, cell.mapping, graph)
            if label == default_label:
                result.comm_fraction[bench_name] = (
                    comm / total if total else 0.0
                )
            log.info(
                "%s/%s: exec %.3fs comm %.3fs mcl %.3g "
                "(mapped in %.1fs%s)",
                bench_name, label, total, comm, cell.report.mcl,
                cell.map_seconds, ", cached" if cell.from_cache else "",
            )
    return result


# -- legacy in-process path ------------------------------------------------------------
def _run_comparison_serial(scale: ExperimentScale, mappers) -> ComparisonResult:
    topo = scale.topology()
    router = MinimalAdaptiveRouter(topo)
    network = NetworkModel(router)
    # One mapper instance per (mapper, topology), reused across benchmarks
    # (every mapper resets its per-call state inside map()).
    built = [spec.build(topo) for spec in mappers]

    result = _empty_result(scale)
    for bench_name, app in benchmark_apps(scale).items():
        graph = app.comm_graph()
        t0 = time.perf_counter()
        default_mapping = built[0].map(graph)
        default_map_secs = time.perf_counter() - t0
        target = PAPER_COMM_FRACTIONS.get(app.name, 0.5)
        app = calibrate_compute(app, default_mapping, network, target)
        log.info("%s calibrated: comm fraction %.0f%% under %s",
                 bench_name, 100 * target, mappers[0].label)
        for i, spec in enumerate(mappers):
            if i == 0:
                mapping, map_secs = default_mapping, default_map_secs
            else:
                t0 = time.perf_counter()
                mapping = built[i].map(graph)
                map_secs = time.perf_counter() - t0
            sim = app.simulate(mapping, network)
            rep = evaluate_mapping(router, mapping, graph)
            result.exec_seconds.set(bench_name, spec.label, sim.total_seconds)
            result.comm_seconds.set(bench_name, spec.label, sim.comm_seconds)
            result.mcl.set(bench_name, spec.label, rep.mcl)
            result.hop_bytes.set(bench_name, spec.label, rep.hop_bytes)
            result.mapping_seconds.set(bench_name, spec.label, map_secs)
            if i == 0:
                result.comm_fraction[bench_name] = sim.comm_fraction
            log.info(
                "%s/%s: exec %.3fs comm %.3fs mcl %.3g (mapped in %.1fs)",
                bench_name, spec.label, sim.total_seconds, sim.comm_seconds,
                rep.mcl, map_secs,
            )
    return result
