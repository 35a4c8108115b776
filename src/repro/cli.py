"""Command-line interface.

Subcommands::

    repro workload  --spec cg:256:C --out cg.npz
    repro map       --topology 4x4x4 --workload cg:256:C --mapper rahtm \\
                    --out mapping.npz
    repro evaluate  --topology 4x4x4 --workload cg:256:C --mapping mapping.npz
    repro compare   --topology 4x4x4 --workload cg:256:C \\
                    --mappers default,hilbert,rahtm
    repro experiment fig8 --scale tiny

Workload specs: ``bt:TASKS[:CLASS]``, ``sp:...``, ``cg:...``,
``halo2d:NXxNY[:VOL]``, ``halo3d:NXxNYxNZ[:VOL]``, ``random:TASKS:EDGES``,
``butterfly:TASKS``, ``transpose:SIDE``, ``ring:TASKS``,
``bisection:TASKS``, ``fft:RxC[:VOL]``, ``wavefront:RxC``,
``stencil27:NXxNYxNZ``, ``collective:NAME:TASKS``, or a path to a
``.npz``/``.json`` graph.

Mapper specs: ``rahtm``, ``default``, ``dimorder:ORDER`` (e.g.
``dimorder:TABC``), ``hilbert``, ``rubik``, ``rcb`` (recursive
bisection), ``anneal-hopbytes``, ``anneal-mcl``, ``random``.

``map``, ``compare`` and ``experiment`` run through the service engine
(``repro.service``): ``--jobs N`` fans independent cells out over worker
processes, ``--cache-dir DIR`` (or ``$REPRO_CACHE_DIR``) enables the
content-addressed result store, ``--no-cache`` bypasses it, and
``--job-timeout S`` bounds each job's wall clock.

Resilience (``repro.resilience``): ``--deadline S`` gives each mapping a
wall-clock budget RAHTM degrades gracefully under (``--on-deadline fail``
raises instead), ``--checkpoint-dir DIR`` persists phase-level state and
``--resume`` continues a killed run from it with zero repeat MILP solves.

Observability (``repro.observability``): ``--trace FILE`` records the
pipeline's span tree; a ``.jsonl`` target also gets a sibling
``.chrome.json`` loadable in ``chrome://tracing`` / Perfetto, any other
target is written in Chrome format directly. ``--metrics`` prints the
process-wide metrics registry (solver timings, cache traffic, beam
widths, degradations) after the command finishes.

Network introspection: ``repro explain`` decomposes a mapping's channel
loads into per-flow contributions and prints hotspot tables, load
statistics and text heatmaps (``--out`` writes the schema-versioned JSON
artifact). ``map --explain FILE`` and ``compare --explain FILE`` write
the same artifacts for the mappings they compute — ``compare`` includes
link-by-link diffs of every mapper against the first one. All artifact
flags (``--explain``/``--trace``/``--metrics``) flush even when the run
degrades or fails.

Daemon mode (``repro.serve``): ``repro serve --cache-dir DIR`` runs a
persistent daemon exposing the engine over an HTTP JSON API — idempotent
submits keyed by the spec's cache key, fair tenant queues with quotas,
graceful SIGTERM drain with automatic requeue on restart, and a periodic
doctor janitor. ``repro
submit/status/result/cancel`` are the matching client commands; they find
the daemon via ``--url``, ``$REPRO_SERVE_URL``, or the ``serve.json``
ready file in the cache directory; transient transport failures and 503s
are retried with full-jitter backoff (``--retries``). See
``docs/serve.md``.

Durability: cached artifacts are checksummed; corrupt entries are moved
to ``<cache-dir>/quarantine/`` with a structured report instead of being
silently dropped, and concurrent engines can safely share one cache
directory (advisory pid locks with stale-lock takeover). ``repro doctor
DIR`` fscks a cache or checkpoint directory — checksums, orphaned temp
files, stale locks, quarantine contents, drained-batch queues — and
``--repair`` fixes what it finds (``--out FILE`` writes the JSON
report; exit 0 = clean). A SIGTERM/SIGINT during a batch drains
gracefully: in-flight jobs finish, the unstarted remainder is recorded
in ``<cache-dir>/pending.json`` for resubmission.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

from repro.commgraph import save_commgraph
from repro.errors import ConfigError, ReproError
from repro.metrics import evaluate_mapping
from repro.observability import Tracer, activate, get_registry
from repro.service import (
    ExecutorConfig,
    JobRuntime,
    MappingEngine,
    MappingJob,
    TopologySpec,
    WorkloadSpec,
    mapper_config_from_spec,
)
from repro.service.jobs import MAPPER_SPEC_DEFAULTS, build_router
from repro.topology import CartesianTopology
from repro.utils.logconf import enable_console_logging
from repro.workloads.registry import parse_workload

__all__ = ["main", "parse_topology", "parse_workload", "build_mapper"]

#: ``repro experiment`` names, each a module of ``repro.experiments``
#: whose ``run`` takes the scale and the engine, the scale only, or
#: nothing.
_ENGINE_EXPERIMENTS = ("fig8", "fig9", "fig10")
_SCALED_EXPERIMENTS = ("table1", "opt_time")
EXPERIMENTS = (_ENGINE_EXPERIMENTS + _SCALED_EXPERIMENTS
               + ("fig1", "fig234", "fig7", "table2", "scaling"))


# -- spec parsing -------------------------------------------------------------------
def parse_topology(spec: str, mesh: bool = False) -> CartesianTopology:
    """Parse ``4x4x4`` (torus) into a topology; ``mesh=True`` drops wrap."""
    try:
        shape = tuple(int(p) for p in spec.lower().split("x"))
    except ValueError:
        raise ConfigError(f"bad topology spec {spec!r}; expected e.g. 4x4x4")
    return CartesianTopology(shape, wrap=not mesh)


def build_mapper(spec: str, topology: CartesianTopology, args=None) -> object:
    """Instantiate a mapper from its CLI spec (via the job-spec codec)."""
    return mapper_config_from_spec(spec, args).build(topology)


def _runtime_from_args(args) -> JobRuntime | None:
    """Translate ``--deadline/--on-deadline/--resume`` into a JobRuntime.

    Checkpointing activates with ``--resume``: state goes under
    ``--checkpoint-dir``, falling back to ``$REPRO_CHECKPOINT_DIR``, then
    to ``<cache-dir>/checkpoints`` when a cache directory is in play.
    """
    deadline = getattr(args, "deadline", None)
    on_deadline = getattr(args, "on_deadline", "degrade")
    resume = getattr(args, "resume", False)
    checkpoint_dir = (getattr(args, "checkpoint_dir", None)
                      or os.environ.get("REPRO_CHECKPOINT_DIR"))
    if checkpoint_dir is None and resume:
        cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
        if cache_dir:
            checkpoint_dir = str(Path(cache_dir) / "checkpoints")
        else:
            raise ConfigError(
                "--resume needs --checkpoint-dir, $REPRO_CHECKPOINT_DIR "
                "or a cache directory to derive one from"
            )
    trace = bool(getattr(args, "trace", None))
    if deadline is None and checkpoint_dir is None and not trace:
        return None
    return JobRuntime(
        deadline_seconds=deadline,
        on_deadline=on_deadline,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        trace=trace,
    )


@contextmanager
def _engine_from_args(args):
    """The mapping engine the subcommand submits through, closed (its
    workers stopped) when the block ends.

    Caching is on when ``--cache-dir`` (or ``$REPRO_CACHE_DIR``) names a
    directory and ``--no-cache`` is absent.
    """
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if args.no_cache:
        cache_dir = None
    engine = MappingEngine(
        cache_dir=cache_dir,
        runtime=_runtime_from_args(args),
        executor_config=ExecutorConfig(jobs=args.jobs,
                                       timeout=args.job_timeout),
    )
    try:
        yield engine
    finally:
        engine.close()


from repro.mapping import load_mapping as _load_mapping
from repro.mapping import save_mapping as _save_mapping


# -- subcommands ----------------------------------------------------------------------
def cmd_workload(args) -> int:
    graph = parse_workload(args.spec, seed=args.seed)
    save_commgraph(graph, args.out)
    print(f"wrote {graph} to {args.out}")
    return 0


def _mapping_job(args, topology: CartesianTopology, mapper_spec: str) -> MappingJob:
    return MappingJob(
        topology=TopologySpec.from_topology(topology),
        workload=WorkloadSpec(args.workload, seed=args.seed),
        mapper=mapper_config_from_spec(mapper_spec, args),
        router=args.router,
    )


def _build_explain_view(args, topology, mapping, graph):
    from repro.observability.netview import build_netview

    router = build_router(args.router, topology)
    return build_netview(
        router, mapping, graph,
        top_k=getattr(args, "top_k", 5),
        flows_per_link=getattr(args, "flows_per_link", 5),
        saturation=getattr(args, "saturation", False),
    )


def cmd_map(args) -> int:
    topology = parse_topology(args.topology, mesh=args.mesh)
    with _engine_from_args(args) as engine:
        result = engine.run_one(_mapping_job(args, topology, args.mapper))
    graph = parse_workload(args.workload, seed=args.seed)
    print(f"topology: {topology.describe()}")
    print(f"workload: {graph}")
    print(f"mapper:   {result.mapper_name}")
    print(f"quality:  {result.report}")
    if result.degraded:
        print("degraded: the deadline forced fallbacks —")
        for event in result.degradation:
            print(f"  - {event.get('phase')}: {event.get('action')} "
                  f"({event.get('reason')})")
    if args.explain:
        view = _build_explain_view(args, topology, result.mapping, graph)
        view.write_json(args.explain)
        print(f"explain artifact written to {args.explain}")
    if args.out:
        _save_mapping(Path(args.out), result.mapping)
        print(f"mapping saved to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    topology = parse_topology(args.topology, mesh=args.mesh)
    graph = parse_workload(args.workload, seed=args.seed)
    mapping = _load_mapping(Path(args.mapping), topology)
    router = build_router(args.router, topology)
    print(evaluate_mapping(router, mapping, graph))
    return 0


def cmd_compare(args) -> int:
    topology = parse_topology(args.topology, mesh=args.mesh)
    specs = [s.strip() for s in args.mappers.split(",") if s.strip()]
    jobs = [_mapping_job(args, topology, spec) for spec in specs]
    with _engine_from_args(args) as engine:
        outcomes = engine.run(jobs)
    from repro.experiments.report import Table

    table = Table(f"mapper comparison on {args.workload} @ {args.topology}")
    failures, succeeded = [], []
    for spec, outcome in zip(specs, outcomes):
        if not outcome.ok:
            failures.append(f"{spec}: {outcome.error}")
            continue
        result = outcome.result
        succeeded.append(result)
        table.set(result.mapper_name, "MCL", result.report.mcl)
        table.set(result.mapper_name, "hop_bytes", result.report.hop_bytes)
        table.set(result.mapper_name, "imbalance",
                  result.report.load_imbalance)
    print(table.to_text())
    if args.explain and succeeded:
        # Written before any failure is raised: a partial explanation of
        # a half-failed comparison is exactly what you debug with.
        _write_compare_explain(args, topology, succeeded)
    if failures:
        raise ReproError("mapper(s) failed: " + "; ".join(failures))
    return 0


def _write_compare_explain(args, topology, results) -> None:
    """One JSON artifact: a netview per mapper + diffs against the first."""
    import json

    from repro.observability.netview import (
        NETVIEW_SCHEMA_VERSION,
        diff_mappings,
    )

    graph = parse_workload(args.workload, seed=args.seed)
    router = build_router(args.router, topology)
    doc = {
        "schema": NETVIEW_SCHEMA_VERSION,
        "kind": "compare_explain",
        "workload": args.workload,
        "topology": {"shape": list(topology.shape),
                     "wrap": list(topology.wrap)},
        "router": args.router,
        "netviews": {},
        "diffs": [],
    }
    for result in results:
        view = _build_explain_view(args, topology, result.mapping, graph)
        doc["netviews"][result.mapper_name] = view.to_dict()
    base = results[0]
    for result in results[1:]:
        diff = diff_mappings(
            router, graph, base.mapping, result.mapping,
            label_a=base.mapper_name, label_b=result.mapper_name,
            phase_seconds_a=base.phase_seconds,
            phase_seconds_b=result.phase_seconds,
        )
        doc["diffs"].append(diff.to_dict())
        print(diff.summary_line())
    Path(args.explain).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )
    print(f"explain artifact written to {args.explain}")


def cmd_explain(args) -> int:
    """Explain a mapping's MCL: hotspots, attribution, heatmaps."""
    from repro.observability.netview import build_netview
    from repro.visualize import (
        link_heatmap_text,
        load_histogram_text,
        netview_text,
    )

    topology = parse_topology(args.topology, mesh=args.mesh)
    graph = parse_workload(args.workload, seed=args.seed)
    router = build_router(args.router, topology)
    if args.mapping:
        mapping = _load_mapping(Path(args.mapping), topology)
        source = f"mapping file {args.mapping}"
    else:
        with _engine_from_args(args) as engine:
            result = engine.run_one(_mapping_job(args, topology, args.mapper))
        mapping = result.mapping
        source = f"mapper {result.mapper_name}"
    view = build_netview(
        router, mapping, graph,
        top_k=args.top_k,
        flows_per_link=args.flows_per_link,
        saturation=args.saturation,
        link_bandwidth=args.link_bandwidth,
    )
    print(f"explaining {source} on {args.workload} @ {topology.describe()}")
    print(netview_text(view))
    loads = router.link_loads(*mapping.network_flows(graph))
    if topology.ndim >= 2:
        print(link_heatmap_text(topology, loads, dims=tuple(args.heatmap_dims)))
    print(load_histogram_text(router, mapping, graph))
    if args.out:
        view.write_json(args.out)
        print(f"explain artifact written to {args.out}")
    return 0


def cmd_doctor(args) -> int:
    """Fsck a cache/checkpoint directory; exit 0 only when clean."""
    import json

    from repro.service import diagnose

    report = diagnose(args.directory, repair=args.repair,
                      requeue=args.requeue)
    print(report.to_text())
    if args.requeue and report.pending is not None:
        jobs = report.pending.get("jobs", [])
        print(f"requeue: cleared pending.json carrying {len(jobs)} "
              "drained job(s):")
        for entry in jobs:
            print(f"  - {entry.get('key', '?')[:12]}  "
                  f"{entry.get('describe', '(no description)')}")
        print("resubmit them (repro submit / rerun the batch); completed "
              "jobs will hit the cache — or let a restarting `repro "
              "serve` pick them up automatically")
    if args.out:
        Path(args.out).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"doctor report written to {args.out}")
    return 0 if report.clean else 1


# -- daemon + client ------------------------------------------------------------------
def cmd_serve(args) -> int:
    """Run the persistent mapping daemon over a cache directory."""
    from repro.serve import DaemonConfig, MappingDaemon

    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        raise ConfigError(
            "repro serve needs --cache-dir (or $REPRO_CACHE_DIR): the "
            "store is where results, drained queues and the ready file "
            "live")
    config = DaemonConfig(
        cache_dir=cache_dir,
        host=args.host,
        port=args.port,
        executor_config=ExecutorConfig(jobs=args.jobs,
                                       timeout=args.job_timeout),
        batch_size=args.batch_size,
        tenant_quota=args.tenant_quota,
        janitor_interval=args.janitor_interval,
        checkpoint_dir=args.checkpoint_dir,
        span_log=args.span_log,
    )
    return MappingDaemon(config).run()


def _serve_client(args):
    from repro.serve import ServeClient, discover_url

    url = discover_url(args.url,
                       args.cache_dir or os.environ.get("REPRO_CACHE_DIR"))
    return ServeClient(url, timeout=args.http_timeout,
                       retries=args.retries)


def _print_job_doc(doc: dict) -> None:
    line = (f"job {doc.get('id', '?')[:12]}… state={doc.get('state')} "
            f"tenant={doc.get('tenant')}")
    if doc.get("from_cache"):
        line += " from_cache=True"
    if doc.get("wall_seconds") is not None:
        line += f" wall={doc['wall_seconds']:.3f}s"
    if doc.get("mcl") is not None:
        line += f" mcl={doc['mcl']:.6g}"
    if doc.get("error"):
        line += f" error={doc['error']}"
    print(line)


def cmd_submit(args) -> int:
    """Submit one mapping job to a running daemon (idempotent)."""
    topology = parse_topology(args.topology, mesh=args.mesh)
    job = MappingJob(
        topology=TopologySpec.from_topology(topology),
        workload=WorkloadSpec(args.workload, seed=args.seed),
        mapper=mapper_config_from_spec(args.mapper, args),
        router=args.router,
    )
    client = _serve_client(args)
    code, doc = client.submit(job.payload(), tenant=args.tenant,
                              deadline_seconds=args.deadline)
    if code not in (200, 202):
        raise ReproError(f"submit refused ({code}): "
                         f"{doc.get('error', doc)}")
    print(f"submitted as {doc['id']}")
    _print_job_doc(doc)
    if not args.wait:
        return 0
    doc = client.wait(doc["id"], timeout=args.wait_timeout, poll=args.poll)
    _print_job_doc(doc)
    return 0 if doc.get("state") == "done" else 2


def cmd_status(args) -> int:
    import json

    code, doc = _serve_client(args).status(args.job_id)
    if code != 200:
        raise ReproError(f"status failed ({code}): {doc.get('error', doc)}")
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _print_job_doc(doc)
    return 0


def cmd_result(args) -> int:
    import json

    code, doc = _serve_client(args).result(args.job_id)
    if code != 200:
        raise ReproError(f"result unavailable ({code}): "
                         f"{doc.get('error', doc)}")
    if args.out:
        Path(args.out).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"result written to {args.out}")
    else:
        report = doc.get("report", {})
        print(f"mapper:   {doc.get('mapper_name')}")
        print(f"mcl:      {report.get('mcl')}")
        print(f"hop_bytes: {report.get('hop_bytes')}")
        print(f"map_seconds: {doc.get('map_seconds')}")
    return 0


def cmd_cancel(args) -> int:
    code, doc = _serve_client(args).cancel(args.job_id)
    if code != 200:
        raise ReproError(f"cancel refused ({code}): "
                         f"{doc.get('error', doc)}")
    _print_job_doc(doc)
    return 0


def cmd_experiment(args) -> int:
    module = importlib.import_module(f"repro.experiments.{args.name}")
    with _engine_from_args(args) as engine:
        if args.name in _ENGINE_EXPERIMENTS:
            table = module.run(args.scale, engine=engine)
        elif args.name in _SCALED_EXPERIMENTS:
            table = module.run(args.scale)
        else:
            table = module.run()
    print(table.to_text())
    return 0


# -- parser --------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RAHTM (SC'14) reproduction: routing-aware task mapping",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="enable console logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def engine_opts(p):
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = serial in-process)")
        p.add_argument("--cache-dir",
                       help="content-addressed result cache directory "
                            "(default: $REPRO_CACHE_DIR if set)")
        p.add_argument("--no-cache", action="store_true",
                       help="bypass the result cache entirely")
        p.add_argument("--job-timeout", type=float, default=None,
                       help="per-job wall-clock budget in seconds")
        p.add_argument("--deadline", type=float, default=None,
                       help="wall-clock budget per mapping in seconds; "
                            "RAHTM degrades gracefully to always finish")
        p.add_argument("--on-deadline", choices=("degrade", "fail"),
                       default="degrade",
                       help="exhausted deadline: fall down the "
                            "degradation ladder (default) or fail the job")
        p.add_argument("--resume", action="store_true",
                       help="resume from phase-level checkpoints of a "
                            "previously killed run")
        p.add_argument("--checkpoint-dir",
                       help="phase-checkpoint directory (default: "
                            "$REPRO_CHECKPOINT_DIR, else "
                            "<cache-dir>/checkpoints)")
        p.add_argument("--trace", metavar="FILE", default=None,
                       help="record a pipeline trace; a .jsonl target "
                            "also gets a sibling .chrome.json for "
                            "chrome://tracing, other targets are written "
                            "in Chrome trace-event format")
        p.add_argument("--metrics", action="store_true",
                       help="print the process metrics registry after "
                            "the command")

    def common(p):
        p.add_argument("--topology", required=True,
                       help="torus shape, e.g. 4x4x4")
        p.add_argument("--mesh", action="store_true",
                       help="mesh instead of torus")
        p.add_argument("--workload", required=True,
                       help="workload spec or graph file")
        p.add_argument("--router", choices=("mar", "dor"), default="mar")
        d = MAPPER_SPEC_DEFAULTS
        p.add_argument("--seed", type=int, default=d["seed"])
        p.add_argument("--beam-width", type=int, default=d["beam_width"])
        p.add_argument("--max-orientations", type=int,
                       default=d["max_orientations"])
        p.add_argument("--milp-time-limit", type=float,
                       default=d["milp_time_limit"])
        p.add_argument("--milp-gap", type=float, default=d["milp_gap"])
        p.add_argument("--reposition", action="store_true")
        p.add_argument("--refine", type=int, default=d["refine"],
                       help="post-merge refinement proposals")
        p.add_argument("--anneal-iters", type=int, default=d["anneal_iters"])
        engine_opts(p)

    p = sub.add_parser("workload", help="generate and save a workload")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_workload)

    def explain_opts(p):
        p.add_argument("--top-k", type=int, default=5,
                       help="hottest links to report")
        p.add_argument("--flows-per-link", type=int, default=5,
                       help="top contributing flows per hotspot")
        p.add_argument("--saturation", action="store_true",
                       help="cross-check hotspots against the fluid "
                            "model's max-min fair link utilization")

    p = sub.add_parser("map", help="compute a mapping")
    common(p)
    p.add_argument("--mapper", default="rahtm")
    p.add_argument("--out", help="save mapping (.npz)")
    p.add_argument("--explain", metavar="FILE", default=None,
                   help="write the mapping's netview artifact (JSON)")
    explain_opts(p)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("evaluate", help="evaluate a saved mapping")
    common(p)
    p.add_argument("--mapping", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="compare several mappers")
    common(p)
    p.add_argument("--mappers", default="default,hilbert,rubik,rahtm")
    p.add_argument("--explain", metavar="FILE", default=None,
                   help="write per-mapper netviews + diffs vs the first "
                        "mapper (JSON)")
    explain_opts(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "explain",
        help="explain a mapping's MCL: hotspots, per-flow attribution",
    )
    common(p)
    p.add_argument("--mapper", default="rahtm",
                   help="mapper to run (ignored with --mapping)")
    p.add_argument("--mapping", default=None,
                   help="explain a saved mapping (.npz) instead of mapping")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the netview artifact (JSON)")
    p.add_argument("--link-bandwidth", type=float, default=1.8e9,
                   help="bytes/s per link for the saturation cross-check")
    p.add_argument("--heatmap-dims", type=int, nargs=2, default=(0, 1),
                   metavar=("D0", "D1"),
                   help="topology dims spanning the text heatmap")
    explain_opts(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "doctor",
        help="fsck a cache/checkpoint directory (checksums, orphaned "
             "temp files, stale locks, quarantine)",
    )
    p.add_argument("directory",
                   help="cache or checkpoint directory to diagnose")
    p.add_argument("--repair", action="store_true",
                   help="fix what can be fixed: quarantine corrupt "
                        "artifacts, evict stale schemas, remove orphaned "
                        "temp files and stale locks")
    p.add_argument("--requeue", action="store_true",
                   help="consume a drained-batch pending.json: print its "
                        "job specs (and carry them in --out) and clear "
                        "the file")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the full JSON doctor report")
    p.set_defaults(func=cmd_doctor)

    p = sub.add_parser(
        "serve",
        help="run the persistent mapping daemon (HTTP JSON API over "
             "a cache directory)",
    )
    p.add_argument("--cache-dir",
                   help="result store the daemon serves from "
                        "(default: $REPRO_CACHE_DIR)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (0 = pick a free port; the choice "
                        "lands in <cache>/serve.json)")
    p.add_argument("--jobs", type=int, default=1,
                   help="engine worker processes (the daemon never maps "
                        "on its own threads)")
    p.add_argument("--batch-size", type=int, default=4,
                   help="max jobs per engine batch")
    p.add_argument("--job-timeout", type=float, default=None,
                   help="per-attempt wall-clock budget in seconds")
    p.add_argument("--tenant-quota", type=int, default=64,
                   help="max queued jobs per tenant")
    p.add_argument("--janitor-interval", type=float, default=300.0,
                   help="seconds between doctor repair sweeps "
                        "(0 disables the janitor)")
    p.add_argument("--checkpoint-dir", default=None,
                   help="phase-checkpoint store for resumable mappers")
    p.add_argument("--backend", choices=("local",), default="local",
                   help="execution backend; the local process pool "
                        "(--jobs workers) is the only one")
    p.add_argument("--span-log", action="store_true",
                   help="stream the daemon's spans to "
                        "<cache>/telemetry/spans.jsonl with bounded "
                        "in-memory retention")
    p.set_defaults(func=cmd_serve)

    def client_opts(p):
        p.add_argument("--url", default=None,
                       help="daemon base URL (default: $REPRO_SERVE_URL, "
                            "else <cache-dir>/serve.json)")
        p.add_argument("--cache-dir",
                       help="cache directory of the target daemon, for "
                            "URL discovery (default: $REPRO_CACHE_DIR)")
        p.add_argument("--http-timeout", type=float, default=30.0,
                       help="per-request HTTP timeout in seconds")
        p.add_argument("--retries", type=int, default=2,
                       help="extra attempts after a transient transport "
                            "failure or 503 (full-jitter backoff; safe "
                            "because submits are idempotent)")

    p = sub.add_parser("submit",
                       help="submit a mapping job to a running daemon")
    p.add_argument("--topology", required=True,
                   help="torus shape, e.g. 4x4x4")
    p.add_argument("--mesh", action="store_true",
                   help="mesh instead of torus")
    p.add_argument("--workload", required=True,
                   help="workload generator spec (file-backed workloads "
                        "cannot travel over the API)")
    p.add_argument("--mapper", default="rahtm")
    p.add_argument("--router", choices=("mar", "dor"), default="mar")
    p.add_argument("--seed", type=int, default=MAPPER_SPEC_DEFAULTS["seed"])
    p.add_argument("--tenant", default=None,
                   help="fair-share tenant to bill this job to")
    p.add_argument("--deadline", type=float, default=None,
                   help="deadline-seconds the job maps under (it degrades "
                        "rather than overrun)")
    p.add_argument("--wait", action="store_true",
                   help="poll until the job reaches a terminal state")
    p.add_argument("--wait-timeout", type=float, default=None,
                   help="give up polling after this many seconds")
    p.add_argument("--poll", type=float, default=0.2,
                   help="poll interval while waiting")
    client_opts(p)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("status", help="show a submitted job's status")
    p.add_argument("job_id", help="job id (= the spec's cache key)")
    p.add_argument("--json", action="store_true",
                   help="print the full status document as JSON")
    client_opts(p)
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("result", help="fetch a completed job's result")
    p.add_argument("job_id", help="job id (= the spec's cache key)")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the full result payload as JSON")
    client_opts(p)
    p.set_defaults(func=cmd_result)

    p = sub.add_parser("cancel", help="cancel a queued job")
    p.add_argument("job_id", help="job id (= the spec's cache key)")
    client_opts(p)
    p.set_defaults(func=cmd_cancel)

    p = sub.add_parser("experiment", help="regenerate a paper figure/table")
    p.add_argument("name", choices=EXPERIMENTS,
                   help="the figure or table to regenerate")
    p.add_argument("--scale", default="tiny")
    engine_opts(p)
    p.set_defaults(func=cmd_experiment)
    return parser


def _write_trace(tracer: Tracer, target: str) -> None:
    """Export ``tracer`` to ``target`` (JSONL + Chrome, or Chrome only)."""
    path = Path(target)
    if path.suffix == ".jsonl":
        tracer.write_jsonl(path)
        chrome = path.with_suffix(".chrome.json")
        tracer.write_chrome(chrome)
        print(f"trace written to {path} (chrome://tracing: {chrome})")
    else:
        tracer.write_chrome(path)
        print(f"trace written to {path} (chrome trace-event format)")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error (exit 2) or --help (exit 0)
        return exc.code
    if args.verbose:
        enable_console_logging()
    trace_target = getattr(args, "trace", None)
    tracer = Tracer(run_id=args.command) if trace_target else None
    try:
        try:
            with activate(tracer) if tracer is not None else nullcontext():
                rc = args.func(args)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            rc = 2
    finally:
        # Trace and metrics flush in a finally block: even a command that
        # degraded, blew its deadline, or died on an unexpected exception
        # leaves its artifacts behind — a partial trace of a failing run
        # is exactly what you debug with.
        if tracer is not None:
            _write_trace(tracer, trace_target)
        if getattr(args, "metrics", False):
            print(get_registry().report())
    return rc


if __name__ == "__main__":
    sys.exit(main())
