#!/usr/bin/env python
"""Emit a schema-versioned benchmark snapshot for the CI perf gate.

Runs the standard mapper x benchmark grid (``repro.experiments.runner``)
at one scale, collects per-cell mapping quality (MCL — deterministic)
and timing (map seconds + RAHTM per-phase wall times — noisy), and
writes one JSON document::

    {
      "schema": 1,
      "scale": "tiny",
      "repeats": 3,
      "pr": "PR4",                                      # trajectory label
      "phases": {"phase1-concentration": 0.012, ...},   # min over repeats
      "peak_rss_mb": 162.4,                             # maxrss after the grid
      "cells": {"BT": {"RAHTM": {"mcl": ..., "map_seconds": ...,
                                 "hotspot": {"slot": ..., "label": ...,
                                             "load": ...}}, ...}},
      "serve": {"submit_to_done_seconds": ...,          # daemon micro-bench
                "cache_hit_submit_seconds": ...},
      "vectorized": {"stencil_accumulate_seconds": ..., # hot-path kernels
                     "orientation_batch_seconds": ...,
                     "merge_scoring_seconds": ...}
    }

Timings take the *minimum* over ``--repeat`` runs, the standard
noise-suppression trick for wall-clock benchmarks. Every cell's MCL is
also recomputed from its mapping by the plain per-offset loop of
``repro.routing.reference`` (an oracle independent of the optimized
routing kernels); the snapshot exits non-zero, naming the cell, unless
the two agree exactly. ``peak_rss_mb`` is the snapshot process's
``ru_maxrss`` once the grid is done; it is informational and no gate
reads it. The ``hotspot`` key
(the netview top-1 link per cell) is optional and deterministic: the
compare gate uses it to *explain* MCL drift when it happens. Committed
baselines form a trajectory — ``BENCH_PR3.json``, ``BENCH_PR4.json``, …
— at the repo root (legacy baselines live in ``benchmarks/``);
``benchmarks/compare_snapshots.py latest`` gates CI on the newest one
and can print the whole multi-PR trend.

Usage::

    PYTHONPATH=src python benchmarks/snapshot.py --scale tiny \
        --pr PR4 --out BENCH_PR4.json
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

SNAPSHOT_SCHEMA_VERSION = 1


def run_grid(scale_name: str, explain: dict | None = None) -> dict:
    """One pass over the grid; returns phases + per-cell numbers.

    ``explain`` (optional dict) collects each cell's compact netview
    summary — the full attribution picture behind the snapshot, written
    separately via ``--explain-out`` so the committed baseline stays
    small. Raises ``SystemExit`` naming the cell when the reference
    oracle's MCL differs from the reported one.
    """
    from repro.experiments.config import get_scale
    from repro.experiments.runner import (
        benchmark_workload_specs,
        default_mapper_configs,
    )
    from repro.observability.netview import netview_summary
    from repro.routing.minimal_adaptive import MinimalAdaptiveRouter
    from repro.routing.reference import reference_link_loads
    from repro.service.engine import MappingEngine
    from repro.service.jobs import (
        MappingJob,
        TopologySpec,
        WorkloadSpec,
    )

    scale = get_scale(scale_name)
    topo_spec = TopologySpec.from_topology(scale.topology())
    cells: dict[str, dict] = {}
    phases: dict[str, float] = {}
    # No cache: a snapshot that hit the store would report 0s timings.
    engine = MappingEngine(cache_dir=None)
    # The MCL oracle's router; its netview of each mapping also names the
    # hottest link, so the compare gate can explain drift, not just
    # detect it.
    oracle = MinimalAdaptiveRouter(topo_spec.build())
    for bench, workload in benchmark_workload_specs(scale).items():
        cells[bench] = {}
        graph = WorkloadSpec(workload, seed=0).build_graph()
        for label, config in default_mapper_configs(scale):
            job = MappingJob(
                topology=topo_spec,
                workload=WorkloadSpec(workload, seed=0),
                mapper=config,
            )
            result = engine.run_one(job)
            flows = result.mapping.network_flows(graph)
            mcl = float(reference_link_loads(oracle, *flows).max())
            if mcl != result.report.mcl:
                raise SystemExit(
                    f"MCL oracle: {bench}/{label} reports "
                    f"{result.report.mcl!r}, the reference router gives {mcl!r}"
                )
            cells[bench][label] = {
                "mcl": result.report.mcl,
                "map_seconds": result.map_seconds,
            }
            netview = netview_summary(oracle, result.mapping, graph)
            if netview["top"]:
                top = netview["top"][0]
                cells[bench][label]["hotspot"] = {
                    "slot": top["slot"],
                    "label": top["label"],
                    "load": top["load"],
                }
            if explain is not None:
                explain.setdefault(bench, {})[label] = netview
            for phase, seconds in (result.phase_seconds or {}).items():
                phases[phase] = phases.get(phase, 0.0) + seconds
    return {"phases": phases, "cells": cells}


def bench_serve(repeats: int) -> dict:
    """Daemon submit->result latency over real HTTP, min over repeats.

    Boots an in-process ``repro serve`` daemon on a throwaway cache and
    times the two paths a client actually feels: a *cold* submit (fresh
    spec, scheduled + mapped + result committed) polled to ``done``, and
    a *warm* resubmit of the same spec (idempotent join of the done job,
    one HTTP round trip). Each repeat uses a distinct workload seed so
    every cold run really executes the mapper.
    """
    import tempfile
    import threading
    import time

    from repro.serve import DaemonConfig, MappingDaemon, ServeClient
    from repro.service.jobs import (
        MapperConfig,
        MappingJob,
        TopologySpec,
        WorkloadSpec,
    )

    with tempfile.TemporaryDirectory(prefix="bench-serve-") as cache:
        daemon = MappingDaemon(
            DaemonConfig(cache_dir=cache, port=0, janitor_interval=0.0)
        )
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        try:
            if not daemon.ready.wait(15):
                raise SystemExit("serve bench: daemon never became ready")
            client = ServeClient(daemon.url, timeout=15)
            cold: list[float] = []
            warm: list[float] = []
            for seed in range(max(repeats, 1)):
                spec = MappingJob(
                    topology=TopologySpec((4, 4)),
                    workload=WorkloadSpec("halo2d:4x4", seed=seed),
                    mapper=MapperConfig.make("dimorder"),
                ).payload()
                start = time.perf_counter()
                code, doc = client.submit(spec)
                if code != 202:
                    raise SystemExit(f"serve bench: submit -> {code} {doc}")
                final = client.wait(doc["id"], timeout=60, poll=0.01)
                cold.append(time.perf_counter() - start)
                if final["state"] != "done":
                    raise SystemExit(
                        f"serve bench: job {final['state']}: {final.get('error')}"
                    )
                start = time.perf_counter()
                code, doc = client.submit(spec)
                warm.append(time.perf_counter() - start)
                if code != 200 or doc["state"] != "done":
                    raise SystemExit(
                        f"serve bench: resubmit not idempotent: {code} {doc}"
                    )
            return {
                "submit_to_done_seconds": min(cold),
                "cache_hit_submit_seconds": min(warm),
            }
        finally:
            daemon.stop("bench complete")
            thread.join(15)


def bench_vectorized(repeats: int) -> dict:
    """Hot-path kernel micro-benches, min over repeats.

    Times the three vectorized kernels the mapper spends its life in,
    on fixed seeded workloads sized to finish in well under a second:

    - ``stencil_accumulate_seconds`` — ``link_loads`` over 20k random
      flows on an 8x8x8 torus (the CSR expand + scatter-add path);
    - ``orientation_batch_seconds`` — ``apply_batch`` of the full B_4
      hyperoctahedral group over 4,096 coordinates;
    - ``merge_scoring_seconds`` — ``link_loads_many`` with 16 candidate
      rows x 2k flows on a 4^4 torus (the merge/stitch batch path).

    Warm-up runs first so stencil construction and pair-table builds are
    excluded — the committed numbers track the steady-state kernels the
    compare gate wants to watch.
    """
    import time

    import numpy as np

    from repro.core.orientation import all_orientations, apply_batch
    from repro.routing.minimal_adaptive import MinimalAdaptiveRouter
    from repro.topology.cartesian import CartesianTopology

    def best(fn) -> float:
        times = []
        for _ in range(max(repeats, 1)):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    rng = np.random.default_rng(0)

    topo = CartesianTopology((8, 8, 8), wrap=True)
    router = MinimalAdaptiveRouter(topo)
    srcs = rng.integers(0, topo.num_nodes, size=20_000)
    dsts = rng.integers(0, topo.num_nodes, size=20_000)
    vols = rng.random(20_000)
    router.link_loads(srcs, dsts, vols)  # warm stencils + pair tables
    accumulate = best(lambda: router.link_loads(srcs, dsts, vols))

    coords = rng.integers(0, 4, size=(4_096, 4))
    orients = all_orientations(4)
    apply_batch(orients, coords, (4, 4, 4, 4))  # warm
    orientation = best(lambda: apply_batch(orients, coords, (4, 4, 4, 4)))

    topo4 = CartesianTopology((4, 4, 4, 4), wrap=True)
    router4 = MinimalAdaptiveRouter(topo4)
    B, m = 16, 2_000
    bsrcs = rng.integers(0, topo4.num_nodes, size=(B, m))
    bdsts = rng.integers(0, topo4.num_nodes, size=(B, m))
    bvols = rng.random(m)
    S = topo4.num_channel_slots
    router4.link_loads_many(bsrcs, bdsts, bvols, np.zeros((B, S)))  # warm
    scoring = best(
        lambda: router4.link_loads_many(bsrcs, bdsts, bvols, np.zeros((B, S)))
    )

    return {
        "stencil_accumulate_seconds": accumulate,
        "orientation_batch_seconds": orientation,
        "merge_scoring_seconds": scoring,
    }


def merge_min(runs: list[dict]) -> dict:
    """Fold repeats: min for timings, first run's MCLs (deterministic)."""
    out = {
        "phases": dict(runs[0]["phases"]),
        "cells": {
            b: {m: dict(v) for m, v in row.items()}
            for b, row in runs[0]["cells"].items()
        },
    }
    for run in runs[1:]:
        for phase, seconds in run["phases"].items():
            out["phases"][phase] = min(out["phases"].get(phase, seconds), seconds)
        for bench, row in run["cells"].items():
            for label, cell in row.items():
                mine = out["cells"][bench][label]
                mine["map_seconds"] = min(mine["map_seconds"], cell["map_seconds"])
                if mine["mcl"] != cell["mcl"]:
                    raise SystemExit(
                        f"non-deterministic MCL for {bench}/{label}: "
                        f"{mine['mcl']} vs {cell['mcl']}"
                    )
    return out


def take_snapshot(
    scale: str, repeats: int, pr: str | None = None,
    explain: dict | None = None, serve: bool = True,
    vectorized: bool = True,
) -> dict:
    from repro.core.milp import clear_milp_memo

    runs = []
    for i in range(max(repeats, 1)):
        # Each repeat solves its MILPs afresh: served from the memo of
        # optimal solves, repeats 2 and up would time no solver at all.
        clear_milp_memo()
        # The explain artifact is identical across repeats (netviews are
        # deterministic): collect it on the first pass only.
        runs.append(run_grid(scale, explain=explain if i == 0 else None))
    merged = merge_min(runs)
    snap = {
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "scale": scale,
        "repeats": max(repeats, 1),
        "phases": {k: merged["phases"][k] for k in sorted(merged["phases"])},
        "cells": merged["cells"],
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if serve:
        snap["serve"] = bench_serve(repeats)
    if vectorized:
        snap["vectorized"] = bench_vectorized(repeats)
    if pr:
        snap["pr"] = str(pr)
    return snap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        default="tiny",
        help="experiment scale (default: tiny)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="runs to min-fold timings over (default: 3)",
    )
    parser.add_argument(
        "--pr",
        default=None,
        help="trajectory label stored in the snapshot (e.g. PR4)",
    )
    parser.add_argument(
        "--explain-out",
        default=None,
        help="also write the per-cell netview summaries (JSON) here",
    )
    parser.add_argument("--out", default="-", help="output path ('-' = stdout)")
    parser.add_argument(
        "--no-serve",
        action="store_true",
        help="skip the daemon submit->result latency micro-bench",
    )
    parser.add_argument(
        "--no-vectorized",
        action="store_true",
        help="skip the vectorized hot-path kernel micro-benches",
    )
    args = parser.parse_args(argv)
    explain: dict | None = {} if args.explain_out else None
    snap = take_snapshot(
        args.scale,
        args.repeat,
        pr=args.pr,
        explain=explain,
        serve=not args.no_serve,
        vectorized=not args.no_vectorized,
    )
    text = json.dumps(snap, indent=2, sort_keys=True) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
        print(f"snapshot written to {args.out}", file=sys.stderr)
    if args.explain_out:
        doc = {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "kind": "bench_explain",
            "scale": args.scale,
            "pr": args.pr,
            "cells": explain,
        }
        Path(args.explain_out).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"explain artifact written to {args.explain_out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
