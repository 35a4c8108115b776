#!/usr/bin/env python3
"""End-to-end benchmark: mapping quality, mapping time, serving latency.

Run from the root of a source checkout::

    python3 benchmarks/e2e/run.py --workload bgq-cg --seed 0 \\
        --seconds 30 --trace 0

prints a human summary on stderr and, as the last line of stdout, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, measured with tracing off; with ``--trace 1`` they
are its per-layer metrics, from a run with the layer wrappers installed.
Without ``--workload`` every workload runs in turn, one JSON line each.
A failed output check makes the exit code 1; a directory without the
program's ``src/`` makes it 2. ``--out FILE --set NAME``
also appends each run to a result set that ``compare.py`` reads.
``--smoke`` shrinks every workload to a seconds-long check.

See README.md for the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

from common import ROOT, WORK, require_source
from speed import SpeedProbe


def build_workloads(smoke: bool) -> dict:
    from mappers import MapperWorkload
    from serving import ServeWorkload

    if smoke:
        return {
            "bgq-cg": MapperWorkload("cg:256:D", (4, 4, 2), "paper-ci"),
            "small-milp": MapperWorkload("cg:8:C", (2, 2, 2), "small"),
            "serve-local": ServeWorkload(),
        }
    return {
        # CG class D on a quarter of the paper's BG/Q partition; the
        # arity-2 E dimension forces partitioning and a stitch, which
        # takes most of the map as it does at paper scale.
        "bgq-cg": MapperWorkload("cg:2048:D", (4, 4, 4, 2), "paper-ci"),
        # One Table II MILP (8 clusters on a 2x2x2 cube) solved to the
        # gap: phase 2 is ~90% of the map and there is no stitch.
        "small-milp": MapperWorkload("cg:32:C", (2, 2, 2), "small"),
        "serve-local": ServeWorkload(),
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, spec: dict) -> dict:
    """One run of one workload: the benchmark's own result document."""
    import mappers
    import serving

    workload = build_workloads(smoke)[name]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    with SpeedProbe(work / "speed.txt") as probe:
        if isinstance(workload, mappers.MapperWorkload):
            result = mappers.run(workload, seed, seconds, trace, work)
        elif smoke:
            # A fixed request count instead of a window.
            result = serving.run(workload, seed, math.inf, trace, work,
                                 max_requests=24, setups=1)
        else:
            result = serving.run(workload, seed, seconds, trace, work)
    result["speed_factor"] = factor = probe.factor()
    if "e2e" in result:
        # Times at the reference machine's quiet-period speed (speed.py).
        result["measured_e2e"] = measured = result["e2e"]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        scale = {"s": factor, "1/s": 1 / factor}
        result["e2e"] = {name: value * scale.get(units.get(name), 1.0)
                         for name, value in measured.items()}
    # A failed run keeps its caches and daemon logs for inspection.
    if result["correct"]:
        shutil.rmtree(work, ignore_errors=True)
    return result


def output(result: dict, spec: dict, trace: bool) -> dict:
    """The result line: every listed metric, with its unit."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    measured = result.get("layers" if trace else "e2e", {})
    unknown = set(measured) - {m["name"] for m in listed}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    if trace:
        # Layers a workload never enters read 0 (see README.md).
        values = {m["name"]: measured.get(m["name"], 0.0) for m in listed}
    else:
        values = {m["name"]: measured[m["name"]] for m in listed
                  if m["name"] in measured}
    correct = result["correct"] and len(values) == len(listed) and all(
        math.isfinite(v) for v in values.values())
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]}
                    for m in listed if m["name"] in values},
    }


def describe(name: str, result: dict, doc: dict) -> None:
    print(f"{name}: correct={doc['correct']} attempted={doc['attempted']} "
          f"failed={doc['failed']} samples={result.get('samples')}"
          + "".join(f" {k}={result[k]}" for k in ("cold_samples",
                                                  "warm_samples")
                    if k in result)
          + f" speed_factor={result['speed_factor']:.4f}", file=sys.stderr)
    for error in result["errors"][:20]:
        print(f"  check failed: {error}", file=sys.stderr)
    measured = result.get("measured_e2e", {})
    for metric, cell in doc["metrics"].items():
        print(f"  {metric:40s} {cell['value']:.6g} {cell['unit']}"
              + (f" (measured {measured[metric]:.6g})"
                 if measured.get(metric, cell["value"]) != cell["value"]
                 else ""), file=sys.stderr)


def machine() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def append_result(path: str, set_name: str, entry: dict) -> None:
    """Add one run to set ``set_name`` of result-set file ``path``."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {"machine": machine(), "sets": {}}
    doc["sets"].setdefault(set_name, []).append(entry)
    # One run per line, so an appended run is a one-line diff.
    sets = ",\n".join(
        f" {json.dumps(name)}: [\n"
        + ",\n".join(f"  {json.dumps(run, sort_keys=True)}" for run in runs)
        + "]"
        for name, runs in doc["sets"].items())
    with open(path, "w") as fh:
        fh.write(f'{{"machine": {json.dumps(doc["machine"], sort_keys=True)},'
                 f'\n"sets": {{\n{sets}}}}}\n')


def main(argv=None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window per run (default: "
                             "BENCHMARK.json's run_seconds; 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1 prints the per-layer metrics of a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances and 24 serve requests")
    parser.add_argument("--out", help="append each run to this result set file")
    parser.add_argument("--set", default="default",
                        help="name of the set within --out")
    args = parser.parse_args(argv)

    require_source()
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    trace = bool(args.trace)
    names = [args.workload] if args.workload else workloads
    all_correct = True
    for name in names:
        started = time.time()
        result = run_workload(name, args.seed, seconds, trace, args.smoke,
                              spec)
        doc = output(result, spec, trace)
        describe(name, result, doc)
        all_correct &= doc["correct"]
        if args.out:
            append_result(args.out, args.set, {
                "workload": name, "seed": args.seed, "seconds": seconds,
                "trace": trace, "smoke": args.smoke, "started_unix": started,
                "samples": result.get("samples"), "errors": result["errors"],
                "speed_factor": result["speed_factor"],
                "measured": result.get("measured_e2e"),
                "raw": result.get("raw"), "result": doc,
            })
        print(json.dumps(doc if args.workload else {"workload": name, **doc}),
              flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
