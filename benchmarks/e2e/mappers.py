"""Mapper workloads: cold RAHTM maps of one fixed job, each in a fresh child.

One sample is one ``mapper_child.py`` process: set-up (interpreter,
imports, store) and a cold request that maps, scores and commits.
Samples run one after another until the measurement window closes. A
traced run alternates traced and untraced children, so the tracing
overhead is measured in the same run.

Warm requests come from a thread of the benchmark process, which
repeats the job against the first sample's store every
``WARM_INTERVAL_S`` for the rest of the window. A store hit takes under
a millisecond, and the machine's speed changes from second to second:
lookups spread over the window meet the same mix of fast and slow
moments that the maps, each seconds long, average over.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass

from common import (
    HERE,
    check_mapping,
    child_env,
    default_mcl,
    p50,
    rahtm_job,
    share,
)
from layers import KERNELS, PHASES, summarize

#: Wall-clock cap on one child; the largest sample maps in a few seconds.
CHILD_TIMEOUT_S = 120
#: Samples every run takes, however short its window.
MIN_SAMPLES = 3
#: Seconds between warm requests; they cost a running child about 1%
#: of a CPU.
WARM_INTERVAL_S = 0.05


@dataclass(frozen=True)
class MapperWorkload:
    """A RAHTM job: workload spec, torus shape, experiment-scale settings.

    The job is the same for every ``--seed``, RAHTM seed included, as the
    paper's benchmarks are fixed instances: its MCL is then one exact
    number that a change of the mapper may only keep or lower.
    """

    spec: str
    shape: tuple
    scale: str

    def job(self):
        return rahtm_job(self.spec, self.shape, self.scale)


def run_child(job, work, index: int, traced: bool) -> dict:
    """Spawn one sample process; returns its output document."""
    out = work / f"child{index}.json"
    request = {
        "job": job.payload(),
        "cache_dir": str(work / f"cache{index}"),
        "trace": traced,
        "out": str(out),
        "spans": str(work / f"spans{index}.jsonl"),
    }
    request_path = work / f"request{index}.json"
    request_path.write_text(json.dumps(request))
    spawned = time.monotonic()
    subprocess.run(
        [sys.executable, str(HERE / "mapper_child.py"), str(request_path),
         repr(spawned)],
        env=child_env(), check=True, timeout=CHILD_TIMEOUT_S,
        stdout=subprocess.DEVNULL,
    )
    doc = json.loads(out.read_text())
    with open(request["spans"]) as fh:
        # The first line is the tracer's meta row.
        doc["spans"] = [json.loads(line) for line in fh][1:]
    return doc


def send_warm(job, cache_dir, stop, lookups, errors) -> None:
    """Send ``job`` to a store that holds it every ``WARM_INTERVAL_S``
    until ``stop`` is set; appends ``(seconds, from_cache, MCL)``."""
    from repro.service.engine import MappingEngine

    try:
        engine = MappingEngine(cache_dir=cache_dir)
        while not stop.wait(WARM_INTERVAL_S):
            t0 = time.monotonic()
            result = engine.run_one(job)
            lookups.append((time.monotonic() - t0, result.from_cache,
                            result.report.mcl))
    except Exception as exc:  # reported as a failed check, not lost
        errors.append(f"warm request: {exc!r}")


def run(workload: MapperWorkload, seed: int, seconds: float, trace: bool,
        work) -> dict:
    del seed  # the job is fixed; see MapperWorkload
    job = workload.job()
    samples: list[dict | None] = []
    errors: list[str] = []
    warm: list[tuple] = []
    stop_warm = threading.Event()
    warm_thread = None
    start = time.monotonic()
    try:
        # A traced run alternates traced and untraced samples.
        while len(samples) < MIN_SAMPLES or time.monotonic() - start < seconds:
            i = len(samples)
            traced = trace and i % 2 == 0
            try:
                sample = run_child(job, work, i, traced)
            except (subprocess.SubprocessError, OSError, ValueError) as exc:
                errors.append(f"sample {i}: {exc}")
                sample = None
            else:
                sample.update(traced=traced,
                              layers=summarize(sample["spans"]))
                if warm_thread is None:
                    warm_thread = threading.Thread(target=send_warm, args=(
                        job, work / f"cache{i}", stop_warm, warm, errors))
                    warm_thread.start()
            samples.append(sample)
        loop_s = time.monotonic() - start
    finally:
        stop_warm.set()
        if warm_thread is not None:
            warm_thread.join()

    graph = job.workload.build_graph()
    topology = job.topology.build()
    ok = [s for s in samples if s is not None]
    attempted = len(samples) + len(warm)
    failed = len(samples) - len(ok)
    bad_warm = sum(not hit or mcl != ok[0]["mcl"] for _, hit, mcl in warm)
    if bad_warm:
        failed += bad_warm
        errors.append(f"{bad_warm} warm request(s) not a store hit with "
                      "the cold MCL")
    for i, s in enumerate(ok):
        problems = check_mapping(s["mapping"], graph, topology, s["mcl"])
        if s["cold_from_cache"]:
            problems.append("cold request was served from the store")
        if s["mcl"] != ok[0]["mcl"]:
            problems.append(f"MCL {s['mcl']!r} differs from {ok[0]['mcl']!r}, "
                            "the MCL of the same job in the first sample")
        if s["layers"]["milp.time_limited"]:
            problems.append(f"{s['layers']['milp.time_limited']} phase-2 "
                            "MILP solve(s) stopped short of optimal; the MCL "
                            "then depends on machine speed")
        failed += bool(problems)
        errors += [f"sample {i} cold: {p}" for p in problems]

    result = {"errors": errors, "samples": len(ok),
              "warm_samples": len(warm), "attempted": attempted,
              "failed": failed, "correct": not errors}
    if not ok or not warm:
        result["correct"] = False
        errors.append("the window completed no cold or no warm request")
        return result
    untraced = [s for s in ok if not s["traced"]] or ok
    raw = {k: [s[k] for s in untraced] for k in ("setup_s", "map_s", "cold_s")}
    raw["warm_s"] = [seconds for seconds, _, _ in warm]
    result["e2e"] = {
        "setup_s": p50([s["setup_s"] for s in ok]),
        "map_s": p50(raw["map_s"]),
        "mcl_ratio": ok[0]["mcl"] / default_mcl(graph, topology),
        "cold_p50_s": p50(raw["cold_s"]),
        "warm_p50_s": p50(raw["warm_s"]),
        # Fresh-process maps, start-up included, as `repro map` runs them.
        "jobs_per_s": len(ok) / loop_s,
        "peak_rss_mb": p50([s["peak_rss_mb"] for s in ok]),
    }
    result["raw"] = raw
    result["layers"] = layer_metrics(ok, sum(hit for _, hit, _ in warm))
    return result


def layer_metrics(samples: list[dict], warm_hits: int) -> dict:
    """Per-layer metrics from the traced samples (see README.md)."""
    traced = [s for s in samples if s["traced"]]
    if not traced:
        return {}
    untraced = [s for s in samples if not s["traced"]]
    n = len(traced)
    t, counters, phases = Counter(), Counter(), Counter()
    for s in traced:
        t.update(s["layers"])
        counters.update(s["counters"])
        for key, seconds in s["phase_seconds"].items():
            phases[PHASES[key]] += seconds
    map_s = sum(s["map_s"] for s in traced)
    cold_s = sum(s["cold_s"] for s in traced)
    timed = untraced or traced
    kernels = [f"routing.{k}" for k in KERNELS]
    out = {
        "engine.exec_p50_s": p50([s["cold_s"] for s in timed]),
        "engine.dispatch_p50_s": p50([s["cold_s"] - s["map_s"]
                                      for s in timed]),
        "job.build_share": share(t["job.build_s"], cold_s),
        "job.metrics_share": share(t["job.metrics_s"], cold_s),
        "routing.share": share(t["routing.busy_s"], map_s),
        "map.unexplained_frac": 1 - share(sum(phases.values()), map_s),
        "trace.overhead_frac": (
            p50([s["map_s"] for s in traced])
            / p50([s["map_s"] for s in untraced]) - 1 if untraced else 0.0),
        "milp.solves": t["milp.solves"] / n,
        "milp.time_limited": t["milp.time_limited"] / n,
        "greedy.calls": (t["pin.solved"] - t["milp.solves"]) / n,
        "pin.cache_hit_ratio": share(
            t["pin.cache_hits"], t["pin.cache_hits"] + t["pin.solved"]),
        "merge.evaluations": t["merge.evaluations"] / n,
        "merge.cache_hit_ratio": share(
            counters["merge.cache_hits"],
            counters["merge.cache_hits"] + t["merge.blocks"]),
        # The registry counts every merge_blocks call, stitch included.
        "stitch.evaluations": (counters["merge.evaluations"]
                               - t["merge.evaluations"]) / n,
        "refine.proposals": t["refine.proposals"] / n,
        "refine.proposals_per_s": share(t["refine.proposals"],
                                        t["refine.busy_s"]),
        "routing.flows_per_s": share(sum(t[f"{k}.flows"] for k in kernels),
                                     sum(t[f"{k}.busy_s"] for k in kernels)),
        "routing.link_loads.flows": t["routing.link_loads.flows"] / n,
        "routing.link_loads_many.rows": t["routing.link_loads_many.rows"] / n,
        # Every cold request is a miss.
        "store.hit_ratio": share(warm_hits, warm_hits + len(samples)),
        "store.put_failures": counters["store.put_failures"] / n,
        "store.quarantined": counters["store.quarantined"] / n,
        "executor.retries": counters["executor.retries"] / n,
    }
    for layer in set(PHASES.values()):
        busy, routing = phases[layer], t[f"{layer}.routing_s"]
        out[f"{layer}.share"] = share(busy, map_s)
        out[f"{layer}.self_share"] = share(busy - routing, map_s)
        out[f"{layer}.routing_share"] = share(routing, map_s)
    for kernel in kernels:
        out[f"{kernel}.calls"] = t[f"{kernel}.calls"] / n
    return out
