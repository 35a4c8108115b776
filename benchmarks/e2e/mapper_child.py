"""One sample of a mapper workload, in a fresh process.

Spawned by :func:`mappers.run_child` as::

    python mapper_child.py REQUEST.json SPAWN_MONOTONIC

Does what a ``repro map --cache-dir`` user gets from a fresh process:
imports the program, opens the result store, then sends the job
through :class:`~repro.service.engine.MappingEngine` as a cold request
that maps, scores and commits. The request runs under the program's
own tracer; a traced sample also gives the Router kernels spans.
Writes the timings, the returned mapping, its
reported MCL and the counters of the metrics registry to the request's
``out`` path, and the spans to its ``spans`` path as JSON lines.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(request_path: str, spawned: float) -> int:
    with open(request_path) as fh:
        request = json.load(fh)

    import layers
    from repro.mapping.serialize import mapping_to_dict
    from repro.observability.metrics import get_registry
    from repro.observability.trace import Tracer, activate
    from repro.service.engine import MappingEngine
    from repro.service.jobs import mapping_job_from_payload

    if request["trace"]:
        layers.wrap_router_kernels()
    job = mapping_job_from_payload(request["job"])
    engine = MappingEngine(cache_dir=request["cache_dir"])
    tracer = Tracer(run_id="e2e")
    ready = time.monotonic()

    with activate(tracer):
        cold = engine.run_one(job)
    cold_done = time.monotonic()

    out = {
        "setup_s": ready - spawned,
        "cold_s": cold_done - ready,
        "map_s": cold.map_seconds,
        "phase_seconds": cold.phase_seconds,
        "cold_from_cache": cold.from_cache,
        "mcl": cold.report.mcl,
        "mapping": mapping_to_dict(cold.mapping),
        "counters": {name: doc["value"]
                     for name, doc in get_registry().snapshot().items()
                     if doc["type"] == "counter"},
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tracer.write_jsonl(request["spans"])
    with open(request["out"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
