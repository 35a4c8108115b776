"""Per-layer figures of one mapper sample, from the program's own spans.

Whenever a :class:`repro.observability.trace.Tracer` is active, the
program records a span per job step (``job.*``), per RAHTM phase
(``rahtm.*``) and per phase-2 MILP solve (``milp.solve``). The Router
kernels are the one layer without spans; :func:`wrap_router_kernels`
wraps ``Router.link_loads``, ``link_loads_many`` and ``pair_scatter``
with the program's :func:`~repro.observability.trace.span`.
:func:`summarize` folds one sample's span rows, as
:meth:`Tracer.write_jsonl` saves them, into per-layer totals.
"""

from __future__ import annotations

import functools
from collections import Counter

#: Layer of each ``phase_seconds`` key of a RAHTM result.
PHASES = {
    "phase1-concentration": "clustering",
    "phase1-partition": "clustering",
    "phase1-hierarchy": "clustering",
    "phase2-milp": "pin",
    "phase3-merge": "merge",
    "phase3-stitch": "stitch",
    "phase4-refine": "refine",
}
#: Layer of each phase span; the spans time the same code as PHASES.
PHASE_SPANS = {
    "rahtm.cluster": "clustering",
    "rahtm.partition": "clustering",
    "rahtm.hierarchy": "clustering",
    "rahtm.pseudo_pin": "pin",
    "rahtm.merge": "merge",
    "rahtm.stitch": "stitch",
    "rahtm.refine": "refine",
}
#: Router kernels; their time inside a phase is that phase's routing time.
KERNELS = ("link_loads", "link_loads_many", "pair_scatter")


def wrap_router_kernels() -> None:
    """Give each Router kernel call a ``routing.<kernel>`` span.

    Every kernel takes the flow sources first: one row of them, or for
    ``link_loads_many`` one row per candidate placement.
    """
    from repro.observability.trace import span
    from repro.routing.base import Router

    def wrap(kernel):
        original = getattr(Router, kernel)

        @functools.wraps(original)
        def traced(self, srcs, *args, **kwargs):
            with span(f"routing.{kernel}", rows=len(srcs),
                      flows=int(getattr(srcs, "size", len(srcs)))):
                return original(self, srcs, *args, **kwargs)

        setattr(Router, kernel, traced)

    for kernel in KERNELS:
        wrap(kernel)


def summarize(rows: list[dict]) -> Counter:
    """Per-layer totals over one sample's span rows.

    Keys: ``milp.solves``, ``milp.time_limited`` (solves whose status is
    not optimal), ``pin.solved``/``pin.cache_hits`` (phase-2
    subproblems), ``merge.blocks`` (block merges not answered by the
    merge cache) and their ``merge.evaluations``, ``refine.proposals``,
    ``refine.busy_s``, ``job.build_s``, ``job.metrics_s``; per kernel
    ``routing.<kernel>.calls``/``.flows``/``.rows``/``.busy_s``;
    ``routing.busy_s`` (kernel time inside the map) and
    ``<layer>.routing_s`` (kernel time inside each layer's phases). A
    kernel call inside another kernel call counts its time once.
    """
    by_id = {r["id"]: r for r in rows}
    out: Counter = Counter()
    for r in rows:
        name, attrs, seconds = r["name"], r["attrs"], r["wall_s"]
        if name == "milp.solve":
            out["milp.solves"] += 1
            out["milp.time_limited"] += attrs.get("status") != "optimal"
        elif name == "rahtm.pseudo_pin.level":
            out["pin.solved"] += attrs["solved"]
            out["pin.cache_hits"] += attrs["cache_hits"]
        elif name == "rahtm.merge.block":
            out["merge.blocks"] += 1
            out["merge.evaluations"] += attrs["evaluations"]
        elif name == "rahtm.refine":
            out["refine.proposals"] += attrs["iterations"]
            out["refine.busy_s"] += seconds
        elif name in ("job.build", "job.metrics"):
            out[f"{name}_s"] += seconds
        elif name.startswith("routing."):
            for key in ("calls", "flows", "rows"):
                out[f"{name}.{key}"] += 1 if key == "calls" else attrs[key]
            names = []
            parent = by_id.get(r["parent"])
            while parent is not None:
                names.append(parent["name"])
                parent = by_id.get(parent["parent"])
            if any(n.startswith("routing.") for n in names):
                continue
            out[f"{name}.busy_s"] += seconds
            if "rahtm.map" in names:
                out["routing.busy_s"] += seconds
            layer = next((PHASE_SPANS[n] for n in names if n in PHASE_SPANS),
                         None)
            if layer is not None:
                out[f"{layer}.routing_s"] += seconds
    return out
