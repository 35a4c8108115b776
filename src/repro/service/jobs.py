"""Mapping jobs: declarative, hashable specs for one mapper x workload cell.

A :class:`MappingJob` captures *everything* needed to recompute a mapping
and its quality metrics — topology, workload, mapper configuration,
router, and (optionally) the network model for simulated communication
time — as plain data. Two properties follow:

- jobs are picklable, so the executor can farm them out to worker
  processes;
- jobs are content-addressable: :meth:`MappingJob.cache_key` is a stable
  SHA-256 over a canonical serialization (sorted keys, hex floats — see
  :mod:`repro.utils.hashing`), so independently constructed but equal
  specs hash equal and any field change changes the key.

:func:`execute_mapping_job` is the worker-side entry point; it returns a
JSON-ready payload that :class:`~repro.service.store.ResultStore` can
persist verbatim and :class:`JobResult` can rehydrate.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.core.rahtm import RAHTMConfig, RAHTMMapper
from repro.errors import ConfigError, ServiceError
from repro.mapping.mapping import Mapping
from repro.resilience import Budget, MapperCheckpoint
from repro.mapping.serialize import (
    mapping_from_dict,
    mapping_to_dict,
    report_from_dict,
    report_to_dict,
)
from repro.metrics.core import MappingReport, evaluate_mapping
from repro.observability.trace import Tracer, activate, active_tracer, span
from repro.routing.dor import DimensionOrderRouter
from repro.routing.minimal_adaptive import MinimalAdaptiveRouter
from repro.simulator.network import NetworkModel, NetworkParams
from repro.topology.cartesian import CartesianTopology
from repro.utils.hashing import stable_hash
from repro.workloads.registry import is_workload_file, parse_application, parse_workload

__all__ = [
    "SCHEMA_VERSION",
    "MAPPER_SPEC_DEFAULTS",
    "TopologySpec",
    "WorkloadSpec",
    "MapperConfig",
    "NetworkSpec",
    "MappingJob",
    "JobRuntime",
    "JobResult",
    "execute_mapping_job",
    "mapping_job_from_payload",
    "mapper_config_from_spec",
    "build_router",
]

#: Version of both the cache-key payload and the stored artifact schema.
#: Bump whenever either changes shape — old artifacts then miss cleanly.
#: v2: payloads carry ``phase_seconds`` (per-phase wall-time breakdown).
#: v3: entries come from RAHTM's mirror fold of arity-2 dimensions, which
#: changes every mixed-arity mapping; v2 entries would serve the old
#: partition-and-stitch result.
#: v4: refine draws its proposal stream up front, so the same RAHTM job
#: spec now maps differently wherever refine accepts a swap; v3 entries
#: would serve the old walk's mapping.
#: v5: RAHTM key payloads lose ``order_samples``, ``enforce_minimal`` and
#: ``fix_first`` (now fixed at their defaults), and the stored
#: ``resilience.budget`` loses the solver-call keys.
#: v6: phase 2 solves cubes of up to 8 vertices exactly under MAR by
#: enumeration instead of the Table II MILP, so the same RAHTM spec on a
#: shape with 8-vertex cubes now maps differently; v5 entries would serve
#: the MILP's placement.
#: v7: the stored ``resilience.budget`` loses its exhaustion-policy key: a
#: deadline always degrades.
SCHEMA_VERSION = 7

#: Defaults of the CLI's mapper tunables, keyed by argparse dest: the
#: ``repro map``/``compare``/``explain`` flags default to these, and
#: ``repro submit`` (which has none of those flags) takes them as they are.
MAPPER_SPEC_DEFAULTS = {
    "beam_width": 16,
    # The full hyperoctahedral group of a 2x2x2 block: a smaller cap lets
    # the answer on such shapes depend on which tied phase-2 optimum the
    # orientation sample reaches first.
    "max_orientations": 48,
    "milp_time_limit": 60.0,
    "milp_gap": 0.02,
    "reposition": False,
    "refine": 0,
    "anneal_iters": 5000,
    "seed": 0,
}


@dataclass(frozen=True)
class TopologySpec:
    """A Cartesian topology as data: shape + per-dimension wraparound."""

    shape: tuple[int, ...]
    wrap: tuple[bool, ...] = ()

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        wrap = self.wrap
        if isinstance(wrap, bool):
            wrap = (wrap,) * len(shape)
        wrap = tuple(bool(w) for w in wrap) or (True,) * len(shape)
        if len(wrap) != len(shape):
            raise ConfigError(
                f"wrap has {len(wrap)} entries for {len(shape)} dimensions"
            )
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "wrap", wrap)

    @classmethod
    def from_topology(cls, topology: CartesianTopology) -> "TopologySpec":
        return cls(tuple(topology.shape), tuple(topology.wrap))

    def build(self) -> CartesianTopology:
        return CartesianTopology(self.shape, wrap=self.wrap)

    def payload(self) -> dict:
        return {"shape": list(self.shape), "wrap": list(self.wrap)}


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload in the CLI spec grammar (or a graph-file path) + seed."""

    spec: str
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "spec", str(self.spec))
        object.__setattr__(self, "seed", int(self.seed))

    def build_graph(self):
        return parse_workload(self.spec, seed=self.seed)

    def build_application(self):
        return parse_application(self.spec, seed=self.seed)

    def payload(self) -> dict:
        out: dict = {"spec": self.spec, "seed": self.seed}
        # File-backed workloads are addressed by *content*, not by path:
        # editing the file must change the cache key.
        if is_workload_file(self.spec):
            digest = hashlib.sha256(Path(self.spec).read_bytes()).hexdigest()
            out["spec"] = Path(self.spec).name
            out["digest"] = digest
        return out


#: The spec parameters each baseline mapper kind takes; ``rahtm``'s are
#: checked by :class:`RAHTMConfig` itself.
_BASELINE_PARAMS = {
    "default": (),
    "dimorder": ("order",),
    "hilbert": (),
    "rubik": (),
    "rcb": ("seed",),
    "bisection": ("seed",),
    "anneal-hopbytes": ("iterations", "seed"),
    "anneal-mcl": ("iterations", "seed"),
    "random": ("seed",),
}


@dataclass(frozen=True)
class MapperConfig:
    """A mapper as data: kind + sorted ``(name, value)`` parameter pairs."""

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "kind", str(self.kind).lower())
        object.__setattr__(
            self,
            "params",
            tuple(sorted((str(k), v) for k, v in self.params)),
        )

    @classmethod
    def make(cls, kind: str, **params) -> "MapperConfig":
        return cls(kind, tuple(params.items()))

    @classmethod
    def from_rahtm(cls, config: RAHTMConfig) -> "MapperConfig":
        return cls.make("rahtm", **asdict(config))

    def param_dict(self) -> dict:
        return dict(self.params)

    def build(self, topology):
        """Instantiate the configured mapper bound to ``topology``.

        A parameter the kind does not take is an error: dropping it would
        store one mapping under two cache keys.
        """
        kind, p = self.kind, self.param_dict()
        if kind == "rahtm":
            return RAHTMMapper(topology, RAHTMConfig(**p))
        if kind not in _BASELINE_PARAMS:
            raise ConfigError(f"unknown mapper kind {self.kind!r}")
        unknown = sorted(set(p) - set(_BASELINE_PARAMS[kind]))
        if unknown:
            raise ConfigError(
                f"mapper {kind!r} does not take parameter(s) {unknown} "
                f"(it takes {list(_BASELINE_PARAMS[kind])})"
            )
        if kind in ("default", "dimorder"):
            from repro.baselines.dimorder import DimOrderMapper

            return DimOrderMapper(topology, p.get("order"))
        if kind == "hilbert":
            from repro.baselines.hilbert import HilbertMapper

            return HilbertMapper(topology)
        if kind == "rubik":
            from repro.baselines.rubik import RubikTilingMapper

            return RubikTilingMapper(topology)
        if kind in ("rcb", "bisection"):
            from repro.baselines.bisection import RecursiveBisectionMapper

            return RecursiveBisectionMapper(topology, seed=p.get("seed", 0))
        if kind in ("anneal-hopbytes", "anneal-mcl"):
            from repro.baselines.hopbytes import HopBytesMapper

            return HopBytesMapper(
                topology, kind.split("-", 1)[1],
                iterations=p.get("iterations", 5000), seed=p.get("seed", 0),
            )
        if kind == "random":
            from repro.baselines.random_map import RandomMapper

            return RandomMapper(topology, seed=p.get("seed", 0))

    def payload(self) -> dict:
        return {"kind": self.kind, "params": [list(kv) for kv in self.params]}


@dataclass(frozen=True)
class NetworkSpec:
    """The :class:`NetworkParams` constants as hashable job data."""

    link_bandwidth: float = 1.8e9
    hop_latency: float = 40e-9
    phase_overhead: float = 2e-6
    phase_overlap: float = 0.5

    def build(self) -> NetworkParams:
        return NetworkParams(**asdict(self))

    def payload(self) -> dict:
        return {k: float(v) for k, v in asdict(self).items()}


def build_router(name: str, topology):
    """Router factory shared by the CLI and the job worker."""
    if name == "dor":
        return DimensionOrderRouter(topology)
    if name == "mar":
        return MinimalAdaptiveRouter(topology)
    raise ConfigError(f"unknown router {name!r}; choose 'mar' or 'dor'")


@dataclass(frozen=True)
class MappingJob:
    """One unit of work: map a workload onto a topology and score it.

    When ``network`` is set the job additionally simulates one
    iteration's communication time under the mapping (the quantity the
    experiment runner aggregates into Figures 8-10); the mapper then maps
    the application's aggregate graph, exactly as the serial runner did.
    """

    topology: TopologySpec
    workload: WorkloadSpec
    mapper: MapperConfig
    router: str = "mar"
    network: NetworkSpec | None = None

    def payload(self) -> dict:
        """The canonical content-addressed description of this job."""
        return {
            "schema": SCHEMA_VERSION,
            "topology": self.topology.payload(),
            "workload": self.workload.payload(),
            "mapper": self.mapper.payload(),
            "router": self.router,
            "network": None if self.network is None else self.network.payload(),
        }

    def cache_key(self) -> str:
        return stable_hash(self.payload())

    def describe(self) -> str:
        return (f"{self.mapper.kind} on {self.workload.spec} @ "
                f"{'x'.join(map(str, self.topology.shape))}")


def mapping_job_from_payload(doc: dict) -> MappingJob:
    """Rebuild a :class:`MappingJob` from its :meth:`MappingJob.payload`.

    The inverse of the content-addressed serialization, used by the
    daemon's HTTP submit endpoint and the drained-batch requeue path.
    Round-trip is exact: ``mapping_job_from_payload(j.payload())``
    hashes equal to ``j``. File-backed workloads are stored by content
    digest, not path, so they cannot be reconstructed here and raise
    :class:`~repro.errors.ServiceError`.
    """
    try:
        topo = doc["topology"]
        workload = doc["workload"]
        mapper = doc["mapper"]
    except (KeyError, TypeError) as exc:
        raise ServiceError(f"malformed job spec: missing {exc}") from exc
    if "digest" in workload:
        raise ServiceError(
            "file-backed workload specs are content-addressed and cannot "
            "be reconstructed from a payload; submit the generator spec "
            "instead"
        )
    network = doc.get("network")
    try:
        return MappingJob(
            topology=TopologySpec(tuple(topo["shape"]),
                                  tuple(topo.get("wrap", ()))),
            workload=WorkloadSpec(workload["spec"],
                                  seed=workload.get("seed", 0)),
            mapper=MapperConfig(
                mapper["kind"],
                tuple((k, v) for k, v in mapper.get("params", [])),
            ),
            router=doc.get("router", "mar"),
            network=None if network is None else NetworkSpec(**network),
        )
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise ServiceError(f"malformed job spec: {exc}") from exc


@dataclass(frozen=True)
class JobRuntime:
    """*How* to run jobs, as opposed to *what* to compute.

    Execution policy — deadlines, degradation, resume — deliberately
    lives outside :class:`MappingJob` so it never leaks into
    :meth:`MappingJob.cache_key`: a job computed under a tight deadline
    must still hash equal to the same job computed at leisure.

    Attributes
    ----------
    deadline_seconds:
        Wall-clock budget for one job's ``map()`` call (None = no limit);
        on exhaustion the mapper falls down its fallback ladder and still
        returns a valid mapping.
    checkpoint_dir:
        Root of a :class:`~repro.service.store.ResultStore` for
        phase-level checkpoints (None disables checkpointing).
    resume:
        Load existing checkpoints before computing (saving is always on
        when ``checkpoint_dir`` is set).
    trace:
        Record a span tree for the job. In-process execution records into
        the caller's active tracer; pooled workers build a local tracer
        and ship the serialized tree back in the payload's ``trace`` key
        for the engine to graft (see
        :meth:`repro.observability.trace.Tracer.graft`).
    """

    deadline_seconds: float | None = None
    checkpoint_dir: str | None = None
    resume: bool = True
    trace: bool = False

    def __post_init__(self):
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigError("deadline_seconds must be > 0 (or None)")
        if self.checkpoint_dir is not None:
            object.__setattr__(self, "checkpoint_dir", str(self.checkpoint_dir))

    @property
    def active(self) -> bool:
        return (self.deadline_seconds is not None
                or self.checkpoint_dir is not None
                or self.trace)

    def budget(self) -> Budget | None:
        if self.deadline_seconds is None:
            return None
        return Budget(wall_seconds=self.deadline_seconds)

    def checkpoint(self, job_key: str) -> MapperCheckpoint | None:
        if self.checkpoint_dir is None:
            return None
        from repro.service.store import ResultStore

        return MapperCheckpoint(ResultStore(self.checkpoint_dir),
                                job_key=job_key, resume=self.resume)


def execute_mapping_job(job: MappingJob, runtime: JobRuntime | None = None) -> dict:
    """Worker-side job body: build, map, evaluate; return a JSON payload.

    ``runtime`` (optional) carries the resilience policy; it is applied
    only when the configured mapper advertises ``supports_resilience``
    (baseline mappers run exactly as before). With ``runtime.trace`` set
    and no tracer already active (i.e. in a pooled worker process), a
    local tracer records the job's span tree into the payload's
    ``trace`` key; the engine strips it before caching and grafts it
    into the batch trace.
    """
    key = job.cache_key()
    local_tracer: Tracer | None = None
    if runtime is not None and runtime.trace:
        active = active_tracer()
        # No tracer, or a fork-inherited one owned by the parent process
        # (its spans would never make it home): record locally and ship
        # the tree back in the payload.
        if active is None or active.pid != os.getpid():
            local_tracer = Tracer(run_id=key[:12])
    ctx = activate(local_tracer) if local_tracer is not None else nullcontext()
    with ctx:
        payload = _execute_mapping_job(job, runtime, key)
    if local_tracer is not None:
        payload["trace"] = local_tracer.to_dicts()
    return payload


def _execute_mapping_job(job: MappingJob, runtime: JobRuntime | None,
                         key: str) -> dict:
    with span("job.execute", key=key[:12], mapper=job.mapper.kind,
              workload=job.workload.spec):
        with span("job.build"):
            topology = job.topology.build()
            if job.network is not None:
                app = job.workload.build_application()
                graph = app.comm_graph()
            else:
                app = None
                graph = job.workload.build_graph()
            mapper = job.mapper.build(topology)
        map_kwargs = {}
        if runtime is not None and runtime.active \
                and getattr(mapper, "supports_resilience", False):
            budget = runtime.budget()
            checkpoint = runtime.checkpoint(key)
            if budget is not None:
                map_kwargs["budget"] = budget
            if checkpoint is not None:
                map_kwargs["checkpoint"] = checkpoint
        t0 = time.perf_counter()
        with span("job.map", mapper=getattr(mapper, "name", job.mapper.kind)):
            mapping = mapper.map(graph, **map_kwargs)
        map_seconds = time.perf_counter() - t0
        with span("job.metrics", router=job.router):
            router = build_router(job.router, topology)
            report = evaluate_mapping(router, mapping, graph)
        stats = getattr(mapper, "stats", {}) or {}
        degradation = list(stats.get("degradation", []))
        payload = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "job": job.payload(),
            "mapper_name": getattr(mapper, "name", job.mapper.kind),
            "map_seconds": map_seconds,
            "phase_seconds": dict(stats.get("phase_seconds", {})),
            "mapping": mapping_to_dict(mapping),
            "report": report_to_dict(report),
            "degradation": degradation,
            "degraded": bool(degradation),
        }
        if map_kwargs:
            payload["resilience"] = {
                "budget": stats.get("budget"),
                "checkpoint": stats.get("checkpoint"),
                "milp_solves": len(stats.get("milp", [])),
            }
        if app is not None:
            network = NetworkModel(router, job.network.build())
            with span("job.simulate"):
                payload["iter_comm_seconds"] = app.iteration_comm_time(
                    mapping, network
                )
            payload["iterations"] = app.iterations
    return payload


@dataclass
class JobResult:
    """A rehydrated job payload (from a fresh run or the result store)."""

    key: str
    mapper_name: str
    map_seconds: float
    mapping: Mapping
    report: MappingReport
    iter_comm_seconds: float | None = None
    iterations: int | None = None
    from_cache: bool = False
    degradation: list = None
    degraded: bool = False
    phase_seconds: dict = None

    @classmethod
    def from_payload(cls, payload: dict, from_cache: bool = False) -> "JobResult":
        try:
            return cls(
                key=payload["key"],
                mapper_name=payload["mapper_name"],
                map_seconds=float(payload["map_seconds"]),
                mapping=mapping_from_dict(payload["mapping"]),
                report=report_from_dict(payload["report"]),
                iter_comm_seconds=payload.get("iter_comm_seconds"),
                iterations=payload.get("iterations"),
                from_cache=from_cache,
                degradation=list(payload.get("degradation", [])),
                degraded=bool(payload.get("degraded", False)),
                phase_seconds=dict(payload.get("phase_seconds", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed job payload: {exc}") from exc


def mapper_config_from_spec(spec: str, args=None) -> MapperConfig:
    """Translate a CLI mapper spec (``dimorder:TABC``...) into a config.

    ``args`` is the CLI namespace carrying RAHTM/annealer tunables; any
    object with the same attributes works. A tunable it lacks (or every
    one, for ``args=None``) takes its :data:`MAPPER_SPEC_DEFAULTS` value.
    """
    kind, _, arg = spec.partition(":")
    kind = kind.lower()

    def opt(name):
        return getattr(args, name, MAPPER_SPEC_DEFAULTS[name])

    if kind == "rahtm":
        return MapperConfig.from_rahtm(RAHTMConfig(
            beam_width=opt("beam_width"),
            max_orientations=opt("max_orientations"),
            milp_time_limit=opt("milp_time_limit"),
            milp_rel_gap=opt("milp_gap"),
            reposition=opt("reposition"),
            refine_iterations=opt("refine"),
            seed=opt("seed"),
        ))
    if kind == "default":
        return MapperConfig.make("dimorder")
    if kind == "dimorder":
        return (MapperConfig.make("dimorder", order=arg) if arg
                else MapperConfig.make("dimorder"))
    if kind in ("hilbert", "rubik"):
        return MapperConfig.make(kind)
    if kind in ("rcb", "bisection"):
        return MapperConfig.make("rcb", seed=opt("seed"))
    if kind in ("anneal-hopbytes", "anneal-mcl"):
        return MapperConfig.make(
            kind, iterations=opt("anneal_iters"), seed=opt("seed")
        )
    if kind == "random":
        return MapperConfig.make("random", seed=opt("seed"))
    raise ConfigError(f"unknown mapper {spec!r}")
