"""repro — a full reproduction of RAHTM (SC'14).

RAHTM (Routing Algorithm aware Hierarchical Task Mapping) maps MPI
processes onto torus-network supercomputers by minimizing the maximum
channel load under the machine's (adaptive) routing algorithm, combining
tile-based clustering, per-level MILP mapping onto 2-ary n-cubes, and a
bottom-up orientation beam search.

Quickstart::

    from repro import RAHTMMapper, RAHTMConfig, torus
    from repro.workloads import nas_cg
    from repro.routing import MinimalAdaptiveRouter
    from repro.metrics import evaluate_mapping

    topo = torus(4, 4, 4)
    graph = nas_cg(256, "C")
    mapping = RAHTMMapper(topo, RAHTMConfig(seed=0)).map(graph)
    print(evaluate_mapping(MinimalAdaptiveRouter(topo), mapping, graph))

Package map
-----------
- :mod:`repro.topology` — tori/meshes, BG/Q, hierarchy.
- :mod:`repro.routing` — DOR and the all-minimal-paths MAR approximation.
- :mod:`repro.commgraph` — communication graphs and I/O.
- :mod:`repro.workloads` — NAS BT/SP/CG, stencils, synthetics, collectives.
- :mod:`repro.profile` — virtual-MPI tracing and IPM-style reports.
- :mod:`repro.mapping` — task-to-node mappings and BG/Q mapfiles.
- :mod:`repro.metrics` — MCL, hop-bytes, dilation, reports.
- :mod:`repro.core` — RAHTM itself (clustering, MILP, merge).
- :mod:`repro.baselines` — dimension orders, Hilbert, Rubik tiling, SA.
- :mod:`repro.simulator` — flow-level execution estimation.
- :mod:`repro.experiments` — figure/table regeneration harness.
"""

from repro.commgraph import CommGraph
from repro.core import RAHTMConfig, RAHTMMapper
from repro.errors import ReproError
from repro.mapping import Mapping
from repro.metrics import evaluate_mapping
from repro.routing import DimensionOrderRouter, MinimalAdaptiveRouter
from repro.topology import BGQTopology, CartesianTopology, hypercube, mesh, torus

__version__ = "1.0.0"

__all__ = [
    "CommGraph",
    "Mapping",
    "RAHTMConfig",
    "RAHTMMapper",
    "ReproError",
    "evaluate_mapping",
    "DimensionOrderRouter",
    "MinimalAdaptiveRouter",
    "BGQTopology",
    "CartesianTopology",
    "torus",
    "mesh",
    "hypercube",
    "__version__",
]
