"""Network topology substrate: mixed-radix tori/meshes, BG/Q, hierarchy.

The paper evaluates on Blue Gene/Q's 5-D torus (a 4x4x4x4x2 partition with
16 cores per node). This package provides:

- :class:`CartesianTopology` — a k-ary n-torus / n-mesh with per-dimension
  wraparound and a dense directed-channel numbering scheme shared by the
  routing and metrics layers.
- :func:`torus` / :func:`mesh` / :func:`hypercube` — convenience builders.
- :class:`BGQTopology` — the Blue Gene/Q network (ABCDE dimensions plus the
  on-node T dimension used only for task naming/mapfiles).
- :class:`CubeHierarchy` — the 2-ary recursive decomposition of a
  ``2^q``-ary n-torus into nested 2-ary n-cubes (Section III-B/C).
"""

from repro.topology.cartesian import CartesianTopology, torus, mesh, hypercube
from repro.topology.bgq import BGQTopology
from repro.topology.hierarchy import CubeHierarchy

__all__ = [
    "CartesianTopology",
    "torus",
    "mesh",
    "hypercube",
    "BGQTopology",
    "CubeHierarchy",
]
