"""Routing models and channel-load computation.

The quality metric RAHTM optimizes is the **maximum channel load (MCL)**
under the platform's routing algorithm. BG/Q uses minimal adaptive routing
(MAR); following the paper (Section III-D and refs [19, 20] therein) we
model it as an *oblivious* router that spreads every flow uniformly over
all minimal (Manhattan) paths — :class:`MinimalAdaptiveRouter`. The
routing-unaware comparison point is classic dimension-order routing
(:class:`DimensionOrderRouter`).

Both routers work by *stencils*: for a source-destination offset ``delta``
the per-channel fraction of the flow is translation-invariant, so it is
computed once per distinct ``delta`` and scattered into a dense load vector
for every flow sharing it. This makes one MCL evaluation a handful of numpy
scatter-adds — the inner loop of RAHTM's merge phase.
"""

from repro.routing.base import Router, Stencil
from repro.routing.dor import DimensionOrderRouter
from repro.routing.minimal_adaptive import MinimalAdaptiveRouter
from repro.routing.paths import lattice_path_counts, multinomial

__all__ = [
    "Router",
    "Stencil",
    "DimensionOrderRouter",
    "MinimalAdaptiveRouter",
    "lattice_path_counts",
    "multinomial",
]
