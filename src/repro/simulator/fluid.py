"""Fluid (max-min fair) phase simulation — the second opinion.

The default :class:`NetworkModel` times a phase by draining the
most-loaded channel (the MCL abstraction the paper optimizes). This module
implements a finer-grained *fluid* model: every flow keeps its routing
split (the stencil fractions) but flows share link bandwidth max-min
fairly, flows finish at different times, and freed capacity speeds up the
rest — a progressive-filling water-level computation inside an
event-driven outer loop.

Both models agree on single-bottleneck phases; they diverge when traffic
is heterogeneous, which makes the fluid model a useful ablation: if a
mapping wins under both, the win is not an artifact of the MCL
abstraction (see ``benchmarks/bench_ablations.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError
from repro.observability.metrics import get_registry
from repro.observability.trace import span
from repro.routing.base import Router

if TYPE_CHECKING:  # annotations only: attribute_flows builds the matrices
    import scipy.sparse as sp

__all__ = ["FluidPhaseSimulator", "max_min_fair_rates"]

_EPS = 1e-12


def max_min_fair_rates(usage: sp.csr_matrix, capacity: np.ndarray,
                       active: np.ndarray) -> np.ndarray:
    """Max-min fair rates for flows with fixed fractional routes.

    Parameters
    ----------
    usage:
        (links x flows) matrix; ``usage[l, i]`` is the fraction of flow
        ``i``'s rate that crosses link ``l``.
    capacity:
        Per-link capacity (bytes/second).
    active:
        Boolean mask of flows currently transmitting.

    Returns
    -------
    Per-flow rates (0 for inactive flows). Progressive filling: raise all
    unfrozen flows' rates together until a link saturates, freeze the
    flows crossing it, repeat.
    """
    n_links, n_flows = usage.shape
    rates = np.zeros(n_flows)
    unfrozen = active.copy()
    used = np.zeros(n_links)
    for _ in range(n_flows):
        if not unfrozen.any():
            break
        # Per-link total usage of unfrozen flows.
        mask_vec = unfrozen.astype(np.float64)
        demand = usage @ mask_vec
        room = capacity - used
        with np.errstate(divide="ignore", invalid="ignore"):
            fill = np.where(demand > _EPS, room / demand, np.inf)
        fill = np.maximum(fill, 0.0)
        lam = float(fill.min()) if np.isfinite(fill).any() else np.inf
        if not np.isfinite(lam):
            # Unfrozen flows touch no loaded link: they are unconstrained;
            # model caps them at the max single-link capacity.
            rates[unfrozen] += capacity.max()
            break
        rates[unfrozen] += lam
        used += demand * lam
        saturated = np.flatnonzero(room - demand * lam <= 1e-9 * capacity)
        if len(saturated) == 0:
            break
        # Freeze flows crossing any saturated link.
        frozen_flows = np.unique(usage[saturated].tocoo().col)
        newly = unfrozen[frozen_flows]
        unfrozen[frozen_flows] = False
        if not newly.any():
            break
    return rates


class FluidPhaseSimulator:
    """Event-driven fluid simulation of one communication phase."""

    def __init__(self, router: Router, link_bandwidth: float = 1.8e9,
                 max_events: int = 100_000):
        if link_bandwidth <= 0:
            raise SimulationError("link_bandwidth must be > 0")
        self.router = router
        self.link_bandwidth = float(link_bandwidth)
        self.max_events = int(max_events)

    def _usage_matrix(self, srcs, dsts) -> sp.csr_matrix:
        # The attribution engine builds the (flows x slots) route
        # fractions from the router's one channel-slot expansion
        # (Router.entries), the blocks link_loads scatters; the tests
        # hold it to repro.routing.reference. Unit volumes keep every
        # off-node flow's column.
        from repro.observability.attribution import attribute_flows

        att = attribute_flows(
            self.router, srcs, dsts, np.ones(len(srcs))
        )
        return att.usage_matrix()

    def phase_time(self, srcs, dsts, vols) -> float:
        """Seconds until the last byte of the phase is delivered."""
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        vols = np.asarray(vols, dtype=np.float64)
        offnode = (srcs != dsts) & (vols > 0)
        srcs, dsts, vols = srcs[offnode], dsts[offnode], vols[offnode]
        if len(srcs) == 0:
            return 0.0
        registry = get_registry()
        with span("fluid.phase_time", flows=len(srcs)) as phase_span:
            usage = self._usage_matrix(srcs, dsts)
            capacity = np.full(usage.shape[0], self.link_bandwidth)
            remaining = vols.copy()
            active = remaining > 0
            t = 0.0
            for step in range(self.max_events):
                if not active.any():
                    phase_span.set(events=step, seconds=t)
                    registry.counter("fluid.events").inc(step)
                    registry.counter("fluid.phases").inc()
                    return t
                rates = max_min_fair_rates(usage, capacity, active)
                transmitting = active & (rates > _EPS)
                if not transmitting.any():
                    raise SimulationError(
                        "fluid simulation stalled (zero rates)"
                    )
                with np.errstate(divide="ignore"):
                    finish = np.where(
                        transmitting,
                        remaining / np.maximum(rates, _EPS),
                        np.inf,
                    )
                dt = float(finish.min())
                t += dt
                remaining = np.maximum(remaining - rates * dt, 0.0)
                active = remaining > 1e-9 * vols
            raise SimulationError(
                f"fluid simulation exceeded {self.max_events} events"
            )
