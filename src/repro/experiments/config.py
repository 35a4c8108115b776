"""Experiment scales.

The paper runs 16,384 processes on a 4x4x4x4x2 BG/Q partition with a
concentration factor of 32 (Section IV). Pure-Python MILP + merge at that
scale costs hours (as the paper's own offline mapping did on CPLEX), so
the default scales are reduced while keeping every structural property:
power-of-two tori, concentration > number-of-"cores", and the same
benchmark set. ``paper`` is the full configuration for those who want to
burn the CPU time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.rahtm import RAHTMConfig
from repro.errors import ConfigError
from repro.topology.cartesian import CartesianTopology

__all__ = ["ExperimentScale", "SCALES", "get_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """One evaluation scale.

    Attributes
    ----------
    name:
        Scale label.
    shape:
        Torus shape.
    concentration:
        Tasks per node.
    problem_class:
        NAS class fed to the workload generators.
    dim_orders:
        The dimension-permutation mappings compared (first = the
        platform default the paper normalizes to).
    rahtm:
        RAHTM configuration tuned to finish in reasonable time at this
        scale.
    """

    name: str
    shape: tuple[int, ...]
    concentration: int
    problem_class: str
    dim_orders: tuple[str, ...]
    rahtm: RAHTMConfig = field(default_factory=RAHTMConfig)

    @property
    def num_nodes(self) -> int:
        n = 1
        for k in self.shape:
            n *= k
        return n

    @property
    def num_tasks(self) -> int:
        return self.num_nodes * self.concentration

    def topology(self) -> CartesianTopology:
        return CartesianTopology(self.shape, wrap=True)


SCALES: dict[str, ExperimentScale] = {
    # Fast enough for unit tests and quick looks (64 tasks).
    "tiny": ExperimentScale(
        name="tiny", shape=(4, 4), concentration=4, problem_class="W",
        dim_orders=("ABT", "TAB", "BAT"),
        rahtm=RAHTMConfig(beam_width=8, max_orientations=8,
                          milp_time_limit=10.0, order_mode="identity",
                          refine_iterations=1000, seed=0),
    ),
    # Default for the figure benches (256 tasks on a 4x4x4 torus). The
    # merge tries all 48 orientations of each 2x2x2 block: phase 2 often
    # has several tied MAR optima that differ by a dimension permutation,
    # and only the full group makes the final MCL independent of which
    # one it returns (with 24 sampled orientations, permuted ties moved
    # BT's final MCL between 1,680,000 and 2,240,000; with 48 it stays
    # 1,280,000).
    "small": ExperimentScale(
        name="small", shape=(4, 4, 4), concentration=4, problem_class="C",
        dim_orders=("ABCT", "TABC", "ACBT"),
        rahtm=RAHTMConfig(beam_width=16, max_orientations=None,
                          milp_time_limit=30.0, milp_rel_gap=0.02,
                          refine_iterations=2000, seed=0),
    ),
    # The headline run (1,024 tasks on a 4^4 torus, concentration 4).
    "medium": ExperimentScale(
        name="medium", shape=(4, 4, 4, 4), concentration=4,
        problem_class="C",
        dim_orders=("ABCDT", "TABCD", "ACDBT"),
        rahtm=RAHTMConfig(beam_width=16, max_orientations=32,
                          milp_time_limit=60.0, milp_rel_gap=0.05,
                          refine_iterations=5000, seed=0),
    ),
    # The paper's topology and process count (512 nodes, 16,384 tasks)
    # tuned to finish inside a CI timeout: the MILP rung is swapped for
    # the deterministic greedy placer (a time-limited solver is
    # machine-dependent, and the paper-scale gate checks bitwise MCLs),
    # and beam/orientation/refine budgets are trimmed. The vectorized hot
    # path is what makes this runnable in CI at all.
    "paper-ci": ExperimentScale(
        name="paper-ci", shape=(4, 4, 4, 4, 2), concentration=32,
        problem_class="D",
        dim_orders=("ABCDET", "TABCDE", "ACEBDT"),
        rahtm=RAHTMConfig(beam_width=8, max_orientations=16,
                          use_milp=False, order_mode="identity",
                          refine_iterations=2000, seed=0),
    ),
    # The paper's configuration: 512 nodes, 16,384 tasks. Runs, but takes
    # hours — mirroring the paper's own 33-minute-to-35-hour mapping cost.
    "paper": ExperimentScale(
        name="paper", shape=(4, 4, 4, 4, 2), concentration=32,
        problem_class="D",
        dim_orders=("ABCDET", "TABCDE", "ACEBDT"),
        rahtm=RAHTMConfig(beam_width=64, max_orientations=64,
                          milp_time_limit=600.0, milp_rel_gap=0.05,
                          refine_iterations=20000, seed=0),
    ),
}


def get_scale(scale) -> ExperimentScale:
    """Resolve a scale by name or pass an :class:`ExperimentScale` through."""
    if isinstance(scale, ExperimentScale):
        return scale
    try:
        return SCALES[str(scale)]
    except KeyError:
        raise ConfigError(
            f"unknown scale {scale!r}; choose from {sorted(SCALES)}"
        ) from None
