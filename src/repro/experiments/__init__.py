"""Experiment harness: everything needed to regenerate the paper's
figures and tables at configurable scale.

Each ``figN``/``tableN`` module exposes ``run(scale=...)`` returning a
:class:`repro.experiments.report.Table` whose rows mirror the paper's
plot, plus a ``main()`` that prints it. ``benchmarks/`` wraps these in
pytest-benchmark targets.
"""

from repro.experiments.config import ExperimentScale, SCALES, get_scale
from repro.experiments.report import Table
from repro.experiments.runner import (
    MapperSpec,
    default_mapper_configs,
    run_comparison,
)

__all__ = [
    "ExperimentScale",
    "SCALES",
    "get_scale",
    "Table",
    "MapperSpec",
    "run_comparison",
    "default_mapper_configs",
]
