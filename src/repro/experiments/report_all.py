"""One-shot reproduction report generator.

Runs every experiment at a chosen scale and emits a single markdown
report (the machinery behind ``EXPERIMENTS.md``), so a reproduction run
is one command::

    python -m repro.experiments.report_all --scale tiny --out report.md
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro.experiments import (
    fig1,
    fig7,
    fig8,
    fig9,
    fig10,
    fig234,
    run_comparison,
    scaling,
    table1,
    table2,
)
from repro.experiments.config import get_scale
from repro.service import ExecutorConfig, MappingEngine

__all__ = ["generate_report", "main"]

_SECTIONS = ("fig1", "fig234", "table2", "fig7", "table1", "comparison",
             "scaling")


def _code_block(table) -> str:
    return "```\n" + table.to_text() + "\n```\n"


def _hotspot_block(netviews) -> str:
    """Render the per-cell hotspot summaries as a fixed-width table.

    One row per (benchmark, mapper) cell: the MCL, the hottest link and
    its share of total traffic, plus the Gini coefficient of the channel
    load distribution — the "where and why" behind Figure 10's MCLs.
    """
    header = (f"{'benchmark':<10} {'mapper':<10} {'MCL':>12} "
              f"{'hotspot link':<24} {'share':>6} {'gini':>6}")
    lines = [header, "-" * len(header)]
    for (bench, mapper), nv in sorted(netviews.items()):
        top = nv["top"][0] if nv["top"] else None
        label = top["label"] if top else "(idle)"
        share = f"{top['share_of_total'] * 100:.1f}%" if top else "-"
        lines.append(
            f"{bench:<10} {mapper:<10} {nv['mcl']:>12.5g} "
            f"{label:<24} {share:>6} {nv['gini']:>6.3f}"
        )
    return "```\n" + "\n".join(lines) + "\n```\n"


def generate_report(
    scale="tiny",
    include=_SECTIONS,
    *,
    engine=None,
) -> str:
    """Run the selected experiments and return a markdown report.

    ``engine`` (a :class:`~repro.service.engine.MappingEngine`) runs the
    comparison sweep: one with a pool computes the mapper x benchmark
    grid in parallel, and one with a cache directory makes repeated
    report generation a warm-cache no-op.
    """
    scale = get_scale(scale)
    parts = [
        "# RAHTM reproduction report",
        f"scale: `{scale.name}` — {scale.num_tasks} tasks on "
        f"{'x'.join(map(str, scale.shape))} (concentration "
        f"{scale.concentration}, class {scale.problem_class})",
        "",
    ]
    t0 = time.perf_counter()
    if "fig1" in include:
        parts += ["## Figure 1 — routing awareness", _code_block(fig1.run())]
    if "fig234" in include:
        parts += ["## Figures 2-4 — clustering", _code_block(fig234.run())]
    if "table2" in include:
        parts += ["## Table II — fission MILP", _code_block(table2.run())]
    if "fig7" in include:
        parts += ["## Figure 7 — beam merge", _code_block(fig7.run())]
    if "table1" in include:
        parts += ["## Table I — benchmarks", _code_block(table1.run(scale))]
    if "comparison" in include:
        result = run_comparison(scale, engine=engine, netview=True)
        parts += [
            "## Figure 8 — overall execution time",
            _code_block(fig8.from_comparison(result)),
            "## Figure 9 — communication fraction",
            _code_block(fig9.from_comparison(result)),
            "## Figure 10 — communication time",
            _code_block(fig10.from_comparison(result)),
            "## Section V-B — offline mapping time",
            _code_block(result.mapping_seconds),
        ]
        if result.netviews:
            parts += [
                "## Network hotspots — which link carries each MCL",
                _hotspot_block(result.netviews),
            ]
    if "scaling" in include:
        parts += ["## Scaling", _code_block(scaling.run(scales=("tiny",)))]
    parts.append(
        f"\n_report generated in {time.perf_counter() - t0:.1f}s_\n"
    )
    return "\n".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="tiny")
    parser.add_argument("--out", help="write markdown here (default: stdout)")
    parser.add_argument(
        "--sections", default=",".join(_SECTIONS),
        help=f"comma list from {_SECTIONS}",
    )
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the comparison sweep")
    parser.add_argument("--cache-dir",
                        help="content-addressed mapping result cache")
    parser.add_argument("--job-timeout", type=float, default=None,
                        help="per-job wall-clock budget in seconds")
    args = parser.parse_args(argv)
    engine = MappingEngine(
        cache_dir=args.cache_dir,
        executor_config=ExecutorConfig(jobs=args.jobs,
                                       timeout=args.job_timeout),
    )
    try:
        report = generate_report(args.scale, tuple(args.sections.split(",")),
                                 engine=engine)
    finally:
        engine.close()
    if args.out:
        Path(args.out).write_text(report)
        print(f"wrote {args.out}")
    else:
        print(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
