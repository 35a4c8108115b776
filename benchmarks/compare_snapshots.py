#!/usr/bin/env python
"""Gate a benchmark snapshot against a committed baseline.

Compares a fresh ``benchmarks/snapshot.py`` output to the checked-in
baseline and exits non-zero when

- any pipeline phase or per-cell ``map_seconds`` regressed by more than
  ``--threshold`` (default 30%) — timings under ``--floor`` seconds in
  *both* snapshots are skipped as noise, and every ratio check carries an
  additive ``--slack`` allowance (default 20 ms) so cells the vectorized
  hot path pushed down to milliseconds cannot flap the gate on scheduler
  jitter alone;
- any per-cell MCL changed at all (mapping quality is deterministic, so
  any drift is a real behavior change, better or worse); when both
  snapshots carry per-cell ``hotspot`` attributions the failure message
  says *which link* the MCL moved to — drift is never unexplained;
- on any benchmark row of the current snapshot, RAHTM's MCL is not
  strictly below every other mapper's (the paper's claim; a tie fails);
- the snapshots' schema versions or scales differ.

Older baselines may carry a ``telemetry`` block (the sampling overhead
of a since-deleted time-series recorder); nothing reads it.

The baseline argument may be a path or the literal ``latest``: the
newest ``BENCH_PR<N>.json`` found at the repo root (falling back to
``benchmarks/``) is used, so the gate follows the trajectory without CI
edits per PR. ``--trend`` additionally prints the whole multi-PR
trajectory as a table.

A missing baseline is a *skip with notice* (exit 0): the first PR that
introduces the snapshot has nothing to compare against, and CI should
not fail on it. Usage::

    python benchmarks/compare_snapshots.py latest fresh.json \
        --threshold 0.30 --trend
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict | None:
    p = Path(path)
    if not p.exists():
        return None
    return json.loads(p.read_text())


def discover_baselines() -> list[Path]:
    """Every committed ``BENCH_PR<N>.json``, oldest PR first.

    Repo-root snapshots win name collisions with legacy ``benchmarks/``
    ones (the trajectory moved to the root in PR 4).
    """
    found: dict[str, Path] = {}
    for directory in (REPO_ROOT / "benchmarks", REPO_ROOT):
        for p in sorted(directory.glob("BENCH_PR*.json")):
            found[p.name] = p

    def pr_number(p: Path) -> int:
        m = re.search(r"BENCH_PR(\d+)", p.name)
        return int(m.group(1)) if m else -1

    return sorted(found.values(), key=pr_number)


def latest_baseline() -> Path | None:
    baselines = discover_baselines()
    return baselines[-1] if baselines else None


def trend_table(snapshots: list[tuple[str, dict]]) -> str:
    """The bench trajectory: one row per snapshot, label -> aggregates.

    The per-phase columns (``milp_s``, ``merge_s``, ``refine_s``) are the
    RAHTM pipeline's own clocks, so hot-path speedups show up as their
    own trajectory instead of hiding inside the grid total. ``merge_s``
    folds in the partitioned path's stitch phase when present.
    """
    header = (
        f"{'snapshot':<16}{'scale':<8}{'cells':>6}{'geomean MCL':>14}"
        f"{'sum map_s':>11}{'milp_s':>9}{'merge_s':>9}{'refine_s':>9}"
        f"{'serve_ms':>10}"
    )
    lines = ["bench trajectory:", header, "-" * len(header)]
    for label, snap in snapshots:
        cells = [
            cell
            for row in snap.get("cells", {}).values()
            for cell in row.values()
        ]
        mcls = [float(c["mcl"]) for c in cells if float(c.get("mcl", 0)) > 0]
        geomean = (
            math.exp(sum(math.log(m) for m in mcls) / len(mcls)) if mcls else 0.0
        )
        map_s = sum(float(c.get("map_seconds", 0.0)) for c in cells)
        phases = snap.get("phases", {})
        milp_s = float(phases.get("phase2-milp", 0.0))
        merge_s = float(phases.get("phase3-merge", 0.0)) + float(
            phases.get("phase3-stitch", 0.0)
        )
        refine_s = float(phases.get("phase4-refine", 0.0))
        cold = snap.get("serve", {}).get("submit_to_done_seconds")
        serve_ms = f"{cold * 1000:.1f}" if cold is not None else "-"
        lines.append(
            f"{label:<16}{snap.get('scale', '?'):<8}{len(cells):>6}"
            f"{geomean:>14.6g}{map_s:>11.3f}{milp_s:>9.3f}{merge_s:>9.3f}"
            f"{refine_s:>9.3f}{serve_ms:>10}"
        )
    return "\n".join(lines)


def compare(
    baseline: dict,
    current: dict,
    threshold: float,
    floor: float,
    slack: float = 0.02,
) -> list[str]:
    """Return a list of human-readable failures (empty = pass)."""
    failures: list[str] = []
    if baseline.get("schema") != current.get("schema"):
        failures.append(
            f"schema mismatch: baseline {baseline.get('schema')} "
            f"vs current {current.get('schema')}"
        )
        return failures
    if baseline.get("scale") != current.get("scale"):
        failures.append(
            f"scale mismatch: baseline {baseline.get('scale')!r} "
            f"vs current {current.get('scale')!r}"
        )
        return failures

    def check_timing(label: str, base: float, cur: float) -> None:
        if base < floor and cur < floor:
            return  # noise-floor territory; ratios are meaningless
        if base <= 0:
            return
        # The ratio gate alone flaps on ms-scale cells (a 3 ms -> 5 ms
        # scheduler hiccup is a "67% regression"); the additive slack is
        # an absolute allowance every check gets on top of the ratio.
        if cur > base * (1.0 + threshold) + slack:
            ratio = cur / base
            failures.append(
                f"{label}: {base:.4g}s -> {cur:.4g}s "
                f"({(ratio - 1.0) * 100:.0f}% slower, "
                f"threshold {threshold * 100:.0f}% + {slack * 1000:.0f}ms)"
            )

    # Daemon latency micro-bench: only gated when the baseline carries it
    # (snapshots before PR 6 predate `repro serve`).
    for key, base in baseline.get("serve", {}).items():
        cur = current.get("serve", {}).get(key)
        if cur is None:
            failures.append(f"serve metric {key!r} missing from current snapshot")
            continue
        check_timing(f"serve {key}", float(base), float(cur))

    # Vectorized hot-path kernel micro-benches: gated only when the
    # baseline carries them (snapshots before PR 8 predate the family).
    for key, base in baseline.get("vectorized", {}).items():
        cur = current.get("vectorized", {}).get(key)
        if cur is None:
            failures.append(
                f"vectorized metric {key!r} missing from current snapshot"
            )
            continue
        check_timing(f"vectorized {key}", float(base), float(cur))

    for phase, base in baseline.get("phases", {}).items():
        cur = current.get("phases", {}).get(phase)
        if cur is None:
            failures.append(f"phase {phase!r} missing from current snapshot")
            continue
        check_timing(f"phase {phase}", float(base), float(cur))

    for bench, row in baseline.get("cells", {}).items():
        for label, cell in row.items():
            other = current.get("cells", {}).get(bench, {}).get(label)
            if other is None:
                failures.append(f"cell {bench}/{label} missing from current")
                continue
            if cell.get("mcl") != other.get("mcl"):
                msg = (
                    f"cell {bench}/{label}: MCL changed "
                    f"{cell.get('mcl')} -> {other.get('mcl')} "
                    "(mapping quality must be deterministic)"
                )
                hot_a = cell.get("hotspot")
                hot_b = other.get("hotspot")
                if hot_a and hot_b:
                    # Per-flow attribution turns bare drift into a story:
                    # where the bottleneck was, where it went.
                    if hot_a.get("slot") == hot_b.get("slot"):
                        msg += (
                            f"; hotspot stayed at {hot_a.get('label')} "
                            f"(load {hot_a.get('load')} -> "
                            f"{hot_b.get('load')})"
                        )
                    else:
                        msg += (
                            f"; hotspot moved {hot_a.get('label')} -> "
                            f"{hot_b.get('label')}"
                        )
                failures.append(msg)
            check_timing(
                f"cell {bench}/{label} map_seconds",
                float(cell.get("map_seconds", 0.0)),
                float(other.get("map_seconds", 0.0)),
            )

    for bench, row in current.get("cells", {}).items():
        rahtm = row.get("RAHTM")
        if rahtm is None:
            continue
        for label, cell in row.items():
            if label != "RAHTM" and not rahtm["mcl"] < cell["mcl"]:
                failures.append(
                    f"claim {bench}/{label}: RAHTM MCL {rahtm['mcl']} is "
                    f"not strictly below {label}'s {cell['mcl']}"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "baseline",
        help="committed baseline snapshot, or 'latest' to use the "
             "newest BENCH_PR<N>.json in the repo",
    )
    parser.add_argument("current", help="freshly produced snapshot")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="allowed slowdown fraction (default: 0.30)",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=0.05,
        help="seconds below which timings are noise (default: 0.05)",
    )
    parser.add_argument(
        "--slack",
        type=float,
        default=0.02,
        help="absolute seconds every timing check may exceed the ratio "
             "threshold by before failing (default: 0.02)",
    )
    parser.add_argument(
        "--trend",
        action="store_true",
        help="print the multi-PR bench trajectory before the verdict",
    )
    args = parser.parse_args(argv)

    baseline_path = args.baseline
    if baseline_path == "latest":
        found = latest_baseline()
        if found is None:
            print(
                "NOTICE: no BENCH_PR*.json baseline committed yet; "
                "skipping the perf gate (commit one via "
                "benchmarks/snapshot.py)"
            )
            return 0
        baseline_path = str(found)
        print(f"latest committed baseline: {baseline_path}")

    baseline = load(baseline_path)
    if baseline is None:
        print(
            f"NOTICE: no baseline at {baseline_path}; skipping the "
            "perf gate (commit one via benchmarks/snapshot.py)"
        )
        return 0
    current = load(args.current)
    if current is None:
        print(f"error: current snapshot {args.current} not found", file=sys.stderr)
        return 2

    if args.trend:
        history = [
            (p.name.replace(".json", ""), json.loads(p.read_text()))
            for p in discover_baselines()
        ]
        history.append((current.get("pr") or "current", current))
        print(trend_table(history))

    failures = compare(
        baseline, current, args.threshold, args.floor, args.slack
    )
    if failures:
        print(f"perf gate FAILED ({len(failures)} regression(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        "perf gate passed: no phase regressed beyond "
        f"{args.threshold * 100:.0f}%, MCLs unchanged, RAHTM below "
        "every other mapper"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
