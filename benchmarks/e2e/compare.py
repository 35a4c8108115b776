#!/usr/bin/env python3
"""Compare two result sets of the e2e benchmark, metric by metric.

Usage::

    python3 benchmarks/e2e/compare.py BASE.json[#SET] NEW.json[#SET]

A result set is what ``run.py --out FILE --set NAME`` appends to; name
the set after ``#`` when the file holds more than one. Each side needs at
least three untraced runs of a workload for it to be compared. For every
workload and end-to-end metric of ``BENCHMARK.json`` this prints both
medians, the new side's quartiles, how much worse the new median is
(negative: better), the wider of the two spreads (interquartile range
over median), the metric's bound and a verdict. A metric may worsen by
its bound times the base median, plus an absolute slack for the
millisecond-scale metrics in ``SLACK``:

- ``unresolved``: an interquartile range is wider than that allowance,
  so the runs cannot tell a change of that size from noise -- unless
  every new run reads better than every base run;
- ``worse``: the new median is worse than the base median by more than
  the allowance;
- ``ok`` otherwise.

Exits 1 if any verdict is ``worse``, 2 on unusable input.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_RUNS = 3
#: Absolute worsening allowed on top of the bound, in the metric's unit:
#: at tens of milliseconds a few ms of scheduling jitter is not a change.
SLACK = {"setup_s": 0.05, "warm_p50_s": 0.001}


def unusable(message: str):
    print(message, file=sys.stderr)
    raise SystemExit(2)


def load_set(arg: str) -> list[dict]:
    path, _, name = arg.partition("#")
    with open(path) as fh:
        sets = json.load(fh)["sets"]
    if not name:
        if len(sets) != 1:
            unusable(f"{path} holds sets {sorted(sets)}; "
                     f"pick one with {path}#NAME")
        (name,) = sets
    if name not in sets:
        unusable(f"{path} has no set {name!r}; it has {sorted(sets)}")
    return [run for run in sets[name] if not run["trace"]]


def values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [run["result"]["metrics"][metric]["value"] for run in runs
            if run["workload"] == workload
            and metric in run["result"]["metrics"]]


def iqr(vals: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q3 - q1


def verdict(base: list[float], new: list[float], bound: float, slack: float,
            higher_is_better: bool) -> tuple[str, float, float]:
    """(verdict, relative worsening of the median, wider relative spread)."""
    sign = -1.0 if higher_is_better else 1.0
    b, n = statistics.median(base), statistics.median(new)
    allowed = bound * abs(b) + slack
    wide = max(iqr(base), iqr(new))
    all_better = all(sign * (x - y) < 0 for x in new for y in base)
    relative = abs(b) or 1.0
    if wide > allowed and not all_better:
        result = "unresolved"
    elif sign * (n - b) > allowed:
        result = "worse"
    else:
        result = "ok"
    return result, sign * (n - b) / relative, wide / relative


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        unusable(__doc__)
    base, new = (load_set(arg) for arg in argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    header = (f"{'workload':12s} {'metric':12s} {'base p50':>10s} "
              f"{'new p50':>10s} {'new q1..q3':>21s} {'worse by':>8s} "
              f"{'spread':>7s} {'bound':>6s}  verdict")
    print(header)
    worse = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, n = values(base, workload, name), values(new, workload, name)
            if len(b) < MIN_RUNS or len(n) < MIN_RUNS:
                print(f"{workload:12s} {name:12s} skipped: {len(b)} base "
                      f"and {len(n)} new runs, need {MIN_RUNS} each")
                continue
            result, worse_by, wide = verdict(
                b, n, metric["bound"], SLACK.get(name, 0.0),
                metric["better"] == "higher")
            worse += result == "worse"
            q1, _, q3 = statistics.quantiles(n, n=4)
            print(f"{workload:12s} {name:12s} {statistics.median(b):10.4g} "
                  f"{statistics.median(n):10.4g} {q1:10.4g}..{q3:<9.4g} "
                  f"{worse_by:+8.1%} {wide:7.1%} {metric['bound']:6.0%}  "
                  f"{result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
