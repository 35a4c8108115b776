"""The paper's headline claims, as executable checks.

`EXPERIMENTS.md` argues shape-level agreement with the paper; this module
encodes each claim as a predicate over a :class:`ComparisonResult`, so a
reproduction run can assert them mechanically::

    result = run_comparison("small")
    for claim in check_claims(result):
        print(claim)

Claims follow Section V:

1. RAHTM improves *mean* execution time (paper: -9%).
2. RAHTM improves *mean* communication time substantially (paper: -20%).
3. RAHTM improves communication on **every** benchmark (a tie fails).
4. The alternate dimension permutations are **not uniformly helpful** —
   at least one benchmark regresses under each.
5. On average the dimension permutations are no better than the default.
6. CG is the benchmark most sensitive to bad permutations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.report import geomean
from repro.experiments.runner import ComparisonResult

__all__ = ["ClaimResult", "check_claims"]


@dataclass(frozen=True)
class ClaimResult:
    """One verified (or refuted) paper claim."""

    claim: str
    holds: bool
    detail: str

    def __str__(self) -> str:
        mark = "PASS" if self.holds else "FAIL"
        return f"[{mark}] {self.claim} — {self.detail}"


def check_claims(result: ComparisonResult) -> list[ClaimResult]:
    """Evaluate every Section V shape claim against a comparison run."""
    exec_n = result.normalized(result.exec_seconds, "exec")
    comm_n = result.normalized(result.comm_seconds, "comm")
    benches = [r for r in exec_n.row_labels if r != "geomean"]
    cols = exec_n.col_labels
    default, perms = cols[0], cols[1:3]
    rahtm = "RAHTM"
    out = []

    g_exec = exec_n.get("geomean", rahtm)
    out.append(ClaimResult(
        "RAHTM improves mean execution time (paper -9%)",
        g_exec < 1.0,
        f"geomean {g_exec:.3f} (change {100 * (g_exec - 1):+.1f}%)",
    ))

    g_comm = comm_n.get("geomean", rahtm)
    out.append(ClaimResult(
        "RAHTM improves mean communication time substantially (paper -20%)",
        g_comm < 0.95,
        f"geomean {g_comm:.3f} (change {100 * (g_comm - 1):+.1f}%)",
    ))

    per_bench = {b: comm_n.get(b, rahtm) for b in benches}
    out.append(ClaimResult(
        "RAHTM improves communication on every benchmark",
        all(v < 1.0 for v in per_bench.values()),
        ", ".join(f"{b} {v:.3f}" for b, v in per_bench.items()),
    ))

    # A permutation that ties the default *everywhere* is degenerate at
    # this scale (e.g. the transpose of the default on a square 2-D torus
    # with a symmetric workload) and says nothing about uniformity.
    nonuniform = []
    for p in perms:
        vals = [exec_n.get(b, p) for b in benches]
        degenerate = all(abs(v - 1.0) < 1e-6 for v in vals)
        nonuniform.append(degenerate or max(vals) > 1.0)
    out.append(ClaimResult(
        "alternate dimension permutations are non-uniform "
        "(each effective permutation hurts some benchmark)",
        all(nonuniform),
        ", ".join(
            f"{p}: worst {max(exec_n.get(b, p) for b in benches):.3f}"
            for p in perms
        ),
    ))

    perm_means = [exec_n.get("geomean", p) for p in perms]
    out.append(ClaimResult(
        "dimension permutations no better than the default on average",
        geomean(perm_means) >= 1.0 - 1e-9,
        f"permutation geomeans {', '.join(f'{v:.3f}' for v in perm_means)}",
    ))

    worst_perm_by_bench = {
        b: max(comm_n.get(b, p) for p in perms) for b in benches
    }
    cg_worst = worst_perm_by_bench.get("CG", 0.0)
    out.append(ClaimResult(
        "CG is the benchmark most hurt by bad permutations",
        cg_worst >= max(worst_perm_by_bench.values()) - 1e-9,
        ", ".join(f"{b} {v:.3f}" for b, v in worst_perm_by_bench.items()),
    ))
    return out
