"""Wall-clock timing helpers used by the experiment harness.

The paper reports offline mapping times per phase (Section V-B); the
:class:`PhaseTimer` accumulates named phase durations so the optimization
time experiment can report the same breakdown.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["PhaseTimer"]


class PhaseTimer:
    """Accumulates wall-clock time per named phase.

    >>> pt = PhaseTimer()
    >>> with pt.phase("clustering"):
    ...     pass
    >>> "clustering" in pt.totals
    True
    """

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    @contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield self
        finally:
            dt = time.perf_counter() - start
            self.totals[name] = self.totals.get(name, 0.0) + dt
            self.counts[name] = self.counts.get(name, 0) + 1

    @property
    def total(self) -> float:
        """Sum of all phase durations in seconds."""
        return sum(self.totals.values())

    def report(self) -> str:
        """Human-readable per-phase breakdown, longest first."""
        lines = ["phase                          total_s   calls"]
        for name, tot in sorted(self.totals.items(), key=lambda kv: -kv[1]):
            lines.append(f"{name:<30} {tot:8.3f} {self.counts[name]:7d}")
        lines.append(f"{'TOTAL':<30} {self.total:8.3f}")
        return "\n".join(lines)
