"""Structured degradation events.

Every time a phase steps down its fallback ladder (MILP → greedy on a
solver error, or → static once the budget runs out, in phase 2; full
merge → first-fit orientation in phase 3; refine skipped in phase 4) it
records one :class:`DegradationEvent`. The log ends up in
``mapper.stats["degradation"]``, in the job payload, and in CLI output,
so an operator can see exactly which quality was traded for which
deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.observability import trace
from repro.observability.metrics import get_registry

__all__ = ["DegradationEvent", "DegradationLog"]


@dataclass(frozen=True)
class DegradationEvent:
    """One ladder step: which phase degraded, how, and why.

    ``action`` is a ``from->to`` label (``"milp->greedy"``,
    ``"milp->static"``, ``"merge->first-fit"``, ``"refine->skipped"``);
    ``reason`` is machine-matchable (``"budget-exhausted"``,
    ``"solver-error"``).
    """

    phase: str
    action: str
    reason: str
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "action": self.action,
            "reason": self.reason,
            "detail": dict(self.detail),
        }

    def describe(self) -> str:
        extra = (
            " " + " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
            if self.detail else ""
        )
        return f"{self.phase}: {self.action} ({self.reason}){extra}"


class DegradationLog:
    """An append-only list of degradation events for one mapping run."""

    def __init__(self) -> None:
        self.events: list[DegradationEvent] = []

    def record(self, phase: str, action: str, reason: str, **detail) -> None:
        self.events.append(DegradationEvent(phase, action, reason, detail))
        # Degradations double as observability signals: an instant event
        # in any active trace, and a process-wide counter.
        trace.event("degradation", phase=phase, action=action, reason=reason)
        get_registry().counter("resilience.degradations").inc()

    def as_dicts(self) -> list[dict]:
        return [e.to_dict() for e in self.events]

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __iter__(self):
        return iter(self.events)

    def summary(self) -> str:
        """Compact ``phase:action(reason) xN`` rollup for log lines."""
        counts: dict[tuple[str, str, str], int] = {}
        for e in self.events:
            key = (e.phase, e.action, e.reason)
            counts[key] = counts.get(key, 0) + 1
        return ", ".join(
            f"{p}:{a}({r})" + (f" x{n}" if n > 1 else "")
            for (p, a, r), n in counts.items()
        )
