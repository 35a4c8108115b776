"""Fair tenant queues for the mapping daemon.

The daemon serves many tenants from one machine; a queue that is just
FIFO lets one bulk submitter starve everyone else, and a queue that is
strictly priority-ordered starves the bulk submitter instead.
:class:`FairQueue` implements classic **stride scheduling** over
tenants, with two production amendments:

- **quotas** — each tenant may hold at most ``quota`` queued jobs;
  submissions past that are refused (:class:`QuotaExceeded`) so a
  runaway client cannot consume unbounded daemon memory;
- **aging** — a tenant's selection score is its accumulated service
  *minus* ``aging_rate`` times the wait of its oldest queued job. The
  wait term grows without bound, so every queued job is eventually
  selected no matter how much service its tenant has already consumed:
  starvation-free by construction.

Service is charged in job wall-seconds (:meth:`FairQueue.charge`), so
tenants receive equal long-run compute shares. Selection is fully
deterministic: ties break on tenant name, then submission order.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.errors import ConfigError, ServiceError

__all__ = ["QuotaExceeded", "FairQueue"]


class QuotaExceeded(ServiceError):
    """A tenant tried to queue more jobs than its quota allows."""


@dataclass
class _TenantState:
    queued: deque = field(default_factory=deque)
    #: Accumulated service in job wall-seconds.
    virtual_service: float = 0.0


class FairQueue:
    """Starvation-free fair queue over named tenants.

    Items are opaque; the queue only needs each pushed entry's tenant
    name and an ``enqueued_at`` timestamp it records itself. Each tenant
    may hold at most ``quota`` queued items. All methods are
    thread-safe: the HTTP front-end pushes from the event loop while
    the scheduler thread pops.
    """

    def __init__(self, quota: int = 64, aging_rate: float = 0.05,
                 clock=time.monotonic):
        if quota < 1:
            raise ConfigError("tenant quota must be >= 1")
        if aging_rate < 0:
            raise ConfigError("aging_rate must be >= 0")
        self.quota = quota
        self.aging_rate = aging_rate
        self._clock = clock
        self._tenants: dict[str, _TenantState] = {}
        self._lock = threading.Lock()

    def _state(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            # A new tenant starts at the *maximum* virtual service of its
            # peers, not zero — otherwise joining late would grant a
            # catch-up burst that drowns everyone (the standard stride-
            # scheduling join rule).
            floor = max((t.virtual_service for t in self._tenants.values()),
                        default=0.0)
            state = _TenantState(virtual_service=floor)
            self._tenants[name] = state
        return state

    # -- producer side --------------------------------------------------------------
    def push(self, tenant: str, item, force: bool = False) -> None:
        """Queue ``item`` for ``tenant``; :class:`QuotaExceeded` past quota.

        ``force`` bypasses the quota — used when requeueing drained jobs
        at daemon startup, which were accepted once already and must not
        bounce.
        """
        with self._lock:
            state = self._state(tenant)
            if not force and len(state.queued) >= self.quota:
                raise QuotaExceeded(
                    f"tenant {tenant!r} already has {len(state.queued)} "
                    f"queued job(s) (quota {self.quota})"
                )
            state.queued.append((self._clock(), item))

    # -- consumer side --------------------------------------------------------------
    def _score(self, state: _TenantState, now: float) -> float:
        head_wait = now - state.queued[0][0]
        return (state.virtual_service
                - self.aging_rate * head_wait)

    def pop(self):
        """The next item under fair + aging order, or ``None``."""
        with self._lock:
            now = self._clock()
            best_name = None
            best_score = None
            for name in sorted(self._tenants):
                state = self._tenants[name]
                if not state.queued:
                    continue
                score = self._score(state, now)
                if best_score is None or score < best_score:
                    best_name, best_score = name, score
            if best_name is None:
                return None
            return self._tenants[best_name].queued.popleft()[1]

    def charge(self, tenant: str, cost_seconds: float) -> None:
        """Account ``cost_seconds`` of served compute against ``tenant``."""
        with self._lock:
            state = self._state(tenant)
            state.virtual_service += max(cost_seconds, 0.0)

    # -- maintenance ----------------------------------------------------------------
    def remove(self, predicate) -> list:
        """Drop queued items for which ``predicate(item)``; returns them."""
        removed = []
        with self._lock:
            for state in self._tenants.values():
                kept = deque()
                for entry in state.queued:
                    if predicate(entry[1]):
                        removed.append(entry[1])
                    else:
                        kept.append(entry)
                state.queued = kept
        return removed

    def drain(self) -> list:
        """Remove and return every queued item (shutdown path)."""
        return self.remove(lambda item: True)

    # -- introspection --------------------------------------------------------------
    def depth(self) -> int:
        with self._lock:
            return sum(len(t.queued) for t in self._tenants.values())

    def depth_by_tenant(self) -> dict[str, int]:
        with self._lock:
            return {name: len(state.queued)
                    for name, state in sorted(self._tenants.items())
                    if state.queued}

    def snapshot(self) -> dict:
        """JSON-safe view for ``/healthz`` and the doctor."""
        with self._lock:
            return {
                name: {
                    "queued": len(state.queued),
                    "quota": self.quota,
                    "virtual_service": state.virtual_service,
                }
                for name, state in sorted(self._tenants.items())
            }
