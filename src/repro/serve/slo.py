"""Per-tenant SLO rules evaluated on the daemon's telemetry cadence.

An :class:`SloPolicy` names the thresholds an operator cares about —
per-tenant p99 end-to-end latency, per-tenant reject rate, fleet-wide
lease deaths per minute — and :class:`SloEvaluator` turns the metrics
registry into a list of *firing alerts* each time the janitor's
telemetry tick runs. Alerts are plain dicts surfaced verbatim in
``/healthz`` (and rendered by ``repro top``); each carries ``since_unix``
so an alert that keeps firing across ticks keeps its original onset
time rather than flapping.

The evaluator reads the same instruments the daemon already records
(``serve.tenant.<t>.e2e_seconds`` / ``.submitted`` / ``.rejected``,
``fleet.reclaims``), so the rules need no extra bookkeeping in the
request path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.observability.metrics import MetricsRegistry

__all__ = ["SloEvaluator", "SloPolicy"]


@dataclass(frozen=True)
class SloPolicy:
    """Alert thresholds; ``None`` disables a rule.

    A tenant's latency and reject-rate rules evaluate once it has one e2e
    sample (or one submission, for the reject rule).
    """

    p99_latency_seconds: float | None = None
    reject_rate: float | None = None
    lease_deaths_per_minute: float | None = None

    def __post_init__(self):
        for field in ("p99_latency_seconds", "reject_rate",
                      "lease_deaths_per_minute"):
            value = getattr(self, field)
            if value is not None and value <= 0:
                raise ValueError(f"{field} must be > 0, got {value}")

    @property
    def active(self) -> bool:
        return any(value is not None for value in (
            self.p99_latency_seconds, self.reject_rate,
            self.lease_deaths_per_minute))


class SloEvaluator:
    """Stateful rule evaluation over a metrics registry.

    State is minimal: which alerts were firing at the previous tick
    (for stable ``since_unix``) and the previous ``fleet.reclaims``
    reading (the lease-death rule is a rate over the tick interval).
    """

    def __init__(self, registry: MetricsRegistry, policy: SloPolicy):
        self.registry = registry
        self.policy = policy
        self._firing: dict[tuple, dict] = {}
        self._last_reclaims: tuple[float, float] | None = None

    def evaluate(self, tenants, now: float | None = None) -> list[dict]:
        """Evaluate every rule; returns the currently firing alerts."""
        now = time.time() if now is None else float(now)
        policy = self.policy
        if not policy.active:
            return []
        current: dict[tuple, dict] = {}

        for tenant in sorted(set(tenants)):
            prefix = f"serve.tenant.{tenant}"
            if policy.p99_latency_seconds is not None:
                hist = self.registry.histogram(f"{prefix}.e2e_seconds")
                if hist.count:
                    p99 = hist.quantile(0.99)
                    if p99 is not None and p99 > policy.p99_latency_seconds:
                        current[("p99_latency", tenant)] = {
                            "value": p99,
                            "threshold": policy.p99_latency_seconds,
                            "detail": (f"e2e p99 {p99:.4g}s > "
                                       f"{policy.p99_latency_seconds:.4g}s "
                                       f"over {hist.count} jobs"),
                        }
            if policy.reject_rate is not None:
                submitted = self.registry.counter(f"{prefix}.submitted").value
                rejected = self.registry.counter(f"{prefix}.rejected").value
                if submitted > 0:
                    rate = rejected / submitted
                    if rate > policy.reject_rate:
                        current[("reject_rate", tenant)] = {
                            "value": rate,
                            "threshold": policy.reject_rate,
                            "detail": (f"{rejected:.0f}/{submitted:.0f} "
                                       f"submissions rejected "
                                       f"({rate:.1%} > "
                                       f"{policy.reject_rate:.1%})"),
                        }

        if policy.lease_deaths_per_minute is not None:
            reclaims = self.registry.counter("fleet.reclaims").value
            if self._last_reclaims is not None:
                then, before = self._last_reclaims
                dt = now - then
                if dt > 0:
                    per_minute = max(reclaims - before, 0.0) / dt * 60.0
                    if per_minute > policy.lease_deaths_per_minute:
                        current[("lease_deaths", None)] = {
                            "value": per_minute,
                            "threshold": policy.lease_deaths_per_minute,
                            "detail": (f"{per_minute:.2f} lease deaths/min "
                                       f"> {policy.lease_deaths_per_minute:.2f}"),
                        }
            self._last_reclaims = (now, reclaims)

        firing: dict[tuple, dict] = {}
        for key, info in current.items():
            rule, tenant = key
            since = self._firing.get(key, {}).get("since_unix", now)
            firing[key] = {
                "rule": rule, "tenant": tenant, "since_unix": since, **info}
        self._firing = firing
        return [firing[key] for key in sorted(firing, key=str)]
