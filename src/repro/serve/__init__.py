"""``repro.serve`` — the persistent mapping daemon and its client.

Layers, bottom up:

- :mod:`repro.serve.queueing` — weighted-fair tenant queues (stride
  scheduling + aging; per-tenant quotas);
- :mod:`repro.serve.admission` — deadline-seconds admission control
  (admit / degrade-to-tighter-deadline / reject);
- :mod:`repro.serve.daemon` — the asyncio daemon itself: scheduler over
  the supervised engine, graceful SIGTERM drain to ``pending.json``,
  startup auto-requeue, periodic doctor janitor;
- :mod:`repro.serve.slo` — per-tenant SLO rules (p99 latency, reject
  rate) evaluated on the telemetry cadence;
- :mod:`repro.serve.http` — stdlib HTTP/1.1 JSON front-end (plus the
  Prometheus plain-text exposition on ``/metrics?format=prometheus``);
- :mod:`repro.serve.client` — :class:`ServeClient` used by the
  ``repro submit/status/result/cancel`` subcommands;
- :mod:`repro.serve.top` — the ``repro top`` live dashboard over
  ``/healthz`` + ``/metrics``.
"""

from repro.serve.admission import AdmissionController, AdmissionDecision
from repro.serve.client import ServeClient, discover_url
from repro.serve.daemon import (
    DEFAULT_TENANT,
    READY_NAME,
    DaemonConfig,
    JobRecord,
    MappingDaemon,
)
from repro.serve.queueing import FairQueue, QuotaExceeded, TenantPolicy
from repro.serve.slo import SloEvaluator, SloPolicy

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "DEFAULT_TENANT",
    "DaemonConfig",
    "FairQueue",
    "JobRecord",
    "MappingDaemon",
    "QuotaExceeded",
    "READY_NAME",
    "ServeClient",
    "SloEvaluator",
    "SloPolicy",
    "TenantPolicy",
    "discover_url",
]
