"""``repro.serve`` — the persistent mapping daemon and its client.

Layers, bottom up:

- :mod:`repro.serve.queueing` — fair tenant queues (stride scheduling
  + aging; per-tenant quotas);
- :mod:`repro.serve.daemon` — the asyncio daemon itself: scheduler over
  the supervised engine, graceful SIGTERM drain to ``pending.json``,
  startup auto-requeue, periodic doctor janitor;
- :mod:`repro.serve.http` — stdlib HTTP/1.1 JSON front-end;
- :mod:`repro.serve.client` — :class:`ServeClient` used by the
  ``repro submit/status/result/cancel`` subcommands.
"""

from repro.serve.client import ServeClient, discover_url
from repro.serve.daemon import (
    DEFAULT_TENANT,
    READY_NAME,
    DaemonConfig,
    JobRecord,
    MappingDaemon,
)
from repro.serve.queueing import FairQueue, QuotaExceeded

__all__ = [
    "DEFAULT_TENANT",
    "DaemonConfig",
    "FairQueue",
    "JobRecord",
    "MappingDaemon",
    "QuotaExceeded",
    "READY_NAME",
    "ServeClient",
    "discover_url",
]
