"""Observability: pipeline tracing + process-wide metrics.

- :mod:`repro.observability.trace` — nestable spans recorded into a
  per-run tree, exportable as JSONL and Chrome trace-event JSON. Off by
  default: a disabled :func:`span` is a shared no-op.
- :mod:`repro.observability.metrics` — counters, gauges and log-scale
  histograms in one process-wide :class:`MetricsRegistry` with a
  snapshot API.
- :mod:`repro.observability.attribution` — the sparse flow x link
  matrix decomposing per-channel loads into per-flow contributions.
- :mod:`repro.observability.netview` — hotspot reports, load-balance
  statistics, saturation cross-checks and mapping diffs built on the
  attribution, exported as schema-versioned JSON artifacts.

See ``docs/observability.md`` for the span taxonomy and metric names.
"""

from repro.observability.attribution import (
    FlowLinkAttribution,
    attribute_flows,
    attribute_mapping,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.observability.netview import (
    NETVIEW_SCHEMA_VERSION,
    MappingDiff,
    NetView,
    build_netview,
    diff_mappings,
    gini,
    load_stats,
    netview_summary,
)
from repro.observability.trace import (
    TRACE_SCHEMA_VERSION,
    Span,
    Tracer,
    activate,
    active_tracer,
    clear_active_tracer,
    event,
    span,
)

__all__ = [
    "NETVIEW_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "Counter",
    "FlowLinkAttribution",
    "Gauge",
    "Histogram",
    "MappingDiff",
    "MetricsRegistry",
    "NetView",
    "Span",
    "Tracer",
    "activate",
    "active_tracer",
    "attribute_flows",
    "attribute_mapping",
    "build_netview",
    "clear_active_tracer",
    "diff_mappings",
    "event",
    "get_registry",
    "gini",
    "load_stats",
    "netview_summary",
    "span",
]
