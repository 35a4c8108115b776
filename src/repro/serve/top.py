"""``repro top`` — a live ANSI dashboard over a running daemon.

Polls ``/healthz`` + ``/metrics`` (JSON) on an interval and renders a
terminal frame: daemon vitals, per-tenant queue/latency table, firing
SLO alerts, and unicode sparklines over the poll history for queue
depth and wait latency.
Stdlib only — plain ANSI clear codes, no curses dependency — so it
works over ssh, in CI (``--once`` renders a single frame and exits),
and piped to a file.

Rendering is pure (:func:`render` takes the two documents plus the
client-side history and returns a string), so tests exercise frames
without a daemon or a TTY.
"""

from __future__ import annotations

import sys
import time
from collections import deque

from repro.errors import ServiceError
from repro.observability.metrics import quantile_from_cumulative

__all__ = ["render", "run_top", "sparkline"]

_BLOCKS = "▁▂▃▄▅▆▇█"
_CLEAR = "\x1b[2J\x1b[H"


def sparkline(values, width: int = 32) -> str:
    """Render the last ``width`` numeric values as unicode blocks."""
    vals = [v for v in values if v is not None][-width:]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span <= 0:
        return _BLOCKS[0] * len(vals)
    top = len(_BLOCKS) - 1
    return "".join(_BLOCKS[round((v - lo) / span * top)] for v in vals)


def _fmt_seconds(value) -> str:
    if value is None:
        return "-"
    value = float(value)
    if value >= 3600:
        return f"{value / 3600:.1f}h"
    if value >= 60:
        return f"{value / 60:.1f}m"
    if value >= 1:
        return f"{value:.1f}s"
    return f"{value * 1000:.0f}ms"


def _fmt_num(value) -> str:
    if value is None:
        return "-"
    value = float(value)
    if value == int(value) and abs(value) < 1e9:
        return str(int(value))
    return f"{value:.3g}"


def _counter_value(metrics: dict, name: str):
    cell = metrics.get(name)
    return cell.get("value") if isinstance(cell, dict) else None


def _hist_p99(metrics: dict, name: str):
    cell = metrics.get(name)
    if not isinstance(cell, dict):
        return None
    return quantile_from_cumulative(cell.get("cumulative") or [], 0.99)


def _tenant_names(health: dict, metrics: dict) -> list[str]:
    names = set((health.get("queue") or {}).keys())
    for name in metrics:
        parts = name.split(".")
        if len(parts) >= 4 and parts[0] == "serve" and parts[1] == "tenant":
            names.add(parts[2])
    return sorted(names)


def _series(history, name: str, field: str = "value") -> list:
    """Extract one metric field across the polled snapshots."""
    out = []
    for _, metrics in history:
        cell = metrics.get(name)
        out.append(cell.get(field) if isinstance(cell, dict) else None)
    return out


def render(health: dict, metrics: dict, history=None, width: int = 100) -> str:
    """One dashboard frame as a string (no ANSI clear — caller's job)."""
    history = history or []
    lines: list[str] = []
    status = health.get("status", "?")
    jobs = health.get("jobs") or {}
    alerts = health.get("alerts") or []
    telemetry = health.get("telemetry") or {}
    lines.append(
        f"repro top — pid {health.get('pid', '?')}  status={status}  "
        f"uptime {_fmt_seconds(health.get('uptime_seconds'))}  "
        f"alerts {len(alerts)}"
    )
    lines.append(
        "jobs: "
        + (" ".join(f"{state}={count}"
                    for state, count in sorted(jobs.items())) or "none yet")
        + f"   http_requests={_fmt_num(_counter_value(metrics, 'serve.http_requests'))}"
        + f"   telemetry_samples={telemetry.get('samples', 0)}"
    )
    wait = health.get("wait_seconds") or {}
    lines.append(
        f"wait: p50={_fmt_seconds(wait.get('p50'))} "
        f"p95={_fmt_seconds(wait.get('p95'))}   "
        f"cache_hits={_fmt_num(_counter_value(metrics, 'serve.cache_hits'))}"
    )

    # -- tenants --------------------------------------------------------
    queue = health.get("queue") or {}
    tenants = _tenant_names(health, metrics)
    if tenants:
        lines.append("")
        lines.append(f"{'tenant':<16} {'queued':>6} {'weight':>6} "
                     f"{'done':>6} {'rejected':>8} {'e2e p99':>9}")
        for tenant in tenants:
            qdoc = queue.get(tenant) or {}
            prefix = f"serve.tenant.{tenant}"
            lines.append(
                f"{tenant[:16]:<16} "
                f"{_fmt_num(qdoc.get('queued')):>6} "
                f"{_fmt_num(qdoc.get('weight')):>6} "
                f"{_fmt_num(_counter_value(metrics, f'{prefix}.completed')):>6} "
                f"{_fmt_num(_counter_value(metrics, f'{prefix}.rejected')):>8} "
                f"{_fmt_seconds(_hist_p99(metrics, f'{prefix}.e2e_seconds')):>9}"
            )

    # -- sparklines over the poll history -------------------------------
    if len(history) >= 2:
        lines.append("")
        spark_width = max(min(width - 30, 48), 8)
        depth = _series(history, "serve.queue_depth")
        if any(v is not None for v in depth):
            now = next((v for v in reversed(depth) if v is not None), 0)
            lines.append(f"queue depth   {sparkline(depth, spark_width):<{spark_width}} "
                         f"now {_fmt_num(now)}")
        waits = [
            None if cell is None
            else quantile_from_cumulative(cell.get("cumulative") or [], 0.95)
            for cell in (m.get("serve.wait_seconds") for _, m in history)
        ]
        if any(v is not None for v in waits):
            now = next((v for v in reversed(waits) if v is not None), 0.0)
            lines.append(f"wait p95      {sparkline(waits, spark_width):<{spark_width}} "
                         f"now {_fmt_seconds(now)}")

    # -- alerts ---------------------------------------------------------
    if alerts:
        lines.append("")
        for alert in alerts:
            tenant = alert.get("tenant")
            scope = f" tenant={tenant}" if tenant else ""
            lines.append(
                f"! {alert.get('rule', '?')}{scope}: "
                f"{alert.get('detail', '')} "
                f"(since {_fmt_seconds(time.time() - alert['since_unix'])} ago)"
                if alert.get("since_unix")
                else f"! {alert.get('rule', '?')}{scope}: {alert.get('detail', '')}"
            )
    return "\n".join(line[:width] for line in lines)


def run_top(client, interval: float = 2.0, iterations: int | None = None,
            clear: bool = True, out=None, width: int = 100) -> int:
    """Poll-and-render loop; returns an exit code for the CLI.

    ``iterations=None`` runs until interrupted; ``iterations=1`` (the
    ``--once`` flag) renders a single frame — what the smoke test runs
    against a live daemon.
    """
    out = out if out is not None else sys.stdout
    history: deque = deque(maxlen=64)
    frames = 0
    while True:
        code_h, health = client.healthz()
        code_m, metrics = client.metrics()
        if code_h != 200 or code_m != 200:
            raise ServiceError(
                f"daemon unhealthy: /healthz={code_h} /metrics={code_m}")
        history.append((time.time(), metrics))
        frame = render(health, metrics, history=list(history), width=width)
        if clear:
            out.write(_CLEAR)
        out.write(frame + "\n")
        out.flush()
        frames += 1
        if iterations is not None and frames >= iterations:
            return 0
        time.sleep(interval)
