"""Process-wide metrics: counters, gauges, log-scale histograms.

One :class:`MetricsRegistry` per process (:func:`get_registry`) collects
named instruments from every subsystem — MILP solve times, LP sizes, beam
candidates explored, cache hits/misses, degradation events, executor
retries. A :meth:`MetricsRegistry.snapshot` is a plain sorted dict, ready
for JSON, logging, or the CLI's ``--metrics`` table.

Instruments are designed for the hot path: callers bind the instrument
object once (``self._hits = registry.counter("router.stencil_hits")``) and
pay one attribute add per observation. Histograms bucket by power of two
(``bucket e`` counts values in ``[2^e, 2^(e+1))``), which spans the
nanoseconds-to-minutes range of solver timings in ~60 buckets.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that can move both ways (last-set or accumulated)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)

    def add(self, d: float) -> None:
        self.value += d

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


#: Exponent clamp: 2^-30 (~1ns as seconds) .. 2^63.
_MIN_EXP, _MAX_EXP = -30, 63


class Histogram:
    """Log2-bucketed distribution with count/sum/min/max.

    ``record(v)`` files ``v`` under bucket ``floor(log2(v))`` (clamped);
    non-positive values land in the dedicated ``zero`` bucket.
    """

    __slots__ = ("name", "buckets", "zero", "count", "total", "vmin", "vmax")

    def __init__(self, name: str):
        self.name = name
        self.buckets: dict[int, int] = {}
        self.zero = 0
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf

    def record(self, v: float) -> None:
        v = float(v)
        self.count += 1
        self.total += v
        if v < self.vmin:
            self.vmin = v
        if v > self.vmax:
            self.vmax = v
        if v <= 0.0:
            self.zero += 1
            return
        e = min(max(int(math.floor(math.log2(v))), _MIN_EXP), _MAX_EXP)
        self.buckets[e] = self.buckets.get(e, 0) + 1

    def quantile(self, q: float) -> float | None:
        """Approximate the ``q``-quantile from the log2 buckets.

        Accurate to within a factor of two (a bucket spans one octave);
        the returned value is the geometric midpoint of the bucket the
        quantile sample falls in. Used by the serve daemon's health
        endpoint for wait-time p50/p95 without storing raw samples.
        Returns ``None`` on an empty histogram.
        """
        if self.count == 0:
            return None
        q = min(max(q, 0.0), 1.0)
        rank = q * (self.count - 1)
        seen = self.zero
        if rank < seen:
            return 0.0
        for e in sorted(self.buckets):
            seen += self.buckets[e]
            if rank < seen:
                return 2.0 ** e * 1.5
        return self.vmax

    def snapshot(self) -> dict:
        buckets = {f"2^{e}": self.buckets[e] for e in sorted(self.buckets)}
        if self.zero:
            buckets = {"zero": self.zero, **buckets}
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.vmin if self.count else None,
            "max": self.vmax if self.count else None,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Name -> instrument map with get-or-create accessors.

    Creation is locked (instruments may be bound from worker threads);
    observation is lock-free — CPython's GIL makes the float adds safe
    enough for telemetry.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict[str, object] = {}

    def _get(self, name: str, cls):
        inst = self._instruments.get(name)
        if inst is None:
            with self._lock:
                inst = self._instruments.get(name)
                if inst is None:
                    inst = cls(name)
                    self._instruments[name] = inst
        if not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> dict:
        """All instruments as a sorted ``{name: {...}}`` dict."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }

    def counter_values(self) -> dict[str, float]:
        """Every counter's current value, by name."""
        return {name: inst.value
                for name, inst in list(self._instruments.items())
                if isinstance(inst, Counter)}

    def reset(self) -> None:
        """Drop every instrument (tests; callers re-bind lazily)."""
        with self._lock:
            self._instruments.clear()

    def report(self) -> str:
        """Human-readable table for the CLI's ``--metrics``."""
        lines = [f"{'metric':<44} {'type':<9} value"]
        for name, snap in self.snapshot().items():
            if snap["type"] == "histogram" and snap["count"]:
                value = (
                    f"count={snap['count']} sum={snap['sum']:.6g} "
                    f"min={snap['min']:.6g} max={snap['max']:.6g}"
                )
            elif snap["type"] == "histogram":
                value = "count=0"
            else:
                value = f"{snap['value']:.6g}"
            lines.append(f"{name:<44} {snap['type']:<9} {value}")
        return "\n".join(lines)


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every subsystem records into."""
    return _REGISTRY
