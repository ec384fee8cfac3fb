"""Windowed live telemetry: sliding windows over per-second buckets.

The cumulative registry (:mod:`repro.obs.metrics`) answers "how much
work has this process done"; an *operator* asks a different question —
what is the p99 latency, queue depth and fallback rate **right now**.
The registry keeps the raw material: a metric named under
:data:`~repro.obs.metrics.WINDOW_PREFIXES` (``serve.``, ``query.`` and
``shard.``) fills one bucket per wall-clock second next to its
cumulative value, under the same lock.  This module is the read side:
a *window* merges the last N seconds of buckets into rates and
percentiles.

Design constraints, matching the rest of ``repro.obs``:

1. **Bounded memory.**  Each windowed metric holds a ring of
   :data:`~repro.obs.metrics.WINDOW_HORIZON_SECONDS` (120) buckets and
   reuses slots modulo the horizon, so a month-long serve process
   stores exactly as much as a two-minute one.  Per-bucket samples are
   reservoir-capped at :data:`~repro.obs.metrics.BUCKET_SAMPLE_CAP`
   (512, seeded, deterministic).
2. **Cheap and optional.**  Buckets fill only while the registry's
   windows are on (:meth:`~repro.obs.metrics.MetricsRegistry
   .enable_windows`, which :class:`~repro.serve.telemetry
   .TelemetrySession` calls); the disabled metrics fast path is
   untouched.
3. **Selective.**  Only the three prefixes are windowed — build-time
   counter storms do not churn the serving dashboard.

The standard windows are 1s / 10s / 60s (:data:`DEFAULT_WINDOWS`);
:func:`dashboard` condenses one window into the operator quantities
(QPS, p50/p99, queue depth, fallback %) and :func:`dashboard_line` /
:func:`telemetry_table` render them for ``serve --stats-interval`` and
``stats --watch``.  See ``docs/observability.md`` ("Live telemetry").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .metrics import (
    BUCKET_EXEMPLAR_CAP,
    WINDOW_HORIZON_SECONDS,
    Bucket,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "DEFAULT_WINDOWS",
    "MetricWindow",
    "WindowSnapshot",
    "dashboard",
    "dashboard_line",
    "telemetry_table",
    "window",
    "windows",
]

#: Sliding windows (seconds) rendered by the dashboard surfaces.
DEFAULT_WINDOWS: "Tuple[int, ...]" = (1, 10, 60)

_COUNTER = "counter"
_HISTOGRAM = "histogram"
_GAUGE = "gauge"


class MetricWindow(Histogram):
    """One metric aggregated over one sliding window.

    A :class:`~repro.obs.metrics.Histogram` of the window's buckets
    (their count, sum, min, max and samples, merged), plus the metric's
    kind, the last value and the tail exemplars.
    """

    __slots__ = ("kind", "seconds", "last", "_exemplars")

    def __init__(self, name: str, kind: str, seconds: float):
        super().__init__(name)
        self.kind = kind
        self.seconds = seconds
        self.last = 0.0
        self._exemplars: "List[Tuple[float, str]]" = []

    def _merge(self, bucket: Bucket) -> None:
        self.count += bucket.count
        self.total += bucket.total
        if bucket.min < self.min:
            self.min = bucket.min
        if bucket.max > self.max:
            self.max = bucket.max
        self.last = bucket.last  # buckets are merged oldest -> newest
        self._samples.extend(bucket._samples)
        if bucket.exemplars:
            self._exemplars.extend(bucket.exemplars)
            self._exemplars.sort(key=lambda e: e[0], reverse=True)
            del self._exemplars[BUCKET_EXEMPLAR_CAP:]

    @property
    def rate(self) -> float:
        """Per-second rate over the window.

        Counters: *amount* per second (e.g. pages/s); histograms:
        *observations* per second (e.g. completed queries per second for
        a latency histogram); gauges have no meaningful rate (0.0).
        """
        if self.seconds <= 0 or self.kind == _GAUGE:
            return 0.0
        if self.kind == _COUNTER:
            return self.total / self.seconds
        return self.count / self.seconds

    def fraction_above(self, threshold: float) -> float:
        """Fraction of the window's observations above ``threshold``.

        The bad-event fraction used by latency SLOs
        (:mod:`repro.obs.slo`).  Computed over the reservoir sample, so
        it is exact until a bucket overflows ``BUCKET_SAMPLE_CAP`` and a
        sound estimate after.  Empty windows report 0.0.
        """
        if not self._samples:
            return 0.0
        above = sum(1 for v in self._samples if v > threshold)
        return above / len(self._samples)

    def exemplars(self) -> "List[Tuple[float, str]]":
        """The window's tail exemplars: ``(value, trace_id)``, largest
        first.  Only observations recorded with a trace id appear."""
        return list(self._exemplars)

    def summary(self) -> "Dict[str, float]":
        """JSON-ready aggregate view (used by the /telemetry endpoint)."""
        if self.count == 0:
            return {"count": 0, "rate": 0.0}
        out = {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "rate": self.rate,
            "last": self.last,
        }
        if self.kind == _HISTOGRAM:
            out["p50"], out["p95"], out["p99"] = self.percentiles(50, 95, 99)
            if self._exemplars:
                # Tail exemplars: /telemetry consumers resolve these ids
                # against the trace store (GET /trace/<id>).
                out["exemplars"] = [
                    {"value": value, "trace_id": trace_id}
                    for value, trace_id in self._exemplars
                ]
        return out


class WindowSnapshot:
    """All tracked metrics aggregated over one sliding window."""

    def __init__(self, seconds: float, metrics: "Dict[str, MetricWindow]"):
        self.seconds = seconds
        self.metrics = metrics

    def get(self, name: str) -> "Optional[MetricWindow]":
        return self.metrics.get(name)

    def names(self) -> "List[str]":
        return sorted(self.metrics)

    def total(self, name: str, default: float = 0.0) -> float:
        window = self.metrics.get(name)
        return window.total if window is not None else default

    def count(self, name: str, default: int = 0) -> int:
        window = self.metrics.get(name)
        return window.count if window is not None else default

    def as_dict(self) -> "Dict[str, Dict[str, float]]":
        return {
            name: self.metrics[name].summary() for name in self.names()
        }


def window(registry: MetricsRegistry, seconds: int) -> WindowSnapshot:
    """The last ``seconds`` of ``registry``'s buckets (current second
    included), merged per metric.

    ``seconds`` is clamped to the ring horizon.  Rates divide by the
    nominal window length, so a window that is still filling reports a
    conservative (lower) rate rather than an extrapolated one.  With
    the registry's windows off the snapshot is empty.
    """
    if seconds < 1:
        raise ValueError("window seconds must be >= 1")
    seconds = min(int(seconds), WINDOW_HORIZON_SECONDS)
    merged: "Dict[str, MetricWindow]" = {}

    def merge(name: str, kind: str, bucket: Bucket) -> None:
        metric = merged.get(name)
        if metric is None:
            metric = merged[name] = MetricWindow(name, kind, float(seconds))
        metric._merge(bucket)

    registry.visit_windows(seconds, merge)
    return WindowSnapshot(float(seconds), merged)


def windows(
    registry: MetricsRegistry, seconds: "Sequence[int]" = DEFAULT_WINDOWS
) -> "Dict[int, WindowSnapshot]":
    """The standard multi-window view: ``{1: ..., 10: ..., 60: ...}``."""
    return {int(s): window(registry, int(s)) for s in seconds}


# ======================================================================
# Dashboard condensation
# ======================================================================

#: Latency histograms the dashboard looks for, in preference order:
#: the serving layer's enqueue-to-answer latency, then the client-side
#: latency recorded by ``stats --watch``.
_LATENCY_METRICS = ("serve.latency_ms", "query.latency_ms")

#: Counters summed into the dashboard's "fallback" rate: any answer
#: that left the fast path (service degradation rungs, out-of-space or
#: empty-point-query branch-and-bound fallbacks).  ``serve.fallback``
#: is dimensional (``stage=`` label), so every labeled child is summed.
_FALLBACK_METRICS = (
    "serve.fallback",
    "query.fallbacks",
)


def _fallback_total(snapshot: WindowSnapshot) -> float:
    """Sum the fallback counters, including labeled children."""
    total = 0.0
    for base in _FALLBACK_METRICS:
        prefix = base + "{"
        total += snapshot.total(base)
        total += sum(
            window.total
            for name, window in snapshot.metrics.items()
            if name.startswith(prefix)
        )
    return total


def dashboard(
    registry: MetricsRegistry, seconds: int = 10
) -> "Dict[str, float]":
    """One window condensed into the operator quantities.

    QPS and percentiles come from the first latency histogram with
    traffic in the window (``serve.latency_ms``, else
    ``query.latency_ms``); queue depth is the last gauge value;
    ``fallback_pct`` is the share of completions that took any fallback
    path.
    """
    snapshot = window(registry, seconds)
    latency = None
    for name in _LATENCY_METRICS:
        candidate = snapshot.get(name)
        if candidate is not None and candidate.count:
            latency = candidate
            break
    completed = latency.count if latency is not None else 0
    depth = snapshot.get("serve.queue.depth")
    fallbacks = _fallback_total(snapshot)
    return {
        "window_s": float(snapshot.seconds),
        "completed": float(completed),
        "qps": latency.rate if latency is not None else 0.0,
        "p50_ms": latency.percentile(50) if latency is not None else 0.0,
        "p99_ms": latency.percentile(99) if latency is not None else 0.0,
        "max_ms": (
            latency.max if latency is not None and completed else 0.0
        ),
        "queue_depth": depth.last if depth is not None else 0.0,
        "fallback_pct": 100.0 * fallbacks / completed if completed else 0.0,
    }


def dashboard_line(registry: MetricsRegistry, seconds: int = 10) -> str:
    """The one-line dashboard printed by ``serve --stats-interval``."""
    d = dashboard(registry, seconds)
    return (
        f"[telemetry {int(d['window_s']):>3d}s] "
        f"qps={d['qps']:8.1f}  "
        f"p50={d['p50_ms']:7.2f}ms  "
        f"p99={d['p99_ms']:7.2f}ms  "
        f"queue={d['queue_depth']:5.0f}  "
        f"fallback={d['fallback_pct']:5.1f}%"
    )


def telemetry_table(
    registry: MetricsRegistry,
    windows: "Sequence[int]" = DEFAULT_WINDOWS,
    title: str = "Live telemetry",
):
    """The multi-window dashboard as a printable ``ResultTable``.

    Rendered by ``stats --watch`` and ``serve --stats`` shutdown output;
    the import is lazy so ``repro.obs`` stays dependency-free.
    """
    from ..eval.reporting import ResultTable

    table = ResultTable(
        title,
        ["window", "qps", "p50_ms", "p99_ms", "max_ms", "queue_depth",
         "fallback_pct"],
    )
    for seconds in windows:
        d = dashboard(registry, int(seconds))
        table.add_row(
            window=f"{int(seconds)}s",
            qps=d["qps"],
            p50_ms=d["p50_ms"],
            p99_ms=d["p99_ms"],
            max_ms=d["max_ms"],
            queue_depth=d["queue_depth"],
            fallback_pct=d["fallback_pct"],
        )
    return table
