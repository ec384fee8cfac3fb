"""Configuration of the concurrent query service.

The three knobs mirror the three subsystems of ``QueryService`` (see
``docs/serving.md`` for the operational guidance):

* **Micro-batching** — ``max_batch_size`` bounds how many queries one
  flush coalesces.  The flusher never waits for company: it takes what
  queued while the previous flush ran, so a lone caller is answered at
  once and a busy service flushes full batches back to back.
* **Admission control** — ``max_queue_depth`` bounds the pending queue;
  ``admission`` picks what happens to a submission that finds it full:
  ``"reject"`` raises :class:`~repro.serve.errors.ServiceOverloaded`
  immediately (shed load, keep latency), ``"block"`` makes the caller
  wait for space (keep work, transfer the queueing upstream).
* **Deadlines** — ``default_timeout_ms`` applies to submissions that do
  not carry their own timeout; expired requests are cancelled rather
  than computed.  :func:`check_timeout_ms` is the one rule every
  timeout passes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

__all__ = ["ServeConfig", "TelemetryConfig", "check_timeout_ms"]


def check_timeout_ms(value: object, name: str = "timeout_ms") -> float:
    """``value`` as a timeout in milliseconds, or ``ValueError``.

    A timeout is a real number, not a bool, finite and > 0.  Timeouts
    arrive from outside the program (a JSONL request, a CLI flag); a
    string or an infinite one would crash a wait, and a NaN would expire
    its request at once.
    """
    if (
        not isinstance(value, numbers.Real)
        or isinstance(value, bool)
        or not math.isfinite(value)
        or value <= 0
    ):
        raise ValueError(
            f"{name} must be a finite number of milliseconds > 0,"
            f" got {value!r}"
        )
    return float(value)


@dataclass(frozen=True)
class ServeConfig:
    """Tuning parameters of a :class:`~repro.serve.service.QueryService`."""

    #: Most queries one flush may coalesce into a single batched walk.
    max_batch_size: int = 32
    #: Pending-queue bound for admission control; ``None`` = unbounded
    #: (no backpressure — only sensible for trusted in-process callers).
    max_queue_depth: "int | None" = 1024
    #: ``"reject"`` -> raise ``ServiceOverloaded`` when the queue is
    #: full; ``"block"`` -> make the submitter wait for space.
    admission: str = "reject"
    #: Deadline (milliseconds from submission) applied to requests that
    #: do not pass their own ``timeout_ms``; ``None`` = no deadline.
    default_timeout_ms: "float | None" = None

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 or None")
        if self.admission not in ("reject", "block"):
            raise ValueError("admission must be 'reject' or 'block'")
        if self.default_timeout_ms is not None:
            check_timeout_ms(self.default_timeout_ms, "default_timeout_ms")


@dataclass(frozen=True)
class TelemetryConfig:
    """What live telemetry a serving process turns on.

    Everything defaults to *off* — the disabled fast path stays one
    boolean check per event site.  Activated by
    :class:`~repro.serve.telemetry.TelemetrySession`, which owns the
    setup/teardown; the CLI maps ``serve --metrics-port /
    --stats-interval / --events`` onto these fields (``stats --watch``
    uses the same machinery without a service).
    """

    #: Bind a Prometheus scrape endpoint on this port (``0`` = ephemeral,
    #: read the bound port back from the session); ``None`` = no endpoint.
    metrics_port: "Optional[int]" = None
    #: Interface the scrape endpoint binds; loopback unless fronted by a
    #: real proxy.
    metrics_host: str = "127.0.0.1"
    #: Print a windowed dashboard line to stderr every N seconds
    #: (``serve --stats-interval``); ``0`` = never.
    stats_interval_s: float = 0.0
    #: Append one JSONL record per sampled lifecycle event to this path;
    #: ``None`` leaves the event log off.
    events_path: "Optional[str]" = None
    #: Event sampling rate in [0, 1] (1 = every lifecycle).
    events_sample: float = 1.0
    #: Turn on span recording into a tail-sampled
    #: :class:`~repro.obs.tracestore.TraceStore` (request traces,
    #: exemplar links, ``/trace/<id>``, ``repro trace``).
    tracing: bool = False
    #: Slowest-trace retention bound of the store (see
    #: :data:`repro.obs.tracestore.DEFAULT_CAPACITY`).
    trace_capacity: int = 256
    #: Run the SLO burn-rate watchdog (``serve.slo.*`` gauges, alert
    #: state on /telemetry, 503 /healthz while paging).
    slo: bool = False
    #: Watchdog evaluation cadence, seconds.
    slo_interval_s: float = 1.0
    #: Run the workload-analytics access recorder (cell/page heatmaps,
    #: per-shard load shares, ``GET /analytics``, ``repro analyze``).
    analytics: bool = False
    #: Capture served queries and their answers to this workload log
    #: (JSONL; replayable with ``repro replay``); ``None`` = no capture.
    capture_path: "Optional[str]" = None
    #: Workload capture sampling rate in (0, 1] (1 = every query).
    capture_sample: float = 1.0

    def __post_init__(self):
        if self.metrics_port is not None and not (
            0 <= self.metrics_port <= 65535
        ):
            raise ValueError("metrics_port must be in [0, 65535] or None")
        if self.stats_interval_s < 0.0:
            raise ValueError("stats_interval_s must be >= 0")
        if not 0.0 <= self.events_sample <= 1.0:
            raise ValueError("events_sample must be in [0, 1]")
        if self.trace_capacity < 1:
            raise ValueError("trace_capacity must be >= 1")
        if self.slo_interval_s <= 0.0:
            raise ValueError("slo_interval_s must be > 0")
        if not 0.0 < self.capture_sample <= 1.0:
            raise ValueError("capture_sample must be in (0, 1]")

    @property
    def active(self) -> bool:
        """Whether any telemetry surface is requested at all."""
        return (
            self.metrics_port is not None
            or self.stats_interval_s > 0.0
            or self.events_path is not None
            or self.tracing
            or self.slo
            or self.analytics
            or self.capture_path is not None
        )
