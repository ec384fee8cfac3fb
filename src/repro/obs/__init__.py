"""Observability: metrics, tracing, telemetry, SLOs, profile exporters.

Small modules with one job each:

* :mod:`repro.obs.metrics` — process-wide counters / gauges /
  histograms, free when disabled, thread-safe when enabled;
* :mod:`repro.obs.tracing` — nested wall-clock spans propagated via
  ``contextvars``;
* :mod:`repro.obs.tracectx` — request-scoped trace ids, minted at serve
  admission and propagated with the same ``contextvars`` discipline;
* :mod:`repro.obs.tracestore` — tail-sampled bounded retention of
  finished traces, critical-path analysis, Chrome trace export;
* :mod:`repro.obs.timeseries` — sliding windows (1s/10s/60s) over the
  per-second buckets the registry keeps for serving/query/shard
  metrics, feeding the live dashboards and carrying tail exemplars
  (trace ids of the slowest observations);
* :mod:`repro.obs.slo` — declared objectives with multi-window
  burn-rate alerting over those windows;
* :mod:`repro.obs.events` — sampled structured event log, one record
  per query / batch / flush / build-chunk / SLO lifecycle, trace-id
  stamped; its :class:`~repro.obs.events.EventLog` is also the
  workload capture's class;
* :mod:`repro.obs.analytics` — bounded cell/page access heatmaps,
  per-shard load shares and the workload-skew report (``repro
  analyze``, ``GET /analytics``);
* :mod:`repro.obs.workload` — the one record per answered query that
  feeds metrics, windows, the heatmap, the event log and the capture
  (:func:`~repro.obs.workload.record_query` /
  :func:`~repro.obs.workload.record_batch`), and the sampled capture of
  served queries into a replayable log (``repro replay``);
* :mod:`repro.obs.promexport` — Prometheus text exposition plus the
  ``--metrics-port`` HTTP scrape endpoint (`/metrics`, `/telemetry`,
  `/trace/<id>`, `/healthz`);
* :mod:`repro.obs.export` — JSON / CSV / table exporters and the
  ``--profile`` document format.

See ``docs/observability.md`` for the metric-name and span taxonomy and
``docs/tracing.md`` for the trace lifecycle, tail sampling, exemplars
and SLO burn-rate semantics.
"""

from . import (
    analytics,
    events,
    export,
    metrics,
    promexport,
    slo,
    timeseries,
    tracectx,
    tracestore,
    tracing,
)
from . import workload
from .analytics import AccessRecorder, TopKSketch
from .events import EventLog
from .export import (
    ProfileDecodeError,
    ProfileError,
    ProfileSchemaError,
    ProfileVersionError,
    load_profile,
    metrics_table,
    metrics_to_csv,
    metrics_to_dict,
    span_to_dict,
    stats_table,
    trace_to_list,
    write_profile,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .promexport import (
    ExpositionNameError,
    MetricsServer,
    parse_exposition,
    render_prometheus,
    validate_metric_name,
)
from .slo import SLO, SLOWatchdog
from .timeseries import (
    dashboard,
    dashboard_line,
    telemetry_table,
)
from .tracestore import (
    StoredTrace,
    TraceStore,
    critical_path,
    to_chrome_trace,
)
from .tracing import Span, TraceCarrier, Tracer, carrier, current_span, span
from .workload import Workload, WorkloadRecorder, load_workload, save_workload_npz

__all__ = [
    "analytics",
    "workload",
    "metrics",
    "tracing",
    "tracectx",
    "tracestore",
    "timeseries",
    "slo",
    "events",
    "promexport",
    "export",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "EventLog",
    "AccessRecorder",
    "TopKSketch",
    "Workload",
    "WorkloadRecorder",
    "load_workload",
    "save_workload_npz",
    "MetricsServer",
    "ExpositionNameError",
    "validate_metric_name",
    "render_prometheus",
    "parse_exposition",
    "dashboard",
    "dashboard_line",
    "telemetry_table",
    "Span",
    "Tracer",
    "TraceCarrier",
    "carrier",
    "span",
    "current_span",
    "StoredTrace",
    "TraceStore",
    "critical_path",
    "to_chrome_trace",
    "SLO",
    "SLOWatchdog",
    "metrics_to_dict",
    "metrics_to_csv",
    "metrics_table",
    "stats_table",
    "span_to_dict",
    "trace_to_list",
    "write_profile",
    "load_profile",
    "ProfileError",
    "ProfileDecodeError",
    "ProfileVersionError",
    "ProfileSchemaError",
]
