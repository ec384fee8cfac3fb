"""Lifecycle of a serving process's live telemetry.

:class:`TelemetrySession` is the one place that knows how the pieces of
``repro.obs`` compose into an *operational* surface: it enables the
metrics registry and its per-second windows, optionally turns on the
structured event log with a JSONL sink, optionally installs a tail-sampled
:class:`~repro.obs.tracestore.TraceStore` and records spans into it,
optionally runs the :class:`~repro.obs.slo.SLOWatchdog`, optionally
binds the Prometheus scrape endpoint, and can run a periodic stderr
dashboard printer — then tears all of it down in reverse order.  The
CLI's ``serve --metrics-port / --stats-interval / --events / --tracing
/ --slo`` flags, ``repro trace`` and ``stats --watch`` all go through
here, so the surfaces can never drift apart.

Usage::

    with TelemetrySession(TelemetryConfig(metrics_port=0)) as session:
        ...  # serve traffic; scrape http://127.0.0.1:<session.port>/metrics
"""

from __future__ import annotations

import sys
import threading
from typing import IO, Optional

from ..obs import (
    analytics as analytics_mod,
    events,
    metrics,
    slo as slo_mod,
    tracestore,
    tracing,
    workload as workload_mod,
)
from ..obs.promexport import MetricsServer, validate_metric_name
from ..obs.timeseries import dashboard_line
from .config import TelemetryConfig

__all__ = ["TelemetrySession"]


class TelemetrySession:
    """Owns the setup and teardown of one process's live telemetry.

    The session always enables metrics, turns on the registry's windows
    from empty (the windowed dashboards need both) and installs the
    exposition-grammar name validator on the registry, so a metric name
    that could not be scraped fails at its call site; the scrape
    endpoint, event log, trace store, SLO watchdog and stats printer are
    opt-in via the :class:`~repro.serve.config.TelemetryConfig` fields.
    Idempotent :meth:`close`; usable as a context manager.
    """

    def __init__(
        self,
        config: "TelemetryConfig | None" = None,
        stream: "Optional[IO[str]]" = None,
    ):
        """``stream`` receives the dashboard lines (default: stderr)."""
        self.config = config or TelemetryConfig()
        self._stream = stream if stream is not None else sys.stderr
        self._was_enabled = metrics.enabled()
        self.server: "Optional[MetricsServer]" = None
        self.event_log: "Optional[events.EventLog]" = None
        self.tracestore: "Optional[tracestore.TraceStore]" = None
        self.watchdog: "Optional[slo_mod.SLOWatchdog]" = None
        self.analytics: "Optional[analytics_mod.AccessRecorder]" = None
        self.workload: "Optional[workload_mod.WorkloadRecorder]" = None
        self._prev_tracer = None
        self._stop = threading.Event()
        self._printer: "Optional[threading.Thread]" = None
        self._closed = False

        #: The process-wide registry; its windows feed the dashboards.
        self.registry = metrics.enable()
        self.registry.set_name_validator(validate_metric_name)
        self.registry.enable_windows()
        if self.config.events_path is not None:
            self.event_log = events.enable(
                sink=self.config.events_path,
                sample=self.config.events_sample,
            )
        if self.config.tracing:
            self.tracestore = tracestore.TraceStore(
                capacity=self.config.trace_capacity
            )
            tracestore.install(self.tracestore)
            self._prev_tracer = tracing.get_tracer()
            tracing.enable(self.tracestore)
        if self.config.slo:
            self.watchdog = slo_mod.SLOWatchdog(self.registry)
            self.watchdog.start(self.config.slo_interval_s)
        if self.config.analytics:
            self.analytics = analytics_mod.install()
        if self.config.capture_path is not None:
            self.workload = workload_mod.install(
                sink=self.config.capture_path,
                sample=self.config.capture_sample,
            )
        if self.config.metrics_port is not None:
            self.server = MetricsServer(
                host=self.config.metrics_host,
                port=self.config.metrics_port,
                tracestore=self.tracestore,
                watchdog=self.watchdog,
                analytics=self.analytics,
            ).start()
        if self.config.stats_interval_s > 0.0:
            self._printer = threading.Thread(
                target=self._print_loop,
                name="repro-telemetry-stats",
                daemon=True,
            )
            self._printer.start()

    @property
    def port(self) -> "Optional[int]":
        """The scrape endpoint's bound port (``None`` without one)."""
        return self.server.port if self.server is not None else None

    def dashboard_line(self, seconds: int = 10) -> str:
        """The current windowed dashboard line (see ``timeseries``)."""
        return dashboard_line(self.registry, seconds)

    def _print_loop(self) -> None:
        interval = self.config.stats_interval_s
        while not self._stop.wait(interval):
            try:
                print(self.dashboard_line(), file=self._stream, flush=True)
            except ValueError:  # stream closed mid-shutdown
                return

    def close(self) -> None:
        """Tear down in reverse order of setup.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._printer is not None:
            self._printer.join()
        if self.server is not None:
            self.server.close()
        if self.watchdog is not None:
            self.watchdog.stop()
        if self.workload is not None:
            workload_mod.uninstall()
            self.workload.close()
        if self.analytics is not None:
            analytics_mod.uninstall()
        if self.config.tracing:
            tracing.disable()
            tracing.set_tracer(self._prev_tracer)
            tracestore.uninstall()
        if self.event_log is not None:
            events.disable()
            self.event_log.close()
        self.registry.disable_windows()
        self.registry.set_name_validator(None)
        if not self._was_enabled:
            metrics.disable()

    def __enter__(self) -> "TelemetrySession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
