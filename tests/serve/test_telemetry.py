"""TelemetrySession lifecycle + windowed stats vs. ground-truth load."""

import io
import json
import urllib.request

import numpy as np
import pytest

from repro.core.nncell_index import NNCellIndex
from repro.data import query_points, uniform_points
from repro.eval.loadgen import run_service_load
from repro.obs import events, metrics, timeseries
from repro.obs.promexport import parse_exposition
from repro.serve import ServeConfig, TelemetryConfig, TelemetrySession


@pytest.fixture(autouse=True)
def clean_global_state():
    metrics.disable()
    metrics.get_registry().reset()
    metrics.get_registry().disable_windows()
    events.disable()
    events._log = None
    yield
    metrics.disable()
    metrics.get_registry().reset()
    metrics.get_registry().disable_windows()
    events.disable()
    events._log = None


@pytest.fixture(scope="module")
def index():
    return NNCellIndex.build(uniform_points(50, 3, seed=21))


class TestTelemetryConfig:
    def test_defaults_are_inactive(self):
        config = TelemetryConfig()
        assert not config.active

    def test_each_surface_activates(self):
        assert TelemetryConfig(metrics_port=0).active
        assert TelemetryConfig(stats_interval_s=1.0).active
        assert TelemetryConfig(events_path="ev.jsonl").active

    def test_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(metrics_port=-1)
        with pytest.raises(ValueError):
            TelemetryConfig(stats_interval_s=-0.5)
        with pytest.raises(ValueError):
            TelemetryConfig(events_sample=1.5)


class TestTelemetrySessionLifecycle:
    def test_installs_and_restores_obs_state(self):
        assert not metrics.enabled()
        with TelemetrySession() as session:
            assert metrics.enabled()
            assert session.registry is metrics.get_registry()
            assert session.registry.windowed
        assert not metrics.enabled()
        assert not metrics.get_registry().windowed

    def test_preserves_pre_enabled_metrics(self):
        metrics.enable()
        with TelemetrySession():
            pass
        assert metrics.enabled()

    def test_close_is_idempotent(self):
        session = TelemetrySession()
        session.close()
        session.close()
        assert not metrics.get_registry().windowed

    def test_metrics_server_scrapes_live_traffic(self, index):
        config = TelemetryConfig(metrics_port=0)
        with TelemetrySession(config) as session:
            assert session.port > 0
            index.nearest(np.full(3, 0.5))
            metrics.observe("serve.latency_ms", 2.0)
            url = f"http://127.0.0.1:{session.port}/metrics"
            with urllib.request.urlopen(url, timeout=5) as response:
                samples = parse_exposition(response.read().decode())
        assert "serve_latency_ms_count" in samples
        telemetry_url = f"http://127.0.0.1:{session.port}/telemetry"
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(telemetry_url, timeout=1)  # closed

    def test_event_log_writes_jsonl(self, index, tmp_path):
        path = tmp_path / "events.jsonl"
        config = TelemetryConfig(events_path=str(path))
        with TelemetrySession(config):
            assert events.enabled()
            index.nearest(np.full(3, 0.5))
        assert not events.enabled()
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert any(r["kind"] == "query" for r in records)

    def test_stats_printer_emits_dashboard_lines(self):
        stream = io.StringIO()
        config = TelemetryConfig(stats_interval_s=0.05)
        with TelemetrySession(config, stream=stream):
            metrics.observe("serve.latency_ms", 1.5)
            import time

            deadline = time.monotonic() + 2.0
            while (
                not stream.getvalue() and time.monotonic() < deadline
            ):
                time.sleep(0.01)
        assert "[telemetry" in stream.getvalue()
        assert "qps=" in stream.getvalue()

    def test_dashboard_line_available_without_printer(self):
        with TelemetrySession() as session:
            metrics.observe("serve.latency_ms", 3.0)
            line = session.dashboard_line(seconds=10)
        assert "p50=" in line


class TestWindowedStatsAgainstGroundTruth:
    def test_percentiles_and_qps_match_load_report(self, index):
        """The operator-facing window numbers must agree with the load
        harness's own ground-truth latency list over the same run."""
        queries = query_points(200, 3, seed=22)
        with TelemetrySession() as session:
            report = run_service_load(
                index, queries, n_threads=4,
                config=ServeConfig(max_batch_size=32, max_wait_ms=2.0),
            )
            window = timeseries.window(session.registry, 60).get("serve.latency_ms")
        assert report.errors == 0
        assert window is not None
        # Every completed query was recorded in the window.
        assert window.count == len(report.latencies_ms)
        # Service latency (enqueue -> batch answer) is measured inside
        # the flush loop; the client-side report adds submit/wakeup
        # overhead, so the windowed percentiles must bound below the
        # client's and stay within a generous factor of them.
        for q in (50, 99):
            windowed = window.percentile(q)
            ground = report.percentile(q)
            assert windowed <= ground * 1.5 + 0.5
            assert windowed > 0.0
        # The window rate divides by the nominal 60s span; compare
        # completion *counts* instead, which are exact.
        assert window.rate == pytest.approx(window.count / 60.0)

    def test_queue_depth_gauge_tracked(self, index):
        queries = query_points(64, 3, seed=23)
        with TelemetrySession() as session:
            run_service_load(
                index, queries, n_threads=4,
                config=ServeConfig(max_batch_size=16, max_wait_ms=1.0),
            )
            snapshot = timeseries.window(session.registry, 60)
        assert snapshot.get("serve.queue.depth") is not None


class TestTracingAndSLOConfig:
    def test_tracing_and_slo_activate_the_session(self):
        assert TelemetryConfig(tracing=True).active
        assert TelemetryConfig(slo=True).active

    def test_validation_of_new_knobs(self):
        with pytest.raises(ValueError):
            TelemetryConfig(trace_capacity=0)
        with pytest.raises(ValueError):
            TelemetryConfig(slo_interval_s=0.0)

    def test_session_installs_and_restores_trace_state(self):
        from repro.obs import tracestore, tracing

        assert tracestore.get_store() is None
        with TelemetrySession(TelemetryConfig(tracing=True)) as session:
            assert tracing.enabled()
            assert tracestore.get_store() is session.tracestore
            assert tracing.get_tracer() is session.tracestore
        assert not tracing.enabled()
        assert tracestore.get_store() is None

    def test_session_registry_rejects_unexposable_metric_names(self):
        from repro.obs.promexport import ExpositionNameError

        with TelemetrySession():
            with pytest.raises(ExpositionNameError):
                metrics.inc("bad metric name")
        # Validator removed on close: permissive again.
        metrics.enable()
        metrics.inc("bad metric name")

    def test_trace_capacity_is_honoured(self):
        config = TelemetryConfig(tracing=True, trace_capacity=7)
        with TelemetrySession(config) as session:
            assert session.tracestore.capacity == 7
