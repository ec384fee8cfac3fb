"""Sliding windows over the registry's buckets: ring reuse, windows,
rates, dashboards."""

import threading

import pytest

from repro.obs import timeseries
from repro.obs.metrics import (
    BUCKET_SAMPLE_CAP,
    WINDOW_HORIZON_SECONDS,
    MetricsRegistry,
)
from repro.obs.timeseries import (
    DEFAULT_WINDOWS,
    dashboard,
    dashboard_line,
    telemetry_table,
)


class FakeClock:
    """A settable monotonic clock so tests control bucket boundaries."""

    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float = 1.0) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def ts(clock):
    """A registry with windows on, reading the settable clock."""
    registry = MetricsRegistry()
    registry.enable_windows(clock=clock)
    return registry


class TestConstruction:
    def test_horizon_must_cover_largest_window(self):
        assert WINDOW_HORIZON_SECONDS >= max(DEFAULT_WINDOWS)

    def test_sample_cap_positive(self):
        assert BUCKET_SAMPLE_CAP >= 1

    def test_defaults(self, ts):
        for name in (
            "serve.latency_ms", "query.candidates", "shard.fanout",
            "lp.solves", "build.chunk_points",
        ):
            ts.observe(name, 1.0)
        assert timeseries.window(ts, 10).names() == [
            "query.candidates", "serve.latency_ms", "shard.fanout",
        ]

    def test_windows_are_off_until_enabled(self):
        registry = MetricsRegistry()
        assert not registry.windowed
        registry.observe("serve.latency_ms", 1.0)
        assert timeseries.window(registry, 10).names() == []
        registry.enable_windows()
        assert registry.windowed


class TestRecording:
    def test_untracked_names_are_dropped(self, ts):
        ts.inc("lp.solves", 5)
        ts.observe("storage.reads", 1.0)
        ts.set_gauge("build.height", 3)
        assert timeseries.window(ts, 10).names() == []

    def test_counter_window_totals(self, ts, clock):
        ts.inc("serve.rejected", 2)
        clock.tick()
        ts.inc("serve.rejected", 3)
        window = timeseries.window(ts, 10).get("serve.rejected")
        assert window.total == 5.0
        assert window.count == 2
        assert window.rate == pytest.approx(0.5)  # amount / window seconds

    def test_histogram_window_percentiles(self, ts):
        for v in range(1, 101):
            ts.observe("query.latency_ms", float(v))
        window = timeseries.window(ts, 1).get("query.latency_ms")
        assert window.count == 100
        assert window.min == 1.0 and window.max == 100.0
        assert window.percentile(50) == pytest.approx(50.5)
        # Histogram rate counts observations per second.
        assert window.rate == pytest.approx(100.0)

    def test_gauge_keeps_last_and_extremes(self, ts, clock):
        ts.set_gauge("serve.queue.depth", 7)
        clock.tick()
        ts.set_gauge("serve.queue.depth", 2)
        window = timeseries.window(ts, 10).get("serve.queue.depth")
        assert window.last == 2.0
        assert window.max == 7.0
        assert window.rate == 0.0

    def test_window_excludes_older_buckets(self, ts, clock):
        ts.observe("serve.latency_ms", 100.0)
        clock.tick(30)
        ts.observe("serve.latency_ms", 1.0)
        assert timeseries.window(ts, 10).get("serve.latency_ms").count == 1
        assert timeseries.window(ts, 60).get("serve.latency_ms").count == 2

    def test_ring_slot_reuse_after_horizon(self, ts, clock):
        """A second that wraps the ring evicts the slot's old bucket."""
        ts.inc("serve.rejected", 1)
        clock.tick(WINDOW_HORIZON_SECONDS)  # same slot, different second
        ts.inc("serve.rejected", 1)
        window = timeseries.window(ts, WINDOW_HORIZON_SECONDS)
        assert window.get("serve.rejected").total == 1.0

    def test_window_clamps_to_horizon(self, ts):
        ts.inc("serve.rejected")
        snapshot = timeseries.window(ts, 10 * WINDOW_HORIZON_SECONDS)
        assert snapshot.seconds == float(WINDOW_HORIZON_SECONDS)

    def test_window_seconds_validated(self, ts):
        with pytest.raises(ValueError):
            timeseries.window(ts, 0)

    def test_bucket_reservoir_caps_samples(self, ts):
        n = BUCKET_SAMPLE_CAP + 100
        for v in range(n):
            ts.observe("serve.latency_ms", float(v))
        window = timeseries.window(ts, 1).get("serve.latency_ms")
        assert len(window._samples) == BUCKET_SAMPLE_CAP
        assert window.count == n  # aggregates stay exact
        assert window.total == sum(range(n))

    def test_clear_empties_every_bucket(self, ts, clock):
        """Windows turned on again start from empty rings, even within
        the horizon of the old buckets."""
        ts.inc("serve.rejected")
        ts.disable_windows()
        assert timeseries.window(ts, 60).names() == []
        ts.enable_windows(clock=clock)
        assert timeseries.window(ts, 60).names() == []
        assert ts.snapshot()["serve.rejected"] == 1.0  # totals stay

    def test_windows_returns_standard_view(self, ts):
        ts.observe("serve.latency_ms", 5.0)
        views = timeseries.windows(ts)
        assert sorted(views) == sorted(DEFAULT_WINDOWS)
        assert views[1].get("serve.latency_ms").count == 1

    def test_thread_safety_under_contention(self, ts):
        n_threads, n_events = 8, 500

        def worker():
            for i in range(n_events):
                ts.inc("serve.rejected")
                ts.observe("serve.latency_ms", float(i))

        threads = [threading.Thread(target=worker) for __ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        window = timeseries.window(ts, 1)
        assert window.get("serve.rejected").total == n_threads * n_events
        assert window.get("serve.latency_ms").count == n_threads * n_events
        assert len(window.get("serve.latency_ms")._samples) <= (
            BUCKET_SAMPLE_CAP
        )


class TestDashboard:
    def test_empty_dashboard_is_all_zero(self, ts):
        d = dashboard(ts)
        assert d["qps"] == 0.0
        assert d["p50_ms"] == 0.0
        assert d["completed"] == 0.0
        assert d["fallback_pct"] == 0.0

    def test_prefers_serve_latency(self, ts):
        ts.observe("serve.latency_ms", 10.0)
        ts.observe("query.latency_ms", 99.0)
        assert dashboard(ts)["p50_ms"] == 10.0

    def test_falls_back_to_query_latency(self, ts):
        ts.observe("query.latency_ms", 42.0)
        d = dashboard(ts, seconds=10)
        assert d["p50_ms"] == 42.0
        assert d["qps"] == pytest.approx(0.1)

    def test_fallback_share_sums_all_rungs(self, ts):
        for __ in range(8):
            ts.observe("serve.latency_ms", 1.0)
        ts.inc('serve.fallback{stage="serial"}', 1)
        ts.inc("query.fallbacks", 1)
        assert dashboard(ts)["fallback_pct"] == pytest.approx(25.0)

    def test_queue_depth_is_last_gauge_value(self, ts):
        ts.set_gauge("serve.queue.depth", 9)
        ts.set_gauge("serve.queue.depth", 4)
        assert dashboard(ts)["queue_depth"] == 4.0

    def test_dashboard_line_renders(self, ts):
        ts.observe("serve.latency_ms", 3.0)
        line = dashboard_line(ts)
        assert line.startswith("[telemetry")
        assert "qps=" in line and "p99=" in line and "fallback=" in line

    def test_telemetry_table_has_one_row_per_window(self, ts):
        ts.observe("serve.latency_ms", 3.0)
        rendered = telemetry_table(ts).render()
        assert "Live telemetry" in rendered
        for seconds in DEFAULT_WINDOWS:
            assert f"{seconds}s" in rendered


class TestWindowSnapshot:
    def test_summary_shape(self, ts):
        ts.observe("serve.latency_ms", 2.0)
        ts.inc("serve.rejected", 1)
        doc = timeseries.window(ts, 10).as_dict()
        assert doc["serve.latency_ms"]["p99"] == 2.0
        assert doc["serve.rejected"]["sum"] == 1.0

    def test_total_and_count_defaults(self, ts):
        snapshot = timeseries.window(ts, 10)
        assert snapshot.total("serve.none", default=-1.0) == -1.0
        assert snapshot.count("serve.none", default=-2) == -2


class TestExemplars:
    def test_observation_with_trace_id_becomes_exemplar(self, ts):
        ts.observe("serve.latency_ms", 12.0, trace_id="t1")
        window = timeseries.window(ts, 10).get("serve.latency_ms")
        assert window.exemplars() == [(12.0, "t1")]

    def test_keeps_the_largest_traced_observations(self, ts):
        for i, value in enumerate([5.0, 50.0, 1.0, 30.0, 40.0, 20.0]):
            ts.observe("serve.latency_ms", value, trace_id=f"t{i}")
        window = timeseries.window(ts, 10).get("serve.latency_ms")
        values = [v for v, __ in window.exemplars()]
        assert values == [50.0, 40.0, 30.0, 20.0]  # top-4, descending

    def test_untraced_observations_leave_no_exemplar(self, ts):
        ts.observe("serve.latency_ms", 99.0)
        ts.observe("serve.latency_ms", 1.0, trace_id="slowish")
        window = timeseries.window(ts, 10).get("serve.latency_ms")
        assert window.exemplars() == [(1.0, "slowish")]

    def test_exemplars_merge_across_buckets(self, ts, clock):
        ts.observe("serve.latency_ms", 10.0, trace_id="a")
        clock.now += 2.0
        ts.observe("serve.latency_ms", 30.0, trace_id="b")
        window = timeseries.window(ts, 10).get("serve.latency_ms")
        assert [t for __, t in window.exemplars()] == ["b", "a"]

    def test_summary_surfaces_exemplars_for_histograms(self, ts):
        ts.observe("serve.latency_ms", 25.0, trace_id="xyz")
        summary = timeseries.window(ts, 10).get("serve.latency_ms").summary()
        assert summary["exemplars"] == [
            {"value": 25.0, "trace_id": "xyz"}
        ]

    def test_summary_omits_exemplars_when_none(self, ts):
        ts.observe("serve.latency_ms", 25.0)
        summary = timeseries.window(ts, 10).get("serve.latency_ms").summary()
        assert "exemplars" not in summary


class TestFractionAbove:
    def test_counts_strictly_above_threshold(self, ts):
        for value in (10.0, 20.0, 60.0, 80.0):
            ts.observe("serve.latency_ms", value)
        window = timeseries.window(ts, 10).get("serve.latency_ms")
        assert window.fraction_above(50.0) == pytest.approx(0.5)
        assert window.fraction_above(100.0) == 0.0

    def test_empty_window_reports_zero(self, ts):
        ts.observe("serve.latency_ms", 1.0)
        window = timeseries.window(ts, 10).get("serve.latency_ms")
        # Sanity: a metric absent from the snapshot entirely.
        assert timeseries.window(ts, 10).get("serve.other") is None
        assert window.fraction_above(0.5) == pytest.approx(1.0)


class TestEmptyRendering:
    """Pre-traffic surfaces must render, not crash (the dashboard and
    the scrape endpoint can come up before the first request)."""

    def test_telemetry_table_renders_with_no_buckets(self, ts):
        text = telemetry_table(ts).render()
        assert "1s" in text and "60s" in text

    def test_dashboard_line_renders_with_no_buckets(self, ts):
        line = dashboard_line(ts)
        assert "qps" in line

    def test_summary_of_empty_histogram_window(self, ts, clock):
        ts.observe("serve.latency_ms", 5.0)
        clock.now += 30.0  # the only bucket ages out of the 10s window
        snapshot = timeseries.window(ts, 10)
        assert snapshot.get("serve.latency_ms") is None
        assert snapshot.as_dict() == {}
