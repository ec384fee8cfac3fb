"""SLO declarations and the multi-window burn-rate watchdog."""

import time

import pytest

from repro.obs import events, metrics
from repro.obs.slo import (
    DEFAULT_SLOS,
    SLO,
    SLOWatchdog,
    STATE_OK,
    STATE_PAGE,
    STATE_WARN,
)
from repro.obs import timeseries
from repro.obs.metrics import MetricsRegistry


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def ts(clock):
    """A registry with windows on, reading the settable clock."""
    registry = MetricsRegistry()
    registry.enable_windows(clock=clock)
    return registry


def latency_slo(budget=0.01, threshold_ms=50.0):
    return SLO(
        name="latency_p99", kind="latency", budget=budget,
        threshold_ms=threshold_ms,
    )


class TestSLODeclaration:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            SLO(name="x", kind="availability", budget=0.01)

    @pytest.mark.parametrize("budget", [0.0, 1.0, -0.1, 2.0])
    def test_rejects_budget_outside_unit_interval(self, budget):
        with pytest.raises(ValueError, match="budget"):
            SLO(name="x", kind="latency", budget=budget)

    def test_ratio_needs_a_bad_counter(self):
        with pytest.raises(ValueError, match="bad counter"):
            SLO(name="x", kind="ratio", budget=0.01)

    def test_defaults_cover_latency_errors_and_overload(self):
        names = {slo.name for slo in DEFAULT_SLOS}
        assert names == {
            "latency_p99",
            "error_rate",
            "overload_rate",
            "degraded_rate",
        }


class TestBadFraction:
    def test_empty_window_burns_nothing(self, ts):
        slo = latency_slo()
        snapshot = timeseries.window(ts, 60)
        assert slo.bad_fraction(snapshot) == 0.0
        assert slo.burn_rate(snapshot) == 0.0

    def test_latency_fraction_above_threshold(self, ts):
        for __ in range(90):
            ts.observe("serve.latency_ms", 1.0)
        for __ in range(10):
            ts.observe("serve.latency_ms", 100.0)
        slo = latency_slo(budget=0.01, threshold_ms=50.0)
        snapshot = timeseries.window(ts, 60)
        assert slo.bad_fraction(snapshot) == pytest.approx(0.1)
        assert slo.burn_rate(snapshot) == pytest.approx(10.0)

    def test_ratio_counts_bad_over_bad_plus_good(self, ts):
        slo = SLO(
            name="errors", kind="ratio", budget=0.1,
            bad=("serve.deadline_missed",), good=("serve.completed",),
        )
        for __ in range(3):
            ts.inc("serve.deadline_missed")
        for __ in range(97):
            ts.inc("serve.completed")
        assert slo.bad_fraction(timeseries.window(ts, 60)) == pytest.approx(0.03)

    def test_ratio_with_no_traffic_is_zero(self, ts):
        slo = SLO(
            name="errors", kind="ratio", budget=0.1,
            bad=("serve.deadline_missed",), good=("serve.completed",),
        )
        assert slo.bad_fraction(timeseries.window(ts, 60)) == 0.0


class TestWatchdogStates:
    def test_constructor_validation(self, ts):
        with pytest.raises(ValueError, match="> 0"):
            SLOWatchdog(ts, page_burn=0.0)
        with pytest.raises(ValueError, match="warn_burn"):
            SLOWatchdog(ts, page_burn=2.0, warn_burn=5.0)
        with pytest.raises(ValueError, match="short, long"):
            SLOWatchdog(ts, alert_windows=(60, 10))

    def test_quiet_service_stays_ok(self, ts):
        dog = SLOWatchdog(ts, slos=[latency_slo()])
        (status,) = dog.evaluate()
        assert status.state == STATE_OK
        assert not dog.paging

    def test_pages_when_both_windows_burn(self, ts):
        dog = SLOWatchdog(ts, slos=[latency_slo(budget=0.01)])
        for __ in range(20):
            ts.observe("serve.latency_ms", 100.0)  # 100% bad, burn 100x
        (status,) = dog.evaluate()
        assert status.state == STATE_PAGE
        assert dog.paging
        assert status.burn[10] == pytest.approx(100.0)
        assert status.burn[60] == pytest.approx(100.0)

    def test_warns_when_only_the_long_window_burns(self, ts, clock):
        dog = SLOWatchdog(ts, slos=[latency_slo(budget=0.01)])
        for __ in range(5):
            ts.observe("serve.latency_ms", 100.0)
        clock.now += 20.0  # bad burst leaves the 10s window, stays in 60s
        (status,) = dog.evaluate()
        assert status.state == STATE_WARN
        assert not dog.paging

    def test_recovers_to_ok(self, ts, clock):
        dog = SLOWatchdog(ts, slos=[latency_slo()])
        for __ in range(20):
            ts.observe("serve.latency_ms", 100.0)
        dog.evaluate()
        assert dog.paging
        clock.now += 120.0  # the burst ages out of every window
        (status,) = dog.evaluate()
        assert status.state == STATE_OK
        assert not dog.paging

    def test_transition_emits_slo_event(self, ts):
        dog = SLOWatchdog(ts, slos=[latency_slo()])
        for __ in range(20):
            ts.observe("serve.latency_ms", 100.0)
        with events.collecting() as log:
            dog.evaluate()
            dog.evaluate()  # no transition -> no second record
        records = log.records("slo")
        assert len(records) == 1
        assert records[0]["objective"] == "latency_p99"
        assert records[0]["previous"] == STATE_OK
        assert records[0]["state"] == STATE_PAGE

    def test_publishes_burn_and_state_gauges(self, ts):
        dog = SLOWatchdog(ts, slos=[latency_slo()])
        for __ in range(20):
            ts.observe("serve.latency_ms", 100.0)
        with metrics.collecting(fresh=True) as registry:
            dog.evaluate()
        gauges = registry.as_dict()["gauges"]
        assert gauges["serve.slo.latency_p99.burn_rate"] == pytest.approx(
            100.0
        )
        assert gauges["serve.slo.latency_p99.state"] == 2.0

    def test_on_change_fires_on_paging_flips_only(self, ts, clock):
        flips = []
        dog = SLOWatchdog(
            ts, slos=[latency_slo()], on_change=flips.append
        )
        dog.evaluate()
        assert flips == []  # ok -> ok is not a flip
        for __ in range(20):
            ts.observe("serve.latency_ms", 100.0)
        dog.evaluate()
        dog.evaluate()
        assert flips == [True]
        clock.now += 120.0
        dog.evaluate()
        assert flips == [True, False]

    def test_on_change_exceptions_are_swallowed(self, ts):
        def explode(paging):
            raise RuntimeError("hook bug")

        dog = SLOWatchdog(ts, slos=[latency_slo()], on_change=explode)
        for __ in range(20):
            ts.observe("serve.latency_ms", 100.0)
        dog.evaluate()  # must not raise
        assert dog.paging


class TestWatchdogStatus:
    def test_status_reports_worst_state_and_objectives(self, ts):
        dog = SLOWatchdog(ts)
        for __ in range(20):
            ts.observe("serve.latency_ms", 100.0)
        dog.evaluate()
        status = dog.status()
        assert status["state"] == STATE_PAGE
        assert status["paging"] is True
        names = [o["name"] for o in status["objectives"]]
        assert names == [
            "latency_p99",
            "error_rate",
            "overload_rate",
            "degraded_rate",
        ]
        latency = status["objectives"][0]
        assert latency["state"] == STATE_PAGE
        assert latency["burn"]["60s"] == pytest.approx(100.0)

    def test_background_thread_evaluates_and_stops(self, ts):
        dog = SLOWatchdog(ts, slos=[latency_slo()])
        for __ in range(20):
            ts.observe("serve.latency_ms", 100.0)
        dog.start(interval_s=0.01)
        dog.start(interval_s=0.01)  # idempotent
        deadline = time.monotonic() + 2.0
        while not dog.paging and time.monotonic() < deadline:
            time.sleep(0.005)
        dog.stop()
        dog.stop()  # idempotent
        assert dog.paging
