"""End-to-end request tracing through the serving layer.

The causal chain ISSUE 6 pins down: an id minted at admission rides the
response, the stored request trace, the flush trace it links to, the
latency exemplars, and the event log — and the SLO watchdog can nudge
the service's degradation ladder.
"""

import re
import threading

import pytest

from repro.core.nncell_index import NNCellIndex
from repro.data import query_points, uniform_points
from repro.obs import events, metrics, timeseries, tracectx, tracestore, tracing
from repro.obs.tracestore import critical_path
from repro.serve import (
    DeadlineExceeded,
    QueryService,
    ServeConfig,
    TelemetryConfig,
    TelemetrySession,
)

pytestmark = pytest.mark.usefixtures("clean_obs_state")


@pytest.fixture
def clean_obs_state():
    metrics.disable()
    metrics.get_registry().reset()
    metrics.get_registry().disable_windows()
    events.disable()
    events._log = None
    tracing.disable()
    tracestore.uninstall()
    yield
    metrics.disable()
    metrics.get_registry().reset()
    metrics.get_registry().disable_windows()
    events.disable()
    events._log = None
    tracing.disable()
    tracestore.uninstall()


@pytest.fixture(scope="module")
def index():
    return NNCellIndex.build(uniform_points(50, 3, seed=11))


def traced_session():
    return TelemetrySession(TelemetryConfig(tracing=True))


class TestResponseIdentity:
    def test_every_result_carries_a_trace_id_even_untraced(self, index):
        # Identity is unconditional; tracing only controls *recording*.
        with QueryService(index) as service:
            result = service.submit([0.5, 0.5, 0.5])
        assert re.fullmatch(r"[0-9a-f]{16}", result.trace_id)

    def test_bound_caller_id_is_reused(self, index):
        with QueryService(index) as service:
            with tracectx.bind("caller00deadbeef"):
                result = service.submit([0.5, 0.5, 0.5])
        assert result.trace_id == "caller00deadbeef"

    def test_concurrent_submissions_get_distinct_ids(self, index):
        results = []
        lock = threading.Lock()
        with QueryService(index) as service:
            def client(q):
                r = service.submit(q)
                with lock:
                    results.append(r)

            threads = [
                threading.Thread(target=client, args=(q,))
                for q in query_points(16, 3, seed=5)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        ids = [r.trace_id for r in results]
        assert len(set(ids)) == len(ids) == 16

    def test_deadline_error_carries_the_request_trace_id(self, index):
        config = ServeConfig(max_wait_ms=50.0, max_batch_size=64)
        with QueryService(index, config) as service:
            with pytest.raises(DeadlineExceeded) as err:
                service.submit([0.5, 0.5, 0.5], timeout_ms=1.0)
        assert re.fullmatch(r"[0-9a-f]{16}", err.value.trace_id)


class TestStoredTraces:
    def test_request_and_flush_traces_are_linked_both_ways(self, index):
        with traced_session() as session:
            with QueryService(index) as service:
                result = service.submit([0.5, 0.5, 0.5])
            store = session.tracestore
            request = store.get(result.trace_id)
            assert request is not None
            assert request.kind == "request"
            (flush_id,) = request.links
            flush = store.get(flush_id)
            assert flush is not None
            assert flush.kind == "flush"
            assert result.trace_id in flush.links

    def test_request_trace_has_contiguous_stage_spans(self, index):
        with traced_session() as session:
            with QueryService(index) as service:
                result = service.submit([0.25, 0.5, 0.75])
            trace = session.tracestore.get(result.trace_id)
        names = [c.name for c in trace.root.children]
        assert names == [
            "serve.queue_wait", "serve.compute", "serve.deliver"
        ]
        for left, right in zip(trace.root.children, trace.root.children[1:]):
            assert right.start == pytest.approx(left.end)

    def test_every_request_critical_path_meets_coverage_floor(self, index):
        workload = query_points(30, 3, seed=7)
        with traced_session() as session:
            with QueryService(index) as service:
                results = [service.submit(q) for q in workload]
            store = session.tracestore
            for result in results:
                trace = store.get(result.trace_id)
                assert trace is not None, "request trace must be retained"
                path = critical_path(trace, store)
                assert path.coverage >= 0.95
                assert "queue_wait" in path.stages

    def test_expired_request_is_stored_as_error_trace(self, index):
        config = ServeConfig(max_wait_ms=80.0, max_batch_size=64)
        with traced_session() as session:
            with QueryService(index, config) as service:
                with pytest.raises(DeadlineExceeded) as err:
                    # Expires while queued: the flush loop cancels it.
                    service.submit([0.5, 0.5, 0.5], timeout_ms=5.0)
                service.submit([0.1, 0.1, 0.1])  # force a later flush
            store = session.tracestore
            trace = store.get(err.value.trace_id)
        assert trace is not None
        assert trace.error

    def test_latency_exemplars_resolve_to_stored_traces(self, index):
        workload = query_points(40, 3, seed=13)
        with traced_session() as session:
            with QueryService(index) as service:
                for q in workload:
                    service.submit(q)
            window = timeseries.window(session.registry, 60).get("serve.latency_ms")
            exemplars = window.exemplars()
            assert exemplars, "tail observations must carry exemplars"
            for __, trace_id in exemplars:
                assert session.tracestore.get(trace_id) is not None

    def test_event_log_joins_on_flush_trace_id(self, index):
        with TelemetrySession(
            TelemetryConfig(tracing=True, events_path=None)
        ) as session:
            with events.collecting() as log:
                with QueryService(index) as service:
                    result = service.submit([0.5, 0.5, 0.5])
            store = session.tracestore
        (flush_record,) = log.records("flush")
        flush_id = flush_record["trace_id"]
        assert store.get(flush_id) is not None
        assert result.trace_id in store.get(flush_id).links

    def test_tracing_off_stores_nothing(self, index):
        with TelemetrySession(TelemetryConfig()) as session:
            assert session.tracestore is None
            with QueryService(index) as service:
                result = service.submit([0.5, 0.5, 0.5])
        assert result.trace_id  # identity still flows


class TestDegradationHook:
    def test_set_degraded_skips_the_batching_delay(self, index):
        config = ServeConfig(max_wait_ms=500.0, max_batch_size=1024)
        with QueryService(index, config) as service:
            service.set_degraded(True)
            assert service.degraded
            # With the delay active this would block ~500 ms; degraded
            # mode must answer immediately (submit blocks until then).
            result = service.submit([0.5, 0.5, 0.5])
            assert result.latency_ms < 400.0
            service.set_degraded(False)
            assert not service.degraded

    def test_watchdog_nudges_the_service_when_configured(self, index):
        config = TelemetryConfig(
            tracing=True, slo=True, slo_degrade=True
        )
        with TelemetrySession(config) as session:
            with QueryService(index) as service:
                session.set_degrade_target(service)
                # Hammer the budget: synthetic latency far above the
                # 50 ms objective makes every window page.
                for __ in range(50):
                    session.registry.observe("serve.latency_ms", 500.0)
                session.watchdog.evaluate()
                assert session.watchdog.paging
                assert service.degraded
            # Teardown restores the service to the normal ladder.
        assert not service.degraded

    def test_watchdog_without_degrade_flag_leaves_service_alone(self, index):
        config = TelemetryConfig(slo=True)
        with TelemetrySession(config) as session:
            with QueryService(index) as service:
                session.set_degrade_target(service)
                for __ in range(50):
                    session.registry.observe("serve.latency_ms", 500.0)
                session.watchdog.evaluate()
                assert session.watchdog.paging
                assert not service.degraded
