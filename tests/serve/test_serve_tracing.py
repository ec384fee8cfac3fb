"""End-to-end request tracing through the serving layer.

The causal chain: an id minted at admission rides the response, the
stored request trace, the flush trace it links to, the latency
exemplars, and the event log.
"""

import re
import threading
import time

import pytest
from helpers import Stall

from repro.core.nncell_index import NNCellIndex
from repro.data import query_points, uniform_points
from repro.obs import events, metrics, timeseries, tracectx, tracestore, tracing
from repro.obs.tracestore import critical_path
from repro.serve import (
    DeadlineExceeded,
    QueryService,
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
        stall = Stall(index)
        with QueryService(index, batch_fn=stall) as service:
            head = service.submit_async([0.25, 0.25, 0.25])
            assert stall.entered.wait(5.0)
            # Queued behind the held flush, the request cannot be answered
            # within its deadline.
            with pytest.raises(DeadlineExceeded) as err:
                service.submit([0.5, 0.5, 0.5], timeout_ms=1.0)
            stall.release.set()
            head.result()
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
        stall = Stall(index)
        with traced_session() as session:
            with QueryService(index, batch_fn=stall) as service:
                head = service.submit_async([0.25, 0.25, 0.25])
                assert stall.entered.wait(5.0)
                doomed = service.submit_async([0.5, 0.5, 0.5], timeout_ms=5.0)
                time.sleep(0.05)  # let the deadline lapse while queued
                stall.release.set()
                head.result()
            # Closing drained the queue, so the flush loop has already
            # cancelled the doomed request; the caller only reads it.
            with pytest.raises(DeadlineExceeded, match="while queued") as err:
                doomed.result()
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
