"""Tail-sampled trace store, critical-path analysis, Chrome export."""

import json

import pytest

from repro.obs.tracestore import (
    CriticalPath,
    StoredTrace,
    TraceStore,
    critical_path,
    get_store,
    install,
    to_chrome_trace,
    trace_kind,
    uninstall,
)
from repro.obs.tracing import Span


def make_span(name, start=0.0, end=1e-3, children=(), **attrs):
    s = Span(name, attrs)
    s.start = start
    s.end = end
    s.children = list(children)
    return s


def make_trace(trace_id, duration_ms=1.0, kind="request", **kwargs):
    root = make_span("serve.request", 0.0, duration_ms / 1e3)
    return StoredTrace(
        trace_id=trace_id, root=root, kind=kind, ts=0.0,
        duration_ms=duration_ms, **kwargs,
    )


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class TestTraceKind:
    @pytest.mark.parametrize("name,kind", [
        ("serve.request", "request"),
        ("serve.flush", "flush"),
        ("query.nearest", "query"),
        ("search.rkv", "query"),
        ("build.cells.parallel", "build"),
        ("lp.solve", "span"),
    ])
    def test_classification(self, name, kind):
        assert trace_kind(name) == kind


class TestTailSampling:
    def test_retains_up_to_capacity(self):
        store = TraceStore(capacity=3)
        for i in range(3):
            assert store.add_trace(make_trace(f"t{i}", duration_ms=i + 1.0))
        assert len(store) == 3

    def test_slower_trace_displaces_fastest(self):
        store = TraceStore(capacity=2)
        store.add_trace(make_trace("fast", duration_ms=1.0))
        store.add_trace(make_trace("slow", duration_ms=5.0))
        assert store.add_trace(make_trace("slower", duration_ms=9.0))
        assert store.get("fast") is None
        assert store.get("slow") is not None
        assert store.get("slower") is not None
        assert store.dropped == 1

    def test_faster_than_all_retained_is_dropped_on_arrival(self):
        store = TraceStore(capacity=2)
        store.add_trace(make_trace("a", duration_ms=5.0))
        store.add_trace(make_trace("b", duration_ms=6.0))
        assert not store.add_trace(make_trace("quick", duration_ms=0.1))
        assert store.get("quick") is None
        assert store.added == 3
        assert store.dropped == 1

    def test_error_traces_kept_regardless_of_speed(self):
        store = TraceStore(capacity=1)
        store.add_trace(make_trace("slow", duration_ms=100.0))
        assert store.add_trace(
            make_trace("failed", duration_ms=0.01, error=True)
        )
        assert store.get("failed") is not None
        assert store.get("slow") is not None  # separate retention pools

    def test_error_pool_evicts_oldest_first(self):
        store = TraceStore(error_capacity=2)
        for i in range(3):
            store.add_trace(make_trace(f"e{i}", error=True))
        assert store.get("e0") is None
        assert store.get("e1") is not None
        assert store.get("e2") is not None

    def test_fallback_traces_use_the_error_pool(self):
        store = TraceStore(capacity=1)
        store.add_trace(make_trace("slow", duration_ms=100.0))
        assert store.add_trace(
            make_trace("degraded", duration_ms=0.01, fallback=True)
        )
        assert store.get("degraded") is not None

    def test_horizon_pruning(self):
        clock = FakeClock()
        store = TraceStore(horizon_seconds=60, clock=clock)
        store.add_trace(make_trace("old", duration_ms=50.0))
        store.add_trace(make_trace("old-err", error=True))
        clock.now += 120.0
        store.add_trace(make_trace("new", duration_ms=1.0))
        assert store.get("old") is None
        assert store.get("old-err") is None
        assert store.get("new") is not None
        assert len(store) == 1

    def test_slowest_orders_by_duration(self):
        store = TraceStore()
        for i, ms in enumerate([3.0, 9.0, 1.0, 5.0]):
            store.add_trace(make_trace(f"t{i}", duration_ms=ms))
        ids = [t.trace_id for t in store.slowest(2)]
        assert ids == ["t1", "t3"]

    def test_traces_filters_by_kind(self):
        store = TraceStore()
        store.add_trace(make_trace("r", kind="request"))
        store.add_trace(make_trace("f", kind="flush"))
        assert [t.trace_id for t in store.traces(kind="flush")] == ["f"]

    def test_empty_store_is_truthy(self):
        # `tracing.enable(store)` must never mistake empty for absent.
        store = TraceStore()
        assert len(store) == 0
        assert bool(store)

    def test_clear(self):
        store = TraceStore()
        store.add_trace(make_trace("a"))
        store.add_trace(make_trace("b", error=True))
        store.clear()
        assert len(store) == 0


class TestTracerSink:
    def test_add_wraps_a_root_span(self):
        store = TraceStore()
        span = make_span(
            "serve.flush", 0.0, 0.25, trace_id="abc", links=["r1", "r2"]
        )
        store.add(span)
        trace = store.get("abc")
        assert trace is not None
        assert trace.kind == "flush"
        assert trace.duration_ms == pytest.approx(250.0)
        assert trace.links == ["r1", "r2"]
        assert not trace.error

    def test_add_without_trace_id_synthesizes_one(self):
        store = TraceStore()
        store.add(make_span("query.nearest"))
        (trace,) = store.traces()
        assert trace.trace_id.startswith("span-")

    def test_add_detects_error_attribute(self):
        store = TraceStore()
        store.add(make_span("serve.request", trace_id="x", error="boom"))
        assert store.get("x").error

    def test_add_detects_fallback_descendant(self):
        store = TraceStore()
        child = make_span("query.fallback")
        store.add(make_span(
            "query.nearest", children=[child], trace_id="fb"
        ))
        assert store.get("fb").fallback

    def test_module_level_install(self):
        assert get_store() is None
        store = install()
        try:
            assert get_store() is store
        finally:
            uninstall()
        assert get_store() is None


def request_trace_with_flush(store):
    """A request trace linked to a flush trace, both stored."""
    flush_root = make_span(
        "serve.flush", 0.010, 0.018, trace_id="flush1",
        children=[make_span("query.batch", 0.010, 0.017, children=[
            make_span("query.point_query", 0.010, 0.013),
            make_span("query.candidate_scan", 0.013, 0.015),
            make_span("lp.solve", 0.015, 0.016),
        ])],
    )
    store.add(flush_root)
    request_root = make_span("serve.request", 0.0, 0.020, children=[
        make_span("serve.queue_wait", 0.0, 0.010),
        make_span("serve.compute", 0.010, 0.018, flush="flush1"),
        make_span("serve.deliver", 0.018, 0.020),
    ], trace_id="req1")
    trace = StoredTrace(
        trace_id="req1", root=request_root, kind="request", ts=0.0,
        duration_ms=20.0, links=["flush1"],
    )
    store.add_trace(trace)
    return trace


class TestCriticalPath:
    def test_request_trace_attributes_via_flush_link(self):
        store = TraceStore()
        trace = request_trace_with_flush(store)
        path = critical_path(trace, store)
        assert isinstance(path, CriticalPath)
        assert path.total_ms == pytest.approx(20.0)
        assert path.stages["queue_wait"] == pytest.approx(10.0)
        assert path.stages["tree_walk"] == pytest.approx(3.0)
        assert path.stages["candidate_scan"] == pytest.approx(2.0)
        assert path.stages["lp"] == pytest.approx(1.0)
        assert path.stages["deliver"] == pytest.approx(2.0)
        # 8 ms of compute, 6 ms claimed by stages -> 2 ms unattributed.
        assert path.stages["compute_other"] == pytest.approx(2.0)
        assert path.coverage == pytest.approx(1.0)

    def test_request_coverage_meets_the_acceptance_floor(self):
        store = TraceStore()
        path = critical_path(request_trace_with_flush(store), store)
        assert path.coverage >= 0.95

    def test_request_without_stored_flush_uses_compute_children(self):
        store = TraceStore()
        compute = make_span("serve.compute", 0.001, 0.005, children=[
            make_span("query.point_query", 0.001, 0.003),
        ])
        root = make_span("serve.request", 0.0, 0.006, children=[
            make_span("serve.queue_wait", 0.0, 0.001),
            compute,
            make_span("serve.deliver", 0.005, 0.006),
        ])
        trace = StoredTrace(
            trace_id="r", root=root, kind="request", ts=0.0, duration_ms=6.0
        )
        path = critical_path(trace, store)
        assert path.stages["tree_walk"] == pytest.approx(2.0)
        assert path.stages["compute_other"] == pytest.approx(2.0)

    def test_stage_claims_never_exceed_the_compute_segment(self):
        # A flush serves many requests, so its stage time can exceed one
        # member's compute window; claims are clamped to the segment.
        store = TraceStore()
        store.add(make_span(
            "serve.flush", 0.0, 1.0, trace_id="f",
            children=[make_span("query.point_query", 0.0, 1.0)],
        ))
        root = make_span("serve.request", 0.0, 0.002, children=[
            make_span("serve.compute", 0.0, 0.002, flush="f"),
        ])
        trace = StoredTrace(
            trace_id="r", root=root, kind="request", ts=0.0, duration_ms=2.0
        )
        path = critical_path(trace, store)
        assert path.stages["tree_walk"] == pytest.approx(2.0)
        assert "compute_other" not in path.stages
        assert path.coverage <= 1.0

    def test_non_request_trace_maps_descendants_directly(self):
        root = make_span("query.nearest", 0.0, 0.010, children=[
            make_span("query.point_query", 0.0, 0.004),
            make_span("query.candidate_scan", 0.004, 0.007, children=[
                # Mapped spans are not descended into: children refine,
                # they do not double-count.
                make_span("lp.solve", 0.004, 0.006),
            ]),
        ])
        trace = StoredTrace(
            trace_id="q", root=root, kind="query", ts=0.0, duration_ms=10.0
        )
        path = critical_path(trace, None)
        assert path.stages["tree_walk"] == pytest.approx(4.0)
        assert path.stages["candidate_scan"] == pytest.approx(3.0)
        assert "lp" not in path.stages

    def test_zero_duration_trace_has_full_coverage(self):
        trace = StoredTrace(
            trace_id="z", root=make_span("serve.request", 0.0, 0.0),
            kind="request", ts=0.0, duration_ms=0.0,
        )
        assert critical_path(trace, None).coverage == 1.0

    def test_as_dict_orders_stages_canonically(self):
        store = TraceStore()
        path = critical_path(request_trace_with_flush(store), store)
        doc = path.as_dict()
        assert list(doc["stages"]) == [
            "queue_wait", "tree_walk", "candidate_scan", "lp",
            "compute_other", "deliver",
        ]
        json.dumps(doc)  # JSON-ready


class TestChromeExport:
    def test_empty_export(self):
        doc = to_chrome_trace([])
        assert doc == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_events_and_rows(self):
        store = TraceStore()
        request_trace_with_flush(store)
        doc = to_chrome_trace(store.traces())
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(meta) == 2  # one thread-name row per trace
        # 4 request spans + 5 flush spans.
        assert len(complete) == 9
        assert all(e["ts"] >= 0.0 for e in complete)
        tids = {e["tid"] for e in complete}
        assert len(tids) == 2
        json.dumps(doc)

    def test_timestamps_are_relative_microseconds(self):
        store = TraceStore()
        request_trace_with_flush(store)
        events = to_chrome_trace(store.traces())["traceEvents"]
        deliver = next(
            e for e in events if e.get("name") == "serve.deliver"
        )
        assert deliver["ts"] == pytest.approx(18_000.0)
        assert deliver["dur"] == pytest.approx(2_000.0)

    def test_non_json_attributes_are_stringified(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        span = make_span("query.nearest", thing=Opaque(), ids=(1, 2))
        trace = StoredTrace(
            trace_id="x", root=span, kind="query", ts=0.0, duration_ms=1.0
        )
        doc = to_chrome_trace([trace])
        args = [e for e in doc["traceEvents"] if e["ph"] == "X"][0]["args"]
        assert args["thing"] == "<opaque>"
        assert args["ids"] == [1, 2]
        json.dumps(doc)
