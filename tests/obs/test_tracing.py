"""Span tracing: nesting, timing monotonicity, no-op mode, threads."""

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import tracectx, tracing
from repro.obs.tracing import (
    Span,
    Tracer,
    _NOOP,
    carrier,
    current_span,
    span,
)


@pytest.fixture(autouse=True)
def clean_tracing_state():
    tracing.disable()
    if tracing.get_tracer() is not None:
        tracing.get_tracer().clear()
    yield
    tracing.disable()


class TestDisabledMode:
    def test_span_returns_shared_noop(self):
        assert span("anything") is _NOOP
        assert span("other", k=1) is _NOOP

    def test_noop_span_is_inert(self):
        with span("x") as s:
            s.set("key", "value")  # swallowed
        assert current_span() is _NOOP


class TestEnabledMode:
    def test_root_span_lands_on_tracer(self):
        tracer = tracing.enable(Tracer())
        with span("root", dim=4):
            pass
        assert [s.name for s in tracer.spans] == ["root"]
        assert tracer.spans[0].attributes == {"dim": 4}

    def test_nesting_mirrors_call_structure(self):
        tracer = tracing.enable(Tracer())
        with span("query"):
            with span("lookup"):
                pass
            with span("scan"):
                with span("refine"):
                    pass
        (root,) = tracer.spans
        assert [c.name for c in root.children] == ["lookup", "scan"]
        assert [c.name for c in root.children[1].children] == ["refine"]

    def test_current_span_tracks_innermost(self):
        tracing.enable(Tracer())
        with span("outer") as outer:
            assert current_span() is outer
            with span("inner") as inner:
                assert current_span() is inner
            assert current_span() is outer

    def test_timing_is_monotonic_and_nested(self):
        tracer = tracing.enable(Tracer())
        with span("parent"):
            with span("child"):
                time.sleep(0.002)
        (parent,) = tracer.spans
        (child,) = parent.children
        assert child.duration_seconds >= 0.002
        # A child's window sits inside its parent's.
        assert parent.start <= child.start
        assert child.end <= parent.end
        assert parent.duration_seconds >= child.duration_seconds

    def test_attributes_set_during_block(self):
        tracer = tracing.enable(Tracer())
        with span("q") as s:
            s.set("pages", 5)
            s.set("pages", 7)  # overwrite wins
        assert tracer.spans[0].attributes == {"pages": 7}

    def test_span_closes_on_exception(self):
        tracer = tracing.enable(Tracer())
        with pytest.raises(RuntimeError):
            with span("failing"):
                raise RuntimeError("boom")
        (s,) = tracer.spans
        assert s.end >= s.start
        assert current_span() is not s

    def test_find_searches_whole_tree(self):
        tracer = tracing.enable(Tracer())
        with span("a"):
            with span("b"):
                with span("a"):
                    pass
        assert len(tracer.find("a")) == 2
        assert len(tracer.find("b")) == 1
        assert tracer.find("missing") == []

    def test_threads_get_independent_span_stacks(self):
        """contextvars isolate the current span per thread: spans started
        in worker threads become roots, not children of another thread's
        open span."""
        tracer = tracing.enable(Tracer())

        def job(i):
            with span(f"job{i}"):
                time.sleep(0.001)

        with span("main"):
            with ThreadPoolExecutor(max_workers=4) as pool:
                for f in [pool.submit(job, i) for i in range(4)]:
                    f.result()
        names = sorted(s.name for s in tracer.spans)
        assert names == ["job0", "job1", "job2", "job3", "main"]
        (main,) = [s for s in tracer.spans if s.name == "main"]
        assert main.children == []


class TestTraceIdentityStamping:
    def test_span_carries_bound_trace_id(self):
        tracer = tracing.enable(Tracer())
        with tracectx.bind("feedbead00000001"):
            with span("query.nearest"):
                pass
        assert tracer.spans[0].attributes["trace_id"] == "feedbead00000001"

    def test_explicit_trace_id_attribute_wins(self):
        tracer = tracing.enable(Tracer())
        with tracectx.bind("context-id"):
            with span("serve.flush", trace_id="explicit-id"):
                pass
        assert tracer.spans[0].attributes["trace_id"] == "explicit-id"

    def test_unbound_context_leaves_spans_unstamped(self):
        tracer = tracing.enable(Tracer())
        with span("query.nearest"):
            pass
        assert "trace_id" not in tracer.spans[0].attributes


class TestTraceCarrier:
    def test_worker_spans_parent_under_the_submitting_span(self):
        tracer = tracing.enable(Tracer())
        with span("build.cells.parallel") as root:
            ctx = carrier()
            with ThreadPoolExecutor(max_workers=2) as pool:
                def chunk(i):
                    with span(f"chunk{i}"):
                        pass

                for f in [pool.submit(ctx.call, chunk, i) for i in range(3)]:
                    f.result()
        (collected,) = tracer.spans
        assert collected is root
        assert sorted(c.name for c in root.children) == [
            "chunk0", "chunk1", "chunk2"
        ]

    def test_worker_spans_carry_the_submitting_trace_id(self):
        tracer = tracing.enable(Tracer())
        with tracectx.bind("cafe000000000001"):
            with span("build.cells.parallel"):
                ctx = carrier()
                with ThreadPoolExecutor(max_workers=1) as pool:
                    pool.submit(
                        ctx.call, lambda: span("worker").__enter__().__exit__()
                    ).result()
        (root,) = tracer.spans
        (worker,) = root.children
        assert worker.attributes["trace_id"] == "cafe000000000001"

    def test_worker_context_is_restored_after_the_call(self):
        tracing.enable(Tracer())
        outcomes = {}
        with tracectx.bind("the-request"):
            with span("root"):
                ctx = carrier()

        def probe():
            ctx.call(lambda: None)
            # Outside the carrier scope the worker thread is unbound
            # again: the carrier must not leak context.
            outcomes["trace"] = tracectx.current_trace_id()
            outcomes["span"] = current_span()

        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(probe).result()
        assert outcomes["trace"] is None
        assert outcomes["span"] is _NOOP

    def test_carrier_with_tracing_disabled_still_moves_trace_id(self):
        with tracectx.bind("id-without-spans"):
            ctx = carrier()
        assert ctx.parent is None
        seen = []
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(
                ctx.call, lambda: seen.append(tracectx.current_trace_id())
            ).result()
        assert seen == ["id-without-spans"]

    def test_carrier_return_value_passthrough(self):
        ctx = carrier()
        assert ctx.call(lambda a, b=0: a + b, 2, b=3) == 5


class TestCollecting:
    def test_collects_onto_fresh_tracer_and_restores(self):
        assert not tracing.enabled()
        with tracing.collecting() as tracer:
            assert tracing.enabled()
            with span("inside"):
                pass
        assert not tracing.enabled()
        assert [s.name for s in tracer.spans] == ["inside"]

    def test_nested_collecting_scopes_are_independent(self):
        with tracing.collecting() as outer:
            with span("one"):
                pass
            with tracing.collecting() as inner:
                with span("two"):
                    pass
            with span("three"):
                pass
        assert [s.name for s in outer.spans] == ["one", "three"]
        assert [s.name for s in inner.spans] == ["two"]


class TestSpanObject:
    def test_duration_never_negative(self):
        s = Span("x")
        assert s.duration_seconds == 0.0
