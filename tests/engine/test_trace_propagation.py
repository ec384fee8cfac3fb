"""Span parenting in parallel cell construction.

Worker processes record nothing (their instrumentation is off), so the
parent re-emits each chunk's accounting as a ``build.worker_chunk`` span
under ``build.cells.parallel``.  These tests pin the contract: those
spans nest under the parallel root and carry the submitting context's
trace id, like every span of a serial build.
"""

import pytest

from repro.core.candidates import SelectorKind
from repro.core.nncell_index import BuildConfig, NNCellIndex
from repro.data import uniform_points
from repro.obs import tracectx, tracing


@pytest.fixture(autouse=True)
def clean_tracing_state():
    tracing.disable()
    yield
    tracing.disable()


def parallel_build(points):
    config = BuildConfig(selector=SelectorKind.NN_DIRECTION, workers=2)
    return NNCellIndex.build(points, config)


def collect(root, name):
    found, stack = [], [root]
    while stack:
        node = stack.pop()
        if node.name == name:
            found.append(node)
        stack.extend(node.children)
    return found


class TestThreadPoolSpanParenting:
    def test_worker_spans_inherit_the_bound_trace_id(self):
        points = uniform_points(30, 3, seed=2)
        with tracing.collecting() as tracer:
            with tracectx.bind("beefc0de00000001"):
                parallel_build(points)
        (root,) = tracer.find("build.cells.parallel")
        assert root.attributes["trace_id"] == "beefc0de00000001"
        chunks = collect(root, "build.worker_chunk")
        assert chunks
        assert all(
            s.attributes["trace_id"] == "beefc0de00000001" for s in chunks
        )

    def test_parent_reemits_process_worker_accounting(self):
        points = uniform_points(24, 3, seed=3)
        with tracing.collecting() as tracer:
            parallel_build(points)
        (root,) = tracer.find("build.cells.parallel")
        chunks = collect(root, "build.worker_chunk")
        assert chunks
        assert all("lp_calls" in c.attributes for c in chunks)
        assert sum(c.attributes["n_points"] for c in chunks) == 24
        assert sum(c.attributes["lp_calls"] for c in chunks) == (
            root.attributes["lp_calls"]
        )
