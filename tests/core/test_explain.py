"""explain(): parity with nearest(), path labels, JSON view, events."""

import numpy as np
import pytest

from helpers import move_rectangles
from repro.core.nncell_index import (
    BuildConfig,
    NNCellIndex,
    QueryInfo,
    fallback_reason,
)
from repro.data import uniform_points
from repro.obs import events


@pytest.fixture(autouse=True)
def clean_event_state():
    events.disable()
    events._log = None
    yield
    events.disable()
    events._log = None


@pytest.fixture(scope="module")
def index():
    return NNCellIndex.build(uniform_points(60, 3, seed=11))


class TestFallbackReason:
    def test_fast_path_has_no_reason(self):
        assert fallback_reason(QueryInfo(fallback=False)) is None

    def test_outside_data_space(self):
        info = QueryInfo(fallback=True, retried_atol=False)
        assert fallback_reason(info) == "outside_data_space"

    def test_empty_point_query(self):
        info = QueryInfo(fallback=True, retried_atol=True)
        assert fallback_reason(info) == "empty_point_query"


class TestExplainParity:
    def test_agrees_with_nearest_on_random_queries(self, index):
        rng = np.random.default_rng(4)
        for q in rng.uniform(0, 1, size=(25, 3)):
            nid, ndist, __ = index.nearest(q)
            explain = index.explain(q)
            assert explain.nearest_id == nid
            assert explain.nearest_distance == pytest.approx(ndist)

    def test_agrees_on_exact_data_points(self, index):
        for pid in (0, 17, 59):
            q = index.points[pid]
            explain = index.explain(q)
            assert explain.nearest_id == index.nearest(q)[0]
            assert explain.nearest_distance == pytest.approx(0.0)

    def test_candidates_sorted_and_include_answer(self, index):
        explain = index.explain(np.full(3, 0.5))
        distances = [d for __, d in explain.candidates]
        assert distances == sorted(distances)
        assert explain.candidates[0] == (
            explain.nearest_id, explain.nearest_distance
        )
        # Every candidate owner appears in the hit rectangles.
        owners = {owner for owner, __ in explain.rectangles}
        assert {pid for pid, __ in explain.candidates} <= owners


class TestExplainPaths:
    def test_interior_query_takes_cell_path(self, index):
        explain = index.explain(np.full(3, 0.5))
        assert explain.path in ("cell", "cell_retry")
        assert explain.rectangles
        assert explain.nodes_visited > 0
        assert explain.pages > 0

    def test_outside_data_space_falls_back(self, index):
        explain = index.explain(np.full(3, 25.0))
        assert explain.path == "outside_data_space"
        assert explain.rectangles == []
        assert explain.candidates == []
        # The fallback still produces the true nearest neighbour.
        assert explain.nearest_id == index.nearest(np.full(3, 25.0))[0]

    def test_rejects_wrong_dimension(self, index):
        with pytest.raises(ValueError):
            index.explain([0.5, 0.5])


class TestExplainAsDict:
    def test_json_ready_shape(self, index):
        doc = index.explain(np.full(3, 0.4)).as_dict()
        assert doc["path"] in (
            "cell", "cell_retry", "empty_point_query", "outside_data_space"
        )
        assert doc["n_candidates"] == len(doc["candidates"])
        assert doc["n_rectangles"] == len(doc["rectangles"])
        assert all(
            set(r) == {"owner", "low", "high"} for r in doc["rectangles"]
        )
        assert all(
            set(c) == {"id", "distance"} for c in doc["candidates"]
        )
        import json

        json.dumps(doc)  # must not raise (no numpy scalars left)


class TestQueryEvents:
    def test_nearest_emits_query_event_when_enabled(self, index):
        with events.collecting() as log:
            index.nearest(np.full(3, 0.5))
        (record,) = log.records("query")
        assert record["outcome"] in ("cell", "fallback")
        assert record["duration_ms"] >= 0.0
        assert record["fallback_reason"] is None or isinstance(
            record["fallback_reason"], str
        )

    def test_fallback_query_reports_reason(self, index):
        with events.collecting() as log:
            index.nearest(np.full(3, 25.0))
        (record,) = log.records("query")
        assert record["outcome"] == "fallback"
        assert record["fallback_reason"] == "outside_data_space"

    def test_disabled_events_leave_no_trace(self, index):
        index.nearest(np.full(3, 0.5))
        assert events.get_log() is None


@pytest.mark.parametrize("path, move, q", [
    ("cell", (0.0, 0.0), [0.5, 0.5, 0.5]),
    # 1e-9 short of the face x = 0: found only at the retry's tolerance.
    ("cell_retry", (1e-9, -1e-9), [0.0, 0.5, 0.5]),
    # Every rectangle outside the data space: nothing is found.
    ("empty_point_query", (10.0, 10.0), [0.5, 0.5, 0.5]),
    ("outside_data_space", (0.0, 0.0), [1.5, 0.5, 0.5]),
])
def test_every_surface_gives_the_same_answer_on_every_path(path, move, q):
    """``explain``, ``nearest``, a one-row ``query_batch`` and
    ``k_nearest(q, 1)`` run the one query path: the same id and the same
    distance bits on each of explain's four paths."""
    index = NNCellIndex.build(
        uniform_points(60, 3, seed=11), BuildConfig(query_atol=0.0)
    )
    move_rectangles(index, *move)
    q = np.array(q)
    explain = index.explain(q)
    assert explain.path == path
    point_id, distance, __ = index.nearest(q)
    ids, dists, __ = index.query_batch(q[None])
    k_ids, k_dists, __ = index.k_nearest(q, 1)
    assert explain.nearest_id == point_id == ids[0] == k_ids[0]
    bits = {
        np.float64(d).tobytes()
        for d in (explain.nearest_distance, distance, dists[0], k_dists[0])
    }
    assert len(bits) == 1
