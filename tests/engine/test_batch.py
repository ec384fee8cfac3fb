"""Parity and accounting tests for the batched query engine.

``query_batch`` must return exactly what the serial ``nearest`` loop
returns — same ids, bit-identical distances, through every code path
(plain point query, tolerance retry, out-of-box fallback) — while
reading strictly fewer pages than the per-query walks combined.
"""

import numpy as np
import pytest

from repro.core.candidates import SelectorKind
from repro.core.nncell_index import BuildConfig, NNCellIndex
from repro.data import query_points, uniform_points
from repro.engine.batch import BatchQueryInfo, batched_point_query
from repro.obs import metrics


@pytest.fixture(scope="module")
def index():
    points = uniform_points(90, 3, seed=21)
    return NNCellIndex.build(
        points, BuildConfig(selector=SelectorKind.SPHERE)
    )


def serial_answers(index, queries):
    ids, dists, infos = [], [], []
    for q in queries:
        pid, dist, info = index.nearest(q)
        ids.append(pid)
        dists.append(dist)
        infos.append(info)
    return np.asarray(ids), np.asarray(dists), infos


class TestParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_serial_bit_for_bit(self, index, seed):
        queries = query_points(40, 3, seed=seed)
        serial_ids, serial_dists, infos = serial_answers(index, queries)
        batch_ids, batch_dists, info = index.query_batch(queries)
        assert np.array_equal(batch_ids, serial_ids)
        # Bit-identical, not approximately equal: the batched scan runs
        # the same float64 arithmetic on the same operands.
        assert batch_dists.tobytes() == serial_dists.tobytes()
        assert info.n_queries == 40
        assert info.n_candidates == sum(i.n_candidates for i in infos)
        assert info.distance_computations == sum(
            i.distance_computations for i in infos
        )

    def test_batch_size_invariance(self, index):
        queries = query_points(30, 3, seed=5)
        full_ids, full_dists, __ = index.query_batch(queries)
        for batch_size in (1, 7, 30, 100):
            ids, dists, info = index.query_batch(
                queries, batch_size=batch_size
            )
            assert np.array_equal(ids, full_ids)
            assert dists.tobytes() == full_dists.tobytes()
            assert info.n_batches == -(-30 // min(batch_size, 30))

    def test_out_of_box_queries_fall_back(self, index):
        queries = np.array([
            [0.5, 0.5, 0.5],
            [1.5, 0.5, 0.5],   # outside the unit cube
            [-0.2, 0.1, 0.9],  # outside the unit cube
        ])
        serial_ids, serial_dists, infos = serial_answers(index, queries)
        batch_ids, batch_dists, info = index.query_batch(queries)
        assert np.array_equal(batch_ids, serial_ids)
        assert batch_dists.tobytes() == serial_dists.tobytes()
        assert info.fallbacks == sum(i.fallback for i in infos) == 2

    def test_pages_amortised_below_serial_sum(self, index):
        queries = query_points(50, 3, seed=8)
        __, __, infos = serial_answers(index, queries)
        __, __, info = index.query_batch(queries)
        serial_pages = sum(i.pages for i in infos)
        assert 0 < info.pages < serial_pages

    def test_nearest_batch_delegates(self, index):
        queries = query_points(12, 3, seed=3)
        ids, dists = index.nearest_batch(queries)
        batch_ids, batch_dists, __ = index.query_batch(queries)
        assert np.array_equal(ids, batch_ids)
        assert dists.tobytes() == batch_dists.tobytes()

    def test_single_query_row_vector(self, index):
        q = np.full(3, 0.5)
        pid, dist, __ = index.nearest(q)
        ids, dists, info = index.query_batch(q)  # 1-d input, atleast_2d
        assert ids.shape == (1,) and dists.shape == (1,)
        assert ids[0] == pid and dists[0] == dist


class TestValidation:
    def test_wrong_dimension_rejected(self, index):
        with pytest.raises(ValueError):
            index.query_batch(np.zeros((4, 5)))

    def test_bad_batch_size_rejected(self, index):
        with pytest.raises(ValueError):
            index.query_batch(np.zeros((2, 3)), batch_size=0)

    def test_empty_batch(self, index):
        ids, dists, info = index.query_batch(np.zeros((0, 3)))
        assert ids.size == 0 and dists.size == 0
        assert info == BatchQueryInfo(n_queries=0)


class TestBatchedPointQuery:
    def test_matches_point_query_per_row(self, index):
        queries = query_points(20, 3, seed=13)
        walk = batched_point_query(
            index.snapshot, queries, atol=index.config.query_atol
        )
        for j, q in enumerate(queries):
            expected = np.unique(
                index.cell_tree.point_query(q, atol=index.config.query_atol)
            )
            got = np.unique(walk.owner[walk.query == j])
            assert np.array_equal(got, expected)

    def test_empty_query_set(self, index):
        walk = batched_point_query(index.snapshot, np.zeros((0, 3)))
        assert walk.query.size == 0 and walk.owner.size == 0
        assert walk.pages == 0 and walk.page_ids().size == 0


class TestObservability:
    def test_batch_metrics_emitted(self, index):
        queries = query_points(10, 3, seed=17)
        with metrics.collecting(fresh=True) as registry:
            index.query_batch(queries, batch_size=4)
        report = registry.as_dict()
        assert report["counters"]["query.batch.count"] == 1
        assert report["counters"]["query.batch.queries"] == 10
        assert report["histograms"]["query.batch_size"]["count"] == 1
        # Per-query candidate counts land in the same histogram the
        # serial path feeds, so dashboards stay comparable.
        assert report["histograms"]["query.candidates"]["count"] == 10

    def test_parallel_build_metrics_emitted(self):
        points = uniform_points(20, 2, seed=31)
        with metrics.collecting(fresh=True) as registry:
            NNCellIndex.build(
                points,
                BuildConfig(
                    selector=SelectorKind.NN_DIRECTION,
                    workers=2,
                    executor="thread",
                ),
            )
        report = registry.as_dict()
        assert report["counters"]["build.parallel.builds"] == 1
        assert report["counters"]["build.parallel.chunks"] >= 2
        assert report["counters"]["build.parallel.lp_calls"] == 20 * 2 * 2
        assert report["histograms"]["build.chunk_points"]["count"] >= 2
