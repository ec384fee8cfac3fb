"""Tests for exact k-NN on the order-1 solution-space index."""

import numpy as np
import pytest

from helpers import brute_k_nearest
from repro.core.candidates import SelectorKind
from repro.core.nncell_index import BuildConfig, NNCellIndex
from repro.data import clustered_points, uniform_points


@pytest.fixture(scope="module")
def index_and_points():
    points = uniform_points(150, 4, seed=141)
    index = NNCellIndex.build(
        points, BuildConfig(selector=SelectorKind.NN_DIRECTION)
    )
    return index, points


class TestKNearest:
    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    def test_matches_bruteforce(self, index_and_points, rng, k):
        index, points = index_and_points
        for __ in range(40):
            q = rng.uniform(size=4)
            ids, dists, __info = index.k_nearest(q, k)
            __, true_dists = brute_k_nearest(q, points, k)
            assert len(ids) == k
            assert np.allclose(dists, true_dists)
            assert dists == sorted(dists)

    def test_k_one_matches_nearest(self, index_and_points, rng):
        index, __ = index_and_points
        q = rng.uniform(size=4)
        pid, dist, __ = index.nearest(q)
        ids, dists, __ = index.k_nearest(q, 1)
        assert ids == [pid]
        assert dists[0] == pytest.approx(dist)

    def test_k_exceeding_database(self, rng):
        points = uniform_points(6, 3, seed=142)
        index = NNCellIndex.build(points)
        ids, dists, __ = index.k_nearest(rng.uniform(size=3), 20)
        assert len(ids) == 6
        assert set(ids) == set(range(6))

    def test_k_must_be_positive(self, index_and_points):
        index, __ = index_and_points
        with pytest.raises(ValueError):
            index.k_nearest(np.full(4, 0.5), 0)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, False, "2", None, -1])
    def test_k_must_be_an_int(self, index_and_points, k):
        # A float reached numpy's partition and a bool answered as k=1.
        index, __ = index_and_points
        with pytest.raises(ValueError, match="k must be"):
            index.k_nearest(np.full(4, 0.5), k)

    def test_numpy_int_k_answers(self, index_and_points):
        index, __ = index_and_points
        q = np.full(4, 0.5)
        assert index.k_nearest(q, np.int64(3)) == index.k_nearest(q, 3)

    def test_non_finite_query_rejected(self, index_and_points):
        index, __ = index_and_points
        with pytest.raises(ValueError, match="non-finite"):
            index.k_nearest([np.nan, 0.5, 0.5, 0.5], 2)

    def test_wrong_dim_rejected(self, index_and_points):
        index, __ = index_and_points
        with pytest.raises(ValueError):
            index.k_nearest([0.5, 0.5], 2)

    def test_outside_data_space_falls_back(self, index_and_points, rng):
        index, points = index_and_points
        q = np.full(4, 1.3)
        ids, dists, info = index.k_nearest(q, 4)
        assert info.fallback
        __, true_dists = brute_k_nearest(q, points, 4)
        assert np.allclose(dists, true_dists)

    def test_clustered_data(self, rng):
        points = clustered_points(100, 3, seed=143)
        index = NNCellIndex.build(
            points, BuildConfig(selector=SelectorKind.NN_DIRECTION)
        )
        for __ in range(30):
            q = rng.uniform(size=3)
            __, dists, __info = index.k_nearest(q, 4)
            __, true_dists = brute_k_nearest(q, points, 4)
            assert np.allclose(dists, true_dists)

    def test_after_dynamic_updates(self, rng):
        points = uniform_points(40, 3, seed=144)
        index = NNCellIndex.build(points)
        for __ in range(5):
            index.insert(rng.uniform(size=3))
        index.delete(7)
        live = index.points[index.active_ids]
        for __ in range(20):
            q = rng.uniform(size=3)
            __, dists, __info = index.k_nearest(q, 3)
            __, true_dists = brute_k_nearest(q, live, 3)
            assert np.allclose(dists, true_dists)

    def test_info_accounting(self, index_and_points, rng):
        index, __ = index_and_points
        __, __, info = index.k_nearest(rng.uniform(size=4), 3)
        assert info.pages > 0
        assert info.distance_computations > 0
