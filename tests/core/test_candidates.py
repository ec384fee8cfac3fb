"""Unit tests for the four candidate-selection strategies.

A selector searches the data snapshot an index lays out of its live
points; the Point selector's leaves are checked against those of the
X-tree bulk loaded from the same points."""

import numpy as np
import pytest

from repro.core.candidates import (
    CandidateSelector,
    SelectorKind,
    SelectorParams,
    sphere_radius,
)
from repro.core.nncell_index import BuildConfig, data_snapshot
from repro.data import uniform_points
from repro.index.bulk import bulk_load
from repro.index.xtree import XTree


@pytest.fixture
def dataset():
    points = uniform_points(150, 4, seed=21)
    return points, data_snapshot(points, np.arange(150), BuildConfig())


def make_selector(points, tree, kind, **params):
    return CandidateSelector(points, tree, kind, SelectorParams(**params))


class TestSphereRadius:
    def test_formula(self):
        assert sphere_radius(1000, 4) == pytest.approx(
            2.0 * (1.0 / 1000) ** 0.25
        )

    def test_factor_scales(self):
        assert sphere_radius(100, 2, factor=1.0) == pytest.approx(
            0.5 * sphere_radius(100, 2, factor=2.0)
        )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sphere_radius(0, 4)
        with pytest.raises(ValueError):
            sphere_radius(10, 0)


class TestCorrect:
    def test_returns_all_other_points(self, dataset):
        points, tree = dataset
        selector = make_selector(points, tree, SelectorKind.CORRECT)
        ids = selector.candidates(7)
        assert len(ids) == len(points) - 1
        assert 7 not in ids

    def test_works_without_tree(self, dataset):
        points, __ = dataset
        selector = CandidateSelector(points, None, SelectorKind.CORRECT)
        assert len(selector.candidates(0)) == len(points) - 1


class TestPoint:
    def test_returns_points_of_covering_leaves(self, dataset):
        points, tree = dataset
        selector = make_selector(points, tree, SelectorKind.POINT)
        ids = selector.candidates(3)
        assert 3 not in ids
        # Every leaf whose region contains the point contributes all its
        # entries, so the set must cover the point's own leaf (minus it).
        reference = bulk_load(
            XTree(4, leaf_entry_bytes=8 * 4 + 8), points, points,
            np.arange(150),
        )
        own_leaf_ids = set()
        for leaf in reference.leaves_containing(points[3]):
            own_leaf_ids.update(int(i) for i in leaf.ids)
        own_leaf_ids.discard(3)
        assert own_leaf_ids <= set(ids.tolist())

    def test_requires_tree(self, dataset):
        points, __ = dataset
        with pytest.raises(ValueError):
            CandidateSelector(points, None, SelectorKind.POINT)


class TestSphere:
    def test_covers_all_points_within_radius(self, dataset):
        points, tree = dataset
        selector = make_selector(points, tree, SelectorKind.SPHERE)
        radius = sphere_radius(150, 4)
        ids = set(selector.candidates(5).tolist())
        within = {
            i for i, p in enumerate(points)
            if i != 5 and np.linalg.norm(p - points[5]) <= radius
        }
        assert within <= ids

    def test_radius_factor_grows_candidates(self, dataset):
        points, tree = dataset
        small = make_selector(points, tree, SelectorKind.SPHERE,
                              sphere_radius_factor=0.5)
        large = make_selector(points, tree, SelectorKind.SPHERE,
                              sphere_radius_factor=4.0)
        assert len(small.candidates(0)) <= len(large.candidates(0))

    def test_requires_tree(self, dataset):
        points, __ = dataset
        with pytest.raises(ValueError):
            CandidateSelector(points, None, SelectorKind.SPHERE)


class TestNNDirection:
    def test_bounded_size(self, dataset):
        points, tree = dataset
        selector = make_selector(points, tree, SelectorKind.NN_DIRECTION)
        for i in range(0, 150, 15):
            ids = selector.candidates(i)
            assert 1 <= len(ids) <= 4 * points.shape[1]
            assert i not in ids

    def test_contains_directional_nearest(self, dataset):
        """For each axis direction the nearest point in that half-space
        must be among the candidates."""
        points, tree = dataset
        selector = make_selector(points, tree, SelectorKind.NN_DIRECTION)
        center_id = 11
        ids = set(selector.candidates(center_id).tolist())
        diff = points - points[center_id]
        dist = np.linalg.norm(diff, axis=1)
        for axis in range(4):
            for sign in (1.0, -1.0):
                side = np.flatnonzero(sign * diff[:, axis] > 0)
                if side.size:
                    nearest = side[np.argmin(dist[side])]
                    assert int(nearest) in ids

    def test_works_without_tree(self, dataset):
        points, __ = dataset
        selector = CandidateSelector(points, None, SelectorKind.NN_DIRECTION)
        assert len(selector.candidates(0)) >= 1


class TestDynamicBookkeeping:
    def test_inactive_points_excluded(self, dataset):
        points, __ = dataset
        active = np.ones(len(points), dtype=bool)
        active[4] = False
        data = data_snapshot(points, np.flatnonzero(active), BuildConfig())
        for kind in SelectorKind:
            selector = CandidateSelector(points, data, kind, active=active)
            assert selector.n_points == len(points) - 1
            ids = selector.candidates(0)
            assert 4 not in ids
            if kind is SelectorKind.CORRECT:
                assert len(ids) == len(points) - 2

    def test_selector_over_a_grown_point_set(self, dataset, rng):
        points, __ = dataset
        grown = np.vstack([points, rng.uniform(size=(3, 4))])
        data = data_snapshot(grown, np.arange(len(grown)), BuildConfig())
        selector = CandidateSelector(grown, data, SelectorKind.CORRECT)
        assert selector.n_points == len(points) + 3
        assert len(selector.candidates(0)) == len(points) + 2

    def test_candidates_for_new_point(self, dataset, rng):
        points, tree = dataset
        selector = make_selector(points, tree, SelectorKind.NN_DIRECTION)
        ids = selector.candidates_for_point(rng.uniform(size=4))
        assert len(ids) >= 1

    def test_minimum_candidates_topped_up(self):
        # Two coincident points: NN-Direction has no usable direction;
        # the top-up must still return the other point.
        points = np.array([[0.5, 0.5], [0.5, 0.5]])
        selector = CandidateSelector(points, None, SelectorKind.NN_DIRECTION)
        ids = selector.candidates(0)
        assert ids.tolist() == [1]

    def test_rejects_1d_points(self):
        with pytest.raises(ValueError):
            CandidateSelector(np.zeros(5), None, SelectorKind.CORRECT)
