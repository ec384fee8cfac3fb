"""Failure-injection and degenerate-input tests for the NN-cell index.

The query path has layered safety nets (tolerance retry, branch-and-bound
fallback); these tests force each layer to fire and assert answers stay
exact.  Degenerate datasets (duplicates, collinear points, boundary
points) stress the geometry where Voronoi cells lose full dimensionality.
"""

import itertools

import numpy as np
import pytest

from helpers import brute_k_nearest, brute_nearest, move_rectangles
from repro.core.candidates import SelectorKind
from repro.core.nncell_index import BuildConfig, NNCellIndex
from repro.data import diagonal_points, uniform_points
from repro.index.packed import bulk_load


def crack_queries(dim):
    """Axis-aligned boundary coordinates: faces and mid-planes."""
    for x in np.linspace(0.0, 1.0, 21):
        for rest in itertools.product((0.0, 0.5, 1.0), repeat=dim - 1):
            yield np.array([x, *rest])


class TestSafetyNets:
    def test_fallback_when_solution_space_is_sabotaged(self, rng):
        """If every cell rectangle vanishes from the solution-space index
        (injected corruption), queries must fall back to branch-and-bound
        on the data index and stay exact."""
        points = uniform_points(40, 3, seed=171)
        index = NNCellIndex.build(points)
        lows, highs, owners = index._cell_entries()
        # Every rectangle moved outside the data space: no query inside
        # it finds a candidate.
        index.snapshot = bulk_load(
            lows + 10.0, highs + 10.0, owners, index.config.page_size,
            3 * 8 * 3 + 8,
        )
        for __ in range(20):
            q = rng.uniform(size=3)
            pid, dist, info = index.nearest(q)
            assert info.fallback or info.retried_atol
            __, true_dist = brute_nearest(q, points)
            assert dist == pytest.approx(true_dist)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(170, 176))
    def test_zero_atol_still_exact(self, seed, dim):
        """With query_atol = 0 nothing loosens the point query, so a
        query on a face of the data space is answered only if its owner's
        rectangle reaches the face exactly, not a few ulps short of it."""
        points = uniform_points(60, dim, seed=seed)
        index = NNCellIndex.build(points, BuildConfig(query_atol=0.0))
        for q in crack_queries(dim):
            __, dist, __info = index.nearest(q)
            __, true_dist = brute_nearest(q, points)
            assert dist == pytest.approx(true_dist), q

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_k_nearest_retries_through_a_crack(self, dim):
        """The crack queries at query_atol = 0 on rectangles laid out
        1e-9 short of their bounds, the roundoff a crack stands for: a
        query on a face of the data space finds no rectangle, and
        ``k_nearest`` answers it on the cell path after the tolerance
        retry, exactly as a linear scan with ties by id does."""
        points = uniform_points(60, dim, seed=170)
        index = NNCellIndex.build(points, BuildConfig(query_atol=0.0))
        move_rectangles(index, 1e-9, -1e-9)
        retried = 0
        for q, k in itertools.product(crack_queries(dim), (1, 4)):
            ids, dists, info = index.k_nearest(q, k)
            true_ids, true_dists = brute_k_nearest(q, points, k)
            assert ids == true_ids.tolist(), q
            assert dists == pytest.approx(true_dists), q
            retried += info.retried_atol and not info.fallback
        assert retried


class TestDegenerateData:
    def test_duplicate_points(self, rng):
        points = np.vstack([
            uniform_points(10, 3, seed=173),
            uniform_points(10, 3, seed=173),  # exact duplicates
        ])
        index = NNCellIndex.build(
            points, BuildConfig(selector=SelectorKind.CORRECT)
        )
        for __ in range(25):
            q = rng.uniform(size=3)
            __, dist, __info = index.nearest(q)
            __, true_dist = brute_nearest(q, points)
            assert dist == pytest.approx(true_dist)

    def test_all_points_identical(self, rng):
        points = np.tile([0.3, 0.7], (8, 1))
        index = NNCellIndex.build(points)
        pid, dist, __ = index.nearest(rng.uniform(size=2))
        assert 0 <= pid < 8

    def test_collinear_points(self, rng):
        """Diagonal data: cells are parallel slabs, MBRs near-total."""
        points = diagonal_points(12, 3, jitter=0.0)
        index = NNCellIndex.build(
            points, BuildConfig(selector=SelectorKind.CORRECT)
        )
        for __ in range(40):
            q = rng.uniform(size=3)
            __, dist, __info = index.nearest(q)
            __, true_dist = brute_nearest(q, points)
            assert dist == pytest.approx(true_dist)

    def test_points_on_cube_boundary(self, rng):
        rng_local = np.random.default_rng(174)
        points = rng_local.uniform(size=(30, 3))
        # Snap a third of the coordinates onto the data-space boundary.
        mask = rng_local.uniform(size=points.shape) < 0.33
        points[mask] = np.round(points[mask])
        index = NNCellIndex.build(points)
        for __ in range(30):
            q = rng.uniform(size=3)
            __, dist, __info = index.nearest(q)
            __, true_dist = brute_nearest(q, points)
            assert dist == pytest.approx(true_dist)

    def test_two_point_database(self, rng):
        points = np.array([[0.25, 0.25], [0.75, 0.75]])
        index = NNCellIndex.build(points)
        assert index.nearest([0.2, 0.2])[0] == 0
        assert index.nearest([0.8, 0.8])[0] == 1

    def test_single_dimension(self, rng):
        """d = 1: cells are intervals; everything still works."""
        points = np.sort(rng.uniform(size=(15, 1)), axis=0)
        index = NNCellIndex.build(
            points, BuildConfig(selector=SelectorKind.CORRECT)
        )
        for __ in range(30):
            q = rng.uniform(size=1)
            __, dist, __info = index.nearest(q)
            __, true_dist = brute_nearest(q, points)
            assert dist == pytest.approx(true_dist)


class TestCustomDataSpace:
    def test_non_unit_box(self, rng):
        from repro.geometry.mbr import MBR

        box = MBR(np.array([-1.0, -2.0]), np.array([3.0, 2.0]))
        points = np.column_stack([
            rng.uniform(-1.0, 3.0, size=40),
            rng.uniform(-2.0, 2.0, size=40),
        ])
        index = NNCellIndex.build(points, BuildConfig(data_space=box))
        for __ in range(40):
            q = np.array([
                rng.uniform(-1.0, 3.0), rng.uniform(-2.0, 2.0)
            ])
            __, dist, info = index.nearest(q)
            __, true_dist = brute_nearest(q, points)
            assert dist == pytest.approx(true_dist)
            assert not info.fallback

    def test_box_dim_mismatch_rejected(self):
        from repro.geometry.mbr import MBR

        with pytest.raises(ValueError):
            NNCellIndex.build(
                np.array([[0.5, 0.5]]),
                BuildConfig(data_space=MBR.unit_cube(3)),
            )
