"""Integration tests for the NN-cell index (build and query)."""

import numpy as np
import pytest

from helpers import brute_nearest
from repro.core.candidates import SelectorKind
from repro.core.decomposition import DecompositionConfig
from repro.core.nncell_index import BuildConfig, NNCellIndex
from repro.data import clustered_points, grid_points, uniform_points
from repro.geometry.mbr import MBR

ALL_SELECTORS = list(SelectorKind)


class TestBuild:
    def test_build_registers_every_cell(self, points_4d):
        index = NNCellIndex.build(points_4d)
        assert len(index) == len(points_4d)
        for i in range(len(points_4d)):
            assert len(index.cell_rectangles(i)) >= 1

    def test_rejects_empty_points(self):
        with pytest.raises(ValueError):
            NNCellIndex.build(np.zeros((0, 3)))

    def test_rejects_points_outside_data_space(self):
        with pytest.raises(ValueError):
            NNCellIndex.build(np.array([[0.5, 1.5]]))

    @pytest.mark.parametrize(
        "extra, inside",
        [
            ([1.0, 0.0], True),  # exactly on two faces
            ([0.5, 1.0 + 1e-13], True),  # within the 1e-12 tolerance
            ([0.5, 1.0 + 1e-9], False),  # just outside
            ([-1e-9, 0.5], False),
            ([np.nan, 0.5], False),
        ],
    )
    def test_data_space_check(self, extra, inside):
        points = np.vstack([uniform_points(5, 2, seed=4), [extra]])
        box = MBR.unit_cube(2)
        # The per-point loop is the reference for the vectorised check.
        assert all(box.contains_point(p, atol=1e-12) for p in points) is inside
        if inside:
            NNCellIndex(points)
        else:
            with pytest.raises(ValueError, match="inside the data space"):
                NNCellIndex(points)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            BuildConfig(index_kind="btree")
        with pytest.raises(ValueError):
            BuildConfig(query_atol=-1.0)

    def test_single_point_owns_whole_space(self, rng):
        index = NNCellIndex.build(np.array([[0.3, 0.7]]))
        for __ in range(20):
            pid, __, info = index.nearest(rng.uniform(size=2))
            assert pid == 0
            assert not info.fallback

    def test_non_bulk_build_equivalent(self, rng):
        points = uniform_points(40, 3, seed=51)
        bulk = NNCellIndex.build(points, BuildConfig(bulk=True))
        slow = NNCellIndex.build(points, BuildConfig(bulk=False))
        for __ in range(25):
            q = rng.uniform(size=3)
            assert bulk.nearest(q)[0] == slow.nearest(q)[0]

    def test_rstar_index_kind(self, rng):
        points = uniform_points(50, 3, seed=52)
        index = NNCellIndex.build(points, BuildConfig(index_kind="rstar"))
        for __ in range(25):
            q = rng.uniform(size=3)
            true_id, __ = brute_nearest(q, points)
            assert index.nearest(q)[0] == true_id

    def test_stats_fields(self, points_4d):
        index = NNCellIndex.build(points_4d)
        stats = index.stats()
        assert stats["n_points"] == len(points_4d)
        assert stats["n_rectangles"] >= stats["n_points"]
        assert stats["expected_candidates"] >= 1.0 - 1e-9


@pytest.mark.parametrize("selector", ALL_SELECTORS)
class TestQueryCorrectness:
    """No false dismissals (Lemma 2) for every selector strategy."""

    def test_matches_bruteforce_uniform(self, selector, rng):
        points = uniform_points(80, 4, seed=53)
        index = NNCellIndex.build(points, BuildConfig(selector=selector))
        for __ in range(60):
            q = rng.uniform(size=4)
            pid, dist, info = index.nearest(q)
            __, true_dist = brute_nearest(q, points)
            assert dist == pytest.approx(true_dist)
            assert not info.fallback

    def test_matches_bruteforce_clustered(self, selector, rng):
        points = clustered_points(70, 3, seed=54)
        index = NNCellIndex.build(points, BuildConfig(selector=selector))
        for __ in range(60):
            q = rng.uniform(size=3)
            pid, dist, __ = index.nearest(q)
            __, true_dist = brute_nearest(q, points)
            assert dist == pytest.approx(true_dist)

    def test_with_decomposition(self, selector, rng):
        points = uniform_points(50, 3, seed=55)
        config = BuildConfig(
            selector=selector,
            decompose=True,
            decomposition=DecompositionConfig(k_max=8),
        )
        index = NNCellIndex.build(points, config)
        for __ in range(50):
            q = rng.uniform(size=3)
            __, dist, __ = index.nearest(q)
            __, true_dist = brute_nearest(q, points)
            assert dist == pytest.approx(true_dist)


class TestQueryEdgeCases:
    def test_query_on_data_point(self, points_4d):
        index = NNCellIndex.build(points_4d)
        pid, dist, __ = index.nearest(points_4d[13])
        assert pid == 13
        assert dist == pytest.approx(0.0)

    def test_query_outside_data_space_falls_back(self, points_4d):
        index = NNCellIndex.build(points_4d)
        q = np.full(4, 1.5)
        pid, dist, info = index.nearest(q)
        assert info.fallback
        true_id, true_dist = brute_nearest(q, points_4d)
        assert dist == pytest.approx(true_dist)

    def test_query_on_cell_boundary(self):
        """Boundaries between grid cells are the worst numeric case."""
        points = grid_points(3, 2)
        index = NNCellIndex.build(
            points, BuildConfig(selector=SelectorKind.CORRECT)
        )
        # Exactly on the vertical boundary x = 1/3.
        pid, dist, info = index.nearest(np.array([1.0 / 3.0, 0.1]))
        assert dist == pytest.approx(
            brute_nearest([1.0 / 3.0, 0.1], points)[1]
        )

    def test_query_at_corners(self, points_4d):
        index = NNCellIndex.build(points_4d)
        for corner in (np.zeros(4), np.ones(4)):
            __, dist, info = index.nearest(corner)
            assert dist == pytest.approx(brute_nearest(corner, points_4d)[1])
            assert not info.fallback

    def test_rejects_wrong_dim_query(self, points_4d):
        index = NNCellIndex.build(points_4d)
        with pytest.raises(ValueError):
            index.nearest([0.5, 0.5])

    def test_query_info_counts(self, points_4d, rng):
        index = NNCellIndex.build(points_4d)
        __, __, info = index.nearest(rng.uniform(size=4))
        assert info.n_candidates >= 1
        assert info.pages >= 1
        assert info.distance_computations == info.n_candidates

    def test_grid_single_candidate(self):
        """On the regular grid every query has exactly one candidate —
        the paper's best case where a point query touches one cell."""
        points = grid_points(4, 2)
        index = NNCellIndex.build(
            points, BuildConfig(selector=SelectorKind.CORRECT)
        )
        rng = np.random.default_rng(56)
        for __ in range(40):
            q = rng.uniform(0.01, 0.99, size=2)
            # Stay away from exact boundaries for the single-candidate claim.
            if np.any(np.abs((q * 4) - np.round(q * 4)) < 0.02):
                continue
            __, __, info = index.nearest(q)
            assert info.n_candidates == 1

    def test_within_radius_matches_bruteforce(self, points_4d, rng):
        index = NNCellIndex.build(points_4d)
        for __ in range(20):
            c = rng.uniform(size=4)
            r = float(rng.uniform(0.1, 0.5))
            found = set(index.within_radius(c, r).tolist())
            brute = {
                i for i, p in enumerate(points_4d)
                if np.linalg.norm(p - c) <= r + 1e-12
            }
            assert found == brute

    def test_within_radius_validation(self, points_4d):
        index = NNCellIndex.build(points_4d)
        with pytest.raises(ValueError):
            index.within_radius(np.full(4, 0.5), -0.1)
        with pytest.raises(ValueError):
            index.within_radius([0.5, 0.5], 0.1)

    def test_nearest_batch(self, points_4d, rng):
        index = NNCellIndex.build(points_4d)
        queries = rng.uniform(size=(10, 4))
        ids, dists = index.nearest_batch(queries)
        for i, q in enumerate(queries):
            pid, dist, __ = index.nearest(q)
            assert ids[i] == pid
            assert dists[i] == pytest.approx(dist)

    def test_nearest_batch_validation(self, points_4d):
        index = NNCellIndex.build(points_4d)
        with pytest.raises(ValueError):
            index.nearest_batch(np.zeros((3, 2)))

    def test_introspection_accessors(self, points_4d):
        index = NNCellIndex.build(points_4d)
        system = index.constraint_system(0)
        assert system.n_constraints >= 1
        rects = index.all_cell_rectangles()
        assert len(rects) == index.stats()["n_rectangles"]
        with pytest.raises(KeyError):
            index.cell_rectangles(9999)
        with pytest.raises(KeyError):
            index.constraint_system(9999)
