"""Unit tests for the LP-based MBR approximation (Definition 3)."""

import numpy as np
import pytest

from helpers import highs_mbr
from repro.core.approximation import approximate_cell, lp_call_count
from repro.core.constraints import cell_system
from repro.core.nncell_index import NNCellIndex
from repro.data import uniform_points
from repro.geometry.halfspace import HalfspaceSystem
from repro.geometry.mbr import MBR
from repro.obs import metrics


class TestApproximateCell:
    def test_no_constraints_gives_box(self):
        system = HalfspaceSystem.empty(MBR.unit_cube(3))
        mbr = approximate_cell(system)
        assert mbr == MBR.unit_cube(3)

    def test_known_2d_cell(self):
        """Two points at (0.25, 0.5) and (0.75, 0.5): the bisector is the
        vertical line x = 0.5; the left cell's MBR is [0, 0.5] x [0, 1]."""
        points = np.array([[0.25, 0.5], [0.75, 0.5]])
        system = cell_system(points, 0, [1])
        mbr = approximate_cell(system, center=points[0])
        assert np.allclose(mbr.low, [0.0, 0.0], atol=1e-7)
        assert np.allclose(mbr.high, [0.5, 1.0], atol=1e-7)

    def test_grid_cells_tile_exactly(self):
        """On a regular grid, NN-cell MBRs are exactly the grid cells
        (the paper's best case, Figure 2c/d)."""
        from repro.data import grid_points

        points = grid_points(3, 2)  # 9 points at cell centres
        n = len(points)
        for i in range(n):
            system = cell_system(points, i, np.arange(n))
            mbr = approximate_cell(system, center=points[i])
            assert np.allclose(mbr.extents, 1.0 / 3.0, atol=1e-7)
        # And the total volume is the data-space volume.
        total = 0.0
        for i in range(n):
            system = cell_system(points, i, np.arange(n))
            total += approximate_cell(system, center=points[i]).volume()
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_contains_cell_member_points(self, rng):
        """Any point whose NN is the centre lies inside the MBR."""
        points = uniform_points(30, 3, seed=22)
        for center in (0, 7, 15):
            system = cell_system(points, center, np.arange(30))
            mbr = approximate_cell(system, center=points[center])
            for __ in range(300):
                x = rng.uniform(size=3)
                dists = np.linalg.norm(points - x, axis=1)
                if int(np.argmin(dists)) == center:
                    assert mbr.contains_point(x, atol=1e-7)

    def test_infeasible_subbox_returns_none(self):
        points = np.array([[0.25, 0.5], [0.75, 0.5]])
        system = cell_system(points, 0, [1])
        # Clip to a box entirely on the other point's side.
        clipped = system.clipped_to(MBR([0.8, 0.0], [1.0, 1.0]))
        assert approximate_cell(clipped) is None

    def test_center_guard_under_roundoff(self):
        """The returned MBR always contains the supplied centre even if
        the LP optimum is shaved by solver tolerance."""
        points = uniform_points(40, 4, seed=23)
        system = cell_system(points, 0, np.arange(40))
        mbr = approximate_cell(system, center=points[0])
        assert mbr.contains_point(points[0], atol=0.0)

    def test_lp_call_counter_increases(self):
        before = lp_call_count()
        points = uniform_points(10, 2, seed=24)
        system = cell_system(points, 0, np.arange(10))
        approximate_cell(system, center=points[0])
        assert lp_call_count() > before


class TestPruningFastPath:
    def test_pruned_equals_unpruned(self, rng):
        """The exact-pruning fast path must return the identical MBR."""
        points = uniform_points(120, 3, seed=25)
        for center in range(0, 120, 17):
            system = cell_system(points, center, np.arange(120))
            fast = approximate_cell(system, center=points[center], prune=True)
            slow = approximate_cell(system, center=points[center], prune=False)
            assert fast.approx_equal(slow, atol=1e-6), (
                f"pruning changed the MBR for centre {center}"
            )

    def test_prune_skipped_for_small_systems(self, rng):
        points = uniform_points(8, 3, seed=26)
        system = cell_system(points, 0, np.arange(8))
        mbr = approximate_cell(system, center=points[0], prune=True)
        assert mbr is not None

    def test_backends_agree(self):
        """The pruned, warm-started MBR equals the HiGHS per-axis optima."""
        points = uniform_points(50, 4, seed=27)
        system = cell_system(points, 0, np.arange(50))
        mbr = approximate_cell(system, center=points[0])
        low, high = highs_mbr(system)
        assert mbr.approx_equal(MBR(low, high), atol=1e-6)


class TestWarmStart:
    def test_build_lp_counts_and_pivots(self):
        """A seeded n=100, d=6 build (the layer benchmark's seed-1
        points): 24 LP calls per cell, one solve per call, and at most
        40% of the 79,288 pivots a cold simplex (one tableau and phase 1
        per LP) makes for the same build."""
        points = np.random.default_rng([1, 0]).random((100, 6))
        with metrics.collecting(fresh=True) as registry:
            NNCellIndex.build(points)
        snap = registry.snapshot()
        assert snap["cell.lp_calls"] == 2400
        assert snap["lp.solves"] == snap["cell.lp_calls"]
        assert snap["lp.simplex.pivots"] <= 0.4 * 79_288
