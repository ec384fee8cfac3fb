"""Dynamic-update tests: inserts shrink cells, deletes grow them.

Every test validates the central contract: after any update sequence,
``nearest()`` agrees with brute force over the live points (the paper's
Section 2, "the dynamic case").
"""

import numpy as np
import pytest

from helpers import brute_nearest, snapshots_equal
from repro.core.candidates import SelectorKind
from repro.core.decomposition import DecompositionConfig
from repro.core.nncell_index import BuildConfig, NNCellIndex, data_snapshot
from repro.data import uniform_points
from repro.geometry.halfspace import bisector, box_inside_halfspace


def check_queries(index, rng, n_queries=30):
    live_ids = index.active_ids
    live_points = index.points[live_ids]
    for __ in range(n_queries):
        q = rng.uniform(size=index.dim)
        pid, dist, __ = index.nearest(q)
        __, true_dist = brute_nearest(q, live_points)
        assert dist == pytest.approx(true_dist), f"query {q} wrong"


def assert_snapshot_holds_the_columns(index):
    """The snapshot's leaves hold each rectangle of the cell columns once,
    under its owner, and each directory entry is the bounding box of the
    node it leads to."""
    lows, highs, owners = index._cell_entries()
    leaves = index.snapshot.leaves
    assert sorted(zip(
        leaves.ids.tolist(), leaves.lows.T.tolist(), leaves.highs.T.tolist()
    )) == sorted(zip(owners.tolist(), lows.tolist(), highs.tolist()))
    levels = index.snapshot.levels
    for parent, child in zip(levels, levels[1:]):
        assert parent.ids.tolist() == list(range(child.counts.size))
        for entry, node in enumerate(parent.ids.tolist()):
            rows = slice(child.offsets[node], child.offsets[node + 1])
            assert np.array_equal(
                parent.lows[:, entry], child.lows[:, rows].min(axis=1)
            )
            assert np.array_equal(
                parent.highs[:, entry], child.highs[:, rows].max(axis=1)
            )


def assert_insert_refreshes_what_it_shrinks(index, p):
    """``index.insert(p)`` leaves no cell stale: every other live cell has
    all its rectangles on its own side of its bisector with ``p``, or a
    system row of the new point."""
    new = index.insert(p)
    for cell in index.active_ids.tolist():
        if cell == new:
            continue
        a, b = bisector(index.points[cell], p)
        inside = all(
            box_inside_halfspace(rect, a, b)
            for rect in index.cell_rectangles(cell)
        )
        assert inside or new in index.constraint_system(cell).point_ids, (
            f"insert of {p.tolist()} left cell {cell} stale"
        )


DECOMPOSED = BuildConfig(
    page_size=256,
    decompose=True,
    decomposition=DecompositionConfig(k_max=12, strategy="grid"),
)


class TestInsert:
    def test_insert_then_query(self, rng):
        points = uniform_points(40, 3, seed=61)
        index = NNCellIndex.build(points)
        for __ in range(15):
            index.insert(rng.uniform(size=3))
        assert len(index) == 55
        check_queries(index, rng)

    def test_insert_returns_sequential_ids(self, rng):
        index = NNCellIndex.build(uniform_points(10, 2, seed=62))
        assert index.insert(rng.uniform(size=2)) == 10
        assert index.insert(rng.uniform(size=2)) == 11

    def test_insert_rejects_outside_space(self):
        index = NNCellIndex.build(uniform_points(10, 2, seed=63))
        with pytest.raises(ValueError):
            index.insert([0.5, 1.5])
        with pytest.raises(ValueError):
            index.insert([0.5])

    def test_inserted_point_is_its_own_nn(self, rng):
        index = NNCellIndex.build(uniform_points(30, 3, seed=64))
        p = rng.uniform(size=3)
        new_id = index.insert(p)
        pid, dist, __ = index.nearest(p)
        assert pid == new_id
        assert dist == pytest.approx(0.0)

    def test_existing_cells_only_shrink(self, rng):
        """An insert may shrink other cells' rectangles, never grow them."""
        points = uniform_points(25, 2, seed=65)
        index = NNCellIndex.build(
            points, BuildConfig(selector=SelectorKind.CORRECT)
        )
        before = {
            i: index.cell_rectangles(i)[0] for i in range(25)
        }
        index.insert(rng.uniform(size=2))
        for i in range(25):
            after = index.cell_rectangles(i)[0]
            assert before[i].contains(after, atol=1e-7), (
                f"cell {i} grew after an insert"
            )

    def test_insert_near_existing_point(self, rng):
        index = NNCellIndex.build(uniform_points(30, 3, seed=66))
        base = index.points[4]
        near = np.clip(base + 1e-6, 0.0, 1.0)
        index.insert(near)
        check_queries(index, rng, n_queries=20)

    def test_insert_with_decomposition(self, rng):
        config = BuildConfig(
            selector=SelectorKind.NN_DIRECTION,
            decompose=True,
            decomposition=DecompositionConfig(k_max=4),
        )
        index = NNCellIndex.build(uniform_points(25, 3, seed=67), config)
        for __ in range(8):
            index.insert(rng.uniform(size=3))
        check_queries(index, rng, n_queries=20)

    def test_decomposed_piece_away_from_its_owner_is_refreshed(self):
        """A decomposed cell's pieces cover it with boxes, and a piece
        need not contain the cell's owner: here the insert shrinks cell
        2, whose pieces a bound on where the owner lies would skip."""
        points = np.array([
            [0.07492076, 0.21611435], [0.1903842, 0.27977152],
            [0.01185755, 0.2505271], [0.14897911, 0.13144539],
            [0.14537565, 0.04050228],
        ])
        index = NNCellIndex.build(points, DECOMPOSED)
        assert_insert_refreshes_what_it_shrinks(
            index, np.array([0.2825789563922496, 0.7783516288617264])
        )

    def test_decomposed_clustered_inserts_refresh_what_they_shrink(self):
        for seed in (0, 2, 4):
            rng = np.random.default_rng(seed)
            n = rng.integers(4, 12)
            index = NNCellIndex.build(rng.random((n, 2)) * 0.3, DECOMPOSED)
            for __ in range(3):
                assert_insert_refreshes_what_it_shrinks(index, rng.random(2))


class TestDelete:
    def test_delete_then_query(self, rng):
        points = uniform_points(40, 3, seed=68)
        index = NNCellIndex.build(points)
        for victim in (3, 17, 25, 39, 0):
            index.delete(victim)
        assert len(index) == 35
        check_queries(index, rng)

    def test_delete_unknown_raises(self):
        index = NNCellIndex.build(uniform_points(10, 2, seed=69))
        with pytest.raises(KeyError):
            index.delete(99)
        index.delete(5)
        with pytest.raises(KeyError):
            index.delete(5)  # already gone

    def test_cannot_delete_last_point(self):
        index = NNCellIndex.build(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            index.delete(0)

    def test_deleted_point_never_returned(self, rng):
        points = uniform_points(30, 2, seed=70)
        index = NNCellIndex.build(points)
        index.delete(7)
        # Query exactly at the deleted location.
        pid, dist, __ = index.nearest(points[7])
        assert pid != 7
        assert dist > 0.0

    def test_neighbors_cell_grows_back(self, rng):
        """Deleting a point hands its region to the neighbors."""
        points = uniform_points(20, 2, seed=71)
        index = NNCellIndex.build(
            points, BuildConfig(selector=SelectorKind.CORRECT)
        )
        victim = 9
        location = points[victim].copy()
        index.delete(victim)
        pid, __, info = index.nearest(location)
        live = index.active_ids
        __, true_dist = brute_nearest(location, index.points[live])
        assert pid == int(live[np.argmin(
            np.linalg.norm(index.points[live] - location, axis=1))])


class TestMixedWorkload:
    @pytest.mark.parametrize(
        "selector", [SelectorKind.NN_DIRECTION, SelectorKind.SPHERE]
    )
    def test_randomized_sequence(self, selector, rng):
        points = uniform_points(30, 3, seed=72)
        index = NNCellIndex.build(points, BuildConfig(selector=selector))
        for step in range(60):
            op = rng.choice(["insert", "delete", "query"])
            if op == "insert":
                index.insert(rng.uniform(size=3))
            elif op == "delete" and len(index) > 2:
                index.delete(int(rng.choice(index.active_ids)))
            else:
                check_queries(index, rng, n_queries=3)
        check_queries(index, rng, n_queries=20)
        assert_snapshot_holds_the_columns(index)
        # The data snapshot packs exactly the live points, as a load would.
        assert snapshots_equal(index.data_snapshot, data_snapshot(
            index.points, index.active_ids, index.config
        ))

    def test_reinsert_after_delete_same_location(self, rng):
        index = NNCellIndex.build(uniform_points(20, 2, seed=73))
        spot = index.points[3].copy()
        index.delete(3)
        new_id = index.insert(spot)
        pid, dist, __ = index.nearest(spot)
        assert pid == new_id
        assert dist == pytest.approx(0.0)
        check_queries(index, rng, n_queries=15)

    def test_shrink_to_two_and_rebuild(self, rng):
        index = NNCellIndex.build(uniform_points(10, 2, seed=74))
        for victim in range(8):
            index.delete(victim)
        assert len(index) == 2
        check_queries(index, rng, n_queries=10)
        for __ in range(10):
            index.insert(rng.uniform(size=2))
        check_queries(index, rng, n_queries=15)
