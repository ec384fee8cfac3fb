"""Unit tests for STR bulk loading."""

import numpy as np
import pytest

from helpers import brute_nearest
from repro.data import uniform_points
from repro.index.bulk import _balanced_chunks, bulk_load, str_layout
from repro.index.nnsearch import rkv_nearest
from repro.index.rstar import RStarTree
from repro.index.xtree import XTree


class TestBulkLoad:
    @pytest.mark.parametrize("n", [1, 5, 37, 200, 1500])
    def test_valid_tree_at_many_sizes(self, n):
        points = uniform_points(n, 4, seed=n)
        tree = bulk_load(RStarTree(4), points, points, np.arange(n))
        tree.validate()
        assert len(tree) == n

    def test_all_entries_present(self):
        points = uniform_points(333, 3, seed=14)
        tree = bulk_load(RStarTree(3), points, points, np.arange(333))
        ids = sorted(eid for __, __, eid in tree.iter_leaf_entries())
        assert ids == list(range(333))

    def test_queries_match_insertion_built_tree(self, rng):
        points = uniform_points(400, 5, seed=15)
        bulk = bulk_load(RStarTree(5), points, points, np.arange(400))
        for __ in range(25):
            q = rng.uniform(size=5)
            result = rkv_nearest(bulk, q)
            __, true_dist = brute_nearest(q, points)
            assert result.nearest_distance == pytest.approx(true_dist)

    def test_works_for_xtree(self):
        points = uniform_points(500, 6, seed=16)
        tree = bulk_load(XTree(6), points, points, np.arange(500))
        tree.validate()

    def test_rectangles(self, rng):
        lows = rng.uniform(0.0, 0.5, size=(250, 3))
        highs = lows + rng.uniform(0.0, 0.3, size=(250, 3))
        tree = bulk_load(RStarTree(3), lows, highs, np.arange(250))
        tree.validate()
        for i in range(0, 250, 25):
            assert i in tree.range_query(lows[i], highs[i])

    def test_dynamic_insert_after_bulk(self):
        points = uniform_points(300, 3, seed=17)
        tree = bulk_load(RStarTree(3), points, points, np.arange(300))
        for i in range(50):
            tree.insert_point(np.full(3, (i + 1) / 52.0), 300 + i)
        tree.validate()
        assert len(tree) == 350

    def test_rejects_nonempty_tree(self):
        points = uniform_points(10, 2, seed=0)
        tree = RStarTree(2)
        tree.insert_point([0.5, 0.5], 99)
        with pytest.raises(ValueError):
            bulk_load(tree, points, points, np.arange(10))

    def test_rejects_mismatched_input(self):
        tree = RStarTree(2)
        with pytest.raises(ValueError):
            bulk_load(tree, np.zeros((5, 2)), np.zeros((4, 2)), np.arange(5))
        with pytest.raises(ValueError):
            bulk_load(tree, np.zeros((5, 3)), np.zeros((5, 3)), np.arange(5))
        with pytest.raises(ValueError):
            bulk_load(tree, np.zeros((5, 2)), np.zeros((5, 2)),
                      np.arange(5), fill=0.0)

    def test_empty_input_is_noop(self):
        tree = RStarTree(2)
        bulk_load(tree, np.zeros((0, 2)), np.zeros((0, 2)), [])
        assert len(tree) == 0
        tree.validate()

    def test_fill_factor_controls_leaf_count(self):
        points = uniform_points(1000, 2, seed=18)
        dense = bulk_load(RStarTree(2), points, points, np.arange(1000),
                          fill=1.0)
        sparse = bulk_load(RStarTree(2), points, points, np.arange(1000),
                           fill=0.5)
        dense_leaves = sum(
            1 for __, node in dense.iter_nodes() if node.is_leaf
        )
        sparse_leaves = sum(
            1 for __, node in sparse.iter_nodes() if node.is_leaf
        )
        assert dense_leaves < sparse_leaves


class TestLayoutReference:
    """The STR layout against the per-node loops it replaced."""

    @pytest.mark.parametrize(
        "n, dim", [(1, 2), (9, 1), (100, 6), (1000, 3), (2500, 2)]
    )
    def test_node_bounds_are_each_nodes_reduction(self, n, dim, rng):
        lows = rng.uniform(size=(n, dim))
        highs = lows + rng.uniform(0.0, 0.1, size=(n, dim))
        lows[::7] = np.round(lows[::7], 1)  # ties along the sort axes
        levels = str_layout(XTree(dim, page_size=512).fanout, lows, highs, np.arange(n))
        for below, above in zip(levels, levels[1:]):
            entries = np.sort(np.concatenate(below.groups))
            assert np.array_equal(entries, np.arange(below.ids.shape[0]))
            for k, group in enumerate(below.groups):
                low = below.lows[group].min(axis=0)
                high = np.maximum(low, below.highs[group].max(axis=0))
                assert above.lows[k].tobytes() == low.tobytes()
                assert above.highs[k].tobytes() == high.tobytes()

    def test_balanced_chunks_cut_as_array_split(self):
        order = np.arange(1000)[::-1]
        for n in (1, 2, 5, 17, 100, 999):
            for capacity in (2, 3, 7, 50, 1000):
                for min_entries in (1, 2, 3, 6):
                    n_chunks = -(-n // capacity)
                    while n_chunks > 1 and n // n_chunks < min_entries:
                        n_chunks -= 1
                    expected = np.array_split(order[:n], n_chunks)
                    chunks = _balanced_chunks(order[:n], capacity, min_entries)
                    assert [c.tolist() for c in chunks] == [
                        c.tolist() for c in expected if c.size
                    ]
