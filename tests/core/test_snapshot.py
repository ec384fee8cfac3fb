"""The NN-cell index's read snapshot.

Queries walk a packed copy of the cell tree instead of the tree itself.
Checked here, query by query, against the walk they replace
(``RStarTree.point_query`` on the mutable tree and its logical reads):
the pages of ``nearest``, ``query_batch``, ``explain`` and ``k_nearest``
on built, loaded and written indexes, X-tree supernodes included.  Also
that a load makes no mutable cell tree, that the tree made later matches
the snapshot, and that a load then a save writes the same archive.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.chaos import install_page_chaos
from repro.core.nncell_index import BuildConfig, NNCellIndex
from repro.core.persistence import (
    load_index,
    load_sharded_index,
    save_index,
    save_sharded_index,
)
from repro.data import uniform_points
from repro.index.nnsearch import hs_k_nearest, rkv_nearest
from repro.index.packed import PackedTree
from repro.obs import analytics
from repro.shard import ShardConfig, ShardedNNCellIndex

TOOLS = Path(__file__).resolve().parents[2] / "tools"


class PageLog:
    """A fault injector that injects nothing and logs every page read."""

    def __init__(self):
        self.pages = []

    def page_read(self, page_id):
        self.pages.append(page_id)


def reads(tree, run):
    """``run()``'s result, its logical reads on ``tree`` and the pages."""
    log = PageLog()
    tree.pages.set_chaos(log)
    before = tree.pages.stats.logical_reads
    try:
        result = run()
    finally:
        tree.pages.set_chaos(None)
    return result, tree.pages.stats.logical_reads - before, log.pages


def tree_point_query(index, q, retry=True):
    """Owners, pages and page ids of the tree walk ``nearest`` replaced,
    tolerance retry included."""
    config = index.config
    owners, pages, ids = reads(
        index.cell_tree, lambda: index.cell_tree.point_query(q, config.query_atol)
    )
    if retry and owners.size == 0:
        owners, more, more_ids = reads(
            index.cell_tree,
            lambda: index.cell_tree.point_query(q, config.retry_atol),
        )
        pages, ids = pages + more, ids + more_ids
    return np.unique(owners), pages, ids


def expected_nearest(index, q):
    """Pages of ``nearest(q)``, and the cell- and data-tree pages read."""
    if not index.box.contains_point(q, atol=index.config.query_atol):
        result, __, data_ids = reads(
            index.data_tree, lambda: rkv_nearest(index.data_tree, q)
        )
        return result.pages, [], data_ids
    owners, pages, ids = tree_point_query(index, q)
    if owners.size:
        return pages, ids, []
    result, __, data_ids = reads(
        index.data_tree, lambda: rkv_nearest(index.data_tree, q)
    )
    return pages + result.pages, ids, data_ids


def expected_batch(index, queries, size):
    """Pages of ``query_batch(queries, size)``: per chunk, the blocks of
    the union of the nodes its point queries read, retry walk apart."""
    config = index.config
    total = 0
    for start in range(0, len(queries), size):
        first, retry = set(), set()
        for q in queries[start:start + size]:
            if not index.box.contains_point(q, atol=config.query_atol):
                total += rkv_nearest(index.data_tree, q).pages
                continue
            owners, __, ids = reads(
                index.cell_tree,
                lambda: index.cell_tree.point_query(q, config.query_atol),
            )
            first.update(ids)
            if owners.size:
                continue
            owners, __, ids = reads(
                index.cell_tree,
                lambda: index.cell_tree.point_query(q, config.retry_atol),
            )
            retry.update(ids)
            if not owners.size:
                total += rkv_nearest(index.data_tree, q).pages
        total += sum(index.cell_tree.pages.n_blocks_of(p) for p in first)
        total += sum(index.cell_tree.pages.n_blocks_of(p) for p in retry)
    return total


def expected_k_nearest(index, q, k):
    """Pages of ``k_nearest(q, k)``: point query, then the sphere
    refinement or the best-first fallback."""
    k = min(k, len(index))
    if not index.box.contains_point(q, atol=index.config.query_atol):
        return hs_k_nearest(index.data_tree, q, k).pages
    owners, pages, __ = tree_point_query(index, q, retry=False)
    if owners.size < k:
        return pages + hs_k_nearest(index.data_tree, q, k).pages
    dist = np.sqrt(np.sum((index.points[owners] - q) ** 2, axis=1))
    radius = float(np.sort(dist)[k - 1])
    __, sphere, __ = reads(
        index.data_tree,
        lambda: index.data_tree.sphere_query(q, radius + index.config.query_atol),
    )
    return pages + sphere


def assert_pages_match(index, queries):
    for q in queries:
        pages, cell_ids, __ = expected_nearest(index, q)
        assert index.nearest(q)[2].pages == pages
        explain = index.explain(q)
        assert explain.pages == pages
        if explain.path.startswith("cell"):
            assert explain.nodes_visited == len(cell_ids)
        assert index.k_nearest(q, 4)[2].pages == expected_k_nearest(index, q, 4)
    for size in (1, 7, len(queries)):
        __, __, info = index.query_batch(queries, batch_size=size)
        assert info.pages == expected_batch(index, queries, size)


def query_mix(rng, dim, n=40):
    queries = rng.uniform(size=(n, dim))
    queries[::9] += 1.5  # outside the data space: the fallback path
    queries[1::9] = np.clip(queries[1::9], 0.0, 0.0)  # on a corner
    return queries


def snapshots_equal(a, b):
    if a.height != b.height:
        return False
    return all(
        getattr(x, f).tobytes() == getattr(y, f).tobytes()
        for x, y in zip(a.levels, b.levels)
        for f in ("lows", "highs", "ids", "offsets", "counts",
                  "page_ids", "blocks")
    )


@pytest.fixture()
def supernode_index():
    """An X-tree whose first insert splits into a supernode."""
    index = NNCellIndex.build(
        uniform_points(20, 4, seed=3), BuildConfig(page_size=256)
    )
    index.insert(np.full(4, 0.5))
    assert max(int(level.blocks.max()) for level in index.snapshot.levels) > 1
    return index


class TestPagesMatchTheTreeWalk:
    def test_built(self, rng):
        index = NNCellIndex.build(uniform_points(80, 5, seed=31))
        assert_pages_match(index, query_mix(rng, 5))

    def test_loaded_then_written(self, tmp_path, rng):
        index = NNCellIndex.build(uniform_points(60, 3, seed=32))
        save_index(index, tmp_path / "index.npz")
        loaded = load_index(tmp_path / "index.npz")
        queries = query_mix(rng, 3)
        assert_pages_match(loaded, queries)
        loaded.insert(rng.uniform(size=3))
        loaded.delete(5)
        assert_pages_match(loaded, queries)

    def test_supernodes(self, supernode_index, rng):
        assert_pages_match(supernode_index, query_mix(rng, 4))

    def test_supernodes_written(self, supernode_index, rng):
        index = supernode_index
        index.insert(rng.uniform(size=4))
        index.delete(7)
        assert max(int(level.blocks.max()) for level in index.snapshot.levels) > 1
        assert_pages_match(index, query_mix(rng, 4))

    def test_hot_pages_are_the_pages_read(self, supernode_index, rng):
        index = supernode_index
        queries = query_mix(rng, 4, n=30)
        expected = Counter()
        for q in queries:
            __, cell_ids, data_ids = expected_nearest(index, q)
            expected.update(cell_ids + data_ids)
        with analytics.recording() as recorder:
            for q in queries:
                index.nearest(q)
        assert recorder.pages._counts == {
            page: float(count) for page, count in expected.items()
        }


class TestLazyCellState:
    @pytest.fixture()
    def archive(self, tmp_path):
        built = NNCellIndex.build(uniform_points(50, 4, seed=33))
        save_index(built, tmp_path / "index.npz")
        return built, tmp_path / "index.npz"

    def test_load_makes_no_cells_and_no_mutable_tree(self, archive, rng):
        built, path = archive
        loaded = load_index(path)
        q = rng.uniform(size=4)
        loaded.nearest(q)
        loaded.query_batch(rng.uniform(size=(5, 4)))
        loaded.explain(q)
        loaded.k_nearest(q, 3)
        loaded.stats()
        loaded.constraint_system(3)
        assert loaded._cell_tree is None and loaded._selector is None
        assert snapshots_equal(loaded.snapshot, built.snapshot)

    def test_thawed_tree_matches_the_snapshot(self, archive):
        __, path = archive
        loaded = load_index(path)
        snapshot = loaded.snapshot
        assert loaded._cell_tree is None
        tree = loaded.cell_tree
        tree.validate()
        assert snapshots_equal(snapshot, PackedTree.freeze(tree))
        assert tree.pages.total_blocks() == snapshot.total_blocks()

    def test_write_publishes_a_fresh_snapshot(self, archive, rng):
        __, path = archive
        loaded = load_index(path)
        before = loaded.snapshot
        loaded.insert(rng.uniform(size=4))
        loaded.cell_tree.validate()
        assert loaded.snapshot is not before
        assert snapshots_equal(loaded.snapshot, PackedTree.freeze(loaded.cell_tree))
        loaded.delete(2)
        assert snapshots_equal(loaded.snapshot, PackedTree.freeze(loaded.cell_tree))
        assert 2 not in loaded.snapshot.leaves.ids

    def test_load_then_save_writes_the_same_archive(self, archive, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "compare_archives", TOOLS / "compare_archives.py"
        )
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        __, path = archive
        loaded = load_index(path)
        save_index(loaded, tmp_path / "again.npz")
        assert tool.compare_archives(path, tmp_path / "again.npz") == []
        loaded.cell_tree.validate()  # the mutable tree made, no write
        save_index(loaded, tmp_path / "thawed.npz")
        assert tool.compare_archives(path, tmp_path / "thawed.npz") == []

    def test_page_chaos_does_not_make_the_tree(self, tmp_path):
        points = uniform_points(40, 3, seed=34)
        with ShardedNNCellIndex.build(points, ShardConfig(n_shards=2)) as fleet:
            save_sharded_index(fleet, tmp_path / "fleet")
        loaded = load_sharded_index(tmp_path / "fleet")
        try:
            install_page_chaos(loaded, PageLog())
            install_page_chaos(loaded, None)
            for __, shard in loaded._live_shards():
                assert shard._cell_tree is None
        finally:
            loaded.close()
