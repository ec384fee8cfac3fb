"""The NN-cell index's read snapshot.

Queries walk a packed cell tree laid out by STR from the cell columns.
Checked here, query by query, against the tree that layout bulk-loads
(``RStarTree.point_query`` and its logical reads, :func:`helpers.cell_tree`):
the pages of ``nearest``, ``query_batch``, ``explain`` and ``k_nearest``
on built, loaded and written indexes.  Also that a load makes no
selector, that a written index holds the snapshot its reload lays out
and reads the same pages, and that a load then a save writes the same
archive.
"""

from collections import Counter

import numpy as np
import pytest

from helpers import cell_tree, load_tool, snapshots_equal
from repro.core.candidates import SelectorKind
from repro.core.decomposition import DecompositionConfig
from repro.core.nncell_index import BuildConfig, NNCellIndex
from repro.core.persistence import load_index, save_index
from repro.data import uniform_points
from repro.index.nnsearch import hs_k_nearest, rkv_nearest
from repro.obs import analytics


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


def tree_point_query(index, tree, q, retry=True):
    """Owners, pages and page ids of the oracle ``tree``'s point query,
    tolerance retry included."""
    config = index.config
    owners, pages, ids = reads(
        tree, lambda: tree.point_query(q, config.query_atol)
    )
    if retry and owners.size == 0:
        owners, more, more_ids = reads(
            tree, lambda: tree.point_query(q, config.retry_atol)
        )
        pages, ids = pages + more, ids + more_ids
    return np.unique(owners), pages, ids


def expected_nearest(index, tree, q):
    """Pages of ``nearest(q)``, and the cell- and data-tree pages read."""
    if not index.box.contains_point(q, atol=index.config.query_atol):
        result, __, data_ids = reads(
            index.data_tree, lambda: rkv_nearest(index.data_tree, q)
        )
        return result.pages, [], data_ids
    owners, pages, ids = tree_point_query(index, tree, q)
    if owners.size:
        return pages, ids, []
    result, __, data_ids = reads(
        index.data_tree, lambda: rkv_nearest(index.data_tree, q)
    )
    return pages + result.pages, ids, data_ids


def expected_batch(index, tree, queries, size):
    """Pages of ``query_batch(queries, size)``: per chunk, the union of
    the nodes its point queries read, retry walk apart."""
    config = index.config
    total = 0
    for start in range(0, len(queries), size):
        first, retry = set(), set()
        for q in queries[start:start + size]:
            if not index.box.contains_point(q, atol=config.query_atol):
                total += rkv_nearest(index.data_tree, q).pages
                continue
            owners, __, ids = reads(
                tree, lambda: tree.point_query(q, config.query_atol)
            )
            first.update(ids)
            if owners.size:
                continue
            owners, __, ids = reads(
                tree, lambda: tree.point_query(q, config.retry_atol)
            )
            retry.update(ids)
            if not owners.size:
                total += rkv_nearest(index.data_tree, q).pages
        total += len(first) + len(retry)
    return total


def expected_k_nearest(index, tree, q, k):
    """Pages of ``k_nearest(q, k)``: point query, then the sphere
    refinement or the best-first fallback."""
    k = min(k, len(index))
    if not index.box.contains_point(q, atol=index.config.query_atol):
        return hs_k_nearest(index.data_tree, q, k).pages
    owners, pages, __ = tree_point_query(index, tree, q, retry=False)
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
    tree = cell_tree(index)
    for q in queries:
        pages, cell_ids, __ = expected_nearest(index, tree, q)
        assert index.nearest(q)[2].pages == pages
        explain = index.explain(q)
        assert explain.pages == pages
        if explain.path.startswith("cell"):
            assert explain.nodes_visited == len(cell_ids)
        assert index.k_nearest(q, 4)[2].pages == expected_k_nearest(
            index, tree, q, 4
        )
    for size in (1, 7, len(queries)):
        __, __, info = index.query_batch(queries, batch_size=size)
        assert info.pages == expected_batch(index, tree, queries, size)


def cell_pages(index, queries):
    """The cell-tree pages every query surface reads for ``queries``, in
    order: the walk runs its page hook for each node it touches, and the
    data tree, which keeps its own hook, logs nothing."""
    log = PageLog()
    index._chaos = log
    try:
        for q in queries:
            index.nearest(q)
            index.explain(q)
            index.k_nearest(q, 3)
        for size in (1, 7, len(queries)):
            index.query_batch(queries, batch_size=size)
    finally:
        index._chaos = None
    return log.pages


def query_mix(rng, dim, n=40):
    queries = rng.uniform(size=(n, dim))
    queries[::9] += 1.5  # outside the data space: the fallback path
    queries[1::9] = np.clip(queries[1::9], 0.0, 0.0)  # on a corner
    return queries


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

    def test_hot_pages_are_the_pages_read(self, rng):
        index = NNCellIndex.build(
            uniform_points(20, 4, seed=3), BuildConfig(page_size=256)
        )
        index.insert(np.full(4, 0.5))
        assert index.snapshot.height > 2
        tree = cell_tree(index)
        queries = query_mix(rng, 4, n=30)
        expected = Counter()
        for q in queries:
            __, cell_ids, data_ids = expected_nearest(index, tree, q)
            expected.update(cell_ids + data_ids)
        with analytics.recording() as recorder:
            for q in queries:
                index.nearest(q)
        assert recorder.pages._counts == {
            page: float(count) for page, count in expected.items()
        }


class TestWrittenEqualsReloaded:
    """A write lays its snapshot out from its new columns, as a load
    does: a written index and its reload hold the same snapshot, array
    for array, and every query surface reads the same pages on both."""

    @pytest.mark.parametrize("n, dim, config", [
        (60, 3, BuildConfig()),
        (40, 5, BuildConfig(selector=SelectorKind.NN_DIRECTION)),
        (16, 2, BuildConfig(
            page_size=256, decompose=True,
            decomposition=DecompositionConfig(k_max=6, strategy="grid"),
        )),
    ])
    def test_written_snapshot_is_its_reloads(
        self, n, dim, config, tmp_path, rng
    ):
        index = NNCellIndex.build(uniform_points(n, dim, seed=35), config)
        for victim in (3, 11):
            index.insert(rng.uniform(size=dim))
            index.delete(victim)
        save_index(index, tmp_path / "index.npz")
        reloaded = load_index(tmp_path / "index.npz")
        assert snapshots_equal(index.snapshot, reloaded.snapshot)
        queries = query_mix(rng, dim)
        assert cell_pages(index, queries) == cell_pages(reloaded, queries)


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
        assert loaded._selector is None
        assert snapshots_equal(loaded.snapshot, built.snapshot)

    def test_write_publishes_a_fresh_snapshot(self, archive, rng, tmp_path):
        __, path = archive
        loaded = load_index(path)
        before = loaded.snapshot
        loaded.insert(rng.uniform(size=4))
        assert loaded.snapshot is not before
        loaded.delete(2)
        assert 2 not in loaded.snapshot.leaves.ids
        save_index(loaded, tmp_path / "written.npz")
        assert snapshots_equal(
            loaded.snapshot, load_index(tmp_path / "written.npz").snapshot
        )

    def test_load_then_save_writes_the_same_archive(self, archive, tmp_path):
        tool = load_tool("compare_archives")
        __, path = archive
        loaded = load_index(path)
        save_index(loaded, tmp_path / "again.npz")
        assert tool.compare_archives(path, tmp_path / "again.npz") == []
