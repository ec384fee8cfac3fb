"""The packed read snapshot and its walk, against the bulk-loaded tree.

A snapshot is laid out from :func:`~repro.index.bulk.str_layout`; the
tree :func:`~repro.index.bulk.bulk_load` builds from the same layout is
the oracle.  Its nodes are the snapshot's, and its ``point_query`` finds
the entries the walk finds, reads the pages the walk reads and counts
them as logical reads.
"""

import tracemalloc

import numpy as np
import pytest

from repro.chaos import ChaosInjector, FaultPlan, PageFaults
from repro.chaos.faults import FlakyPageRead
from repro.index import packed
from repro.index.bulk import bulk_load, str_layout
from repro.index.packed import PackedTree, batched_point_query
from repro.index.rstar import RStarTree
from repro.index.xtree import XTree
from repro.obs import metrics
from repro.storage.page import FLAKY_READ_RETRIES


class PageLog:
    """A fault injector that injects nothing and logs every page read."""

    def __init__(self):
        self.pages = []

    def page_read(self, page_id):
        self.pages.append(page_id)


def rectangles(rng, n, dim, spread=0.3):
    lows = rng.uniform(size=(n, dim))
    return lows, lows + rng.uniform(0.0, spread, size=(n, dim))


def packed_and_loaded(tree, lows, highs, ids):
    """The snapshot laid out for the empty ``tree``, and the tree bulk
    loaded from the same layout."""
    snapshot = PackedTree.from_layout(str_layout(
        tree.fanout, lows, highs, ids, first_page=tree.pages.next_page_id
    ))
    return snapshot, bulk_load(tree, lows, highs, ids)


def assert_nodes_match(snapshot, tree):
    """Node ``i`` of each snapshot level is the tree node on page
    ``page_ids[i]``: the same bounds, and the same owners (leaves) or
    children (directory levels), in the same order."""
    assert snapshot.levels[0].page_ids.tolist() == [tree.root_id]
    for depth, level in enumerate(snapshot.levels):
        for i, page_id in enumerate(level.page_ids.tolist()):
            node = tree.pages.read(page_id)
            rows = slice(level.offsets[i], level.offsets[i + 1])
            assert np.array_equal(level.lows[:, rows].T, node.lows)
            assert np.array_equal(level.highs[:, rows].T, node.highs)
            if node.is_leaf:
                assert depth == snapshot.height - 1
                assert np.array_equal(level.ids[rows], node.ids)
            else:
                below = snapshot.levels[depth + 1].page_ids
                assert np.array_equal(below[level.ids[rows]], node.ids)
    assert snapshot.total_blocks() == tree.pages.total_blocks()


def reference(tree, query, atol):
    """Owners, logical reads and page ids of one tree point query."""
    log = PageLog()
    tree.pages.set_chaos(log)
    before = tree.pages.stats.logical_reads
    try:
        owners = tree.point_query(query, atol)
    finally:
        tree.pages.set_chaos(None)
    return owners, tree.pages.stats.logical_reads - before, log.pages


def assert_walk_matches(tree, snapshot, queries, atol):
    walk = batched_point_query(snapshot, queries, atol)
    union = set()
    for j, q in enumerate(queries):
        owners, reads, pages = reference(tree, q, atol)
        assert sorted(walk.owner[walk.query == j]) == sorted(owners)
        single = batched_point_query(snapshot, q[None], atol)
        assert sorted(single.owner) == sorted(owners)
        assert single.pages == reads
        assert sorted(single.page_ids()) == sorted(pages)
        union.update(pages)
    # A batch touches each node on the union of the paths once.
    assert sorted(walk.page_ids()) == sorted(union)
    assert walk.pages == len(union)


@pytest.mark.parametrize("kind", [RStarTree, XTree])
@pytest.mark.parametrize("n, dim, page_size", [
    (1, 2, 4096), (7, 3, 4096), (120, 4, 1024), (600, 6, 4096),
])
def test_layout_snapshot_equals_frozen_bulk_load(kind, n, dim, page_size, rng):
    lows, highs = rectangles(rng, n, dim)
    owners = rng.integers(0, 40, size=n)
    tree = kind(dim, page_size=page_size, leaf_entry_bytes=3 * 8 * dim + 8)
    snapshot, tree = packed_and_loaded(tree, lows, highs, owners)
    tree.validate()
    assert_nodes_match(snapshot, tree)
    assert_walk_matches(tree, snapshot, rng.uniform(size=(15, dim)), 1e-9)


@pytest.mark.parametrize("atol", [0.0, 1e-9, 0.05])
def test_walk_matches_point_query_on_an_inserted_xtree(atol, rng):
    """The walk's pairs depend on the entries only: a snapshot laid out
    from an insertion-built X-tree's entries (supernodes and all) finds
    what that tree's point query finds, at any tolerance."""
    dim = 4
    inserted = XTree(dim, page_size=256)
    lows, highs = rectangles(rng, 150, dim, spread=0.6)
    for i in range(150):
        inserted.insert(lows[i], highs[i], i)
    kept = np.array([i for i in range(150) if i % 7])
    for i in range(0, 150, 7):
        assert inserted.delete(lows[i], highs[i], i)
    assert inserted.pages.total_blocks() > inserted.pages.n_pages
    snapshot, tree = packed_and_loaded(
        XTree(dim, page_size=256), lows[kept], highs[kept], kept
    )
    queries = rng.uniform(-0.1, 1.3, size=(30, dim))
    walk = batched_point_query(snapshot, queries, atol)
    for j, q in enumerate(queries):
        expected = sorted(inserted.point_query(q, atol))
        assert sorted(walk.owner[walk.query == j]) == expected
    assert_walk_matches(tree, snapshot, queries, atol)


@pytest.mark.parametrize("share", [0, 10**9])
def test_block_and_pair_tests_agree(share, rng, monkeypatch):
    """A level's broadcast block test and its pair test (forced here,
    one each) find the tree walk's pairs and pages."""
    monkeypatch.setattr(packed, "_BLOCK_SHARE", share)
    dim = 3
    lows, highs = rectangles(rng, 300, dim, spread=0.2)
    snapshot, tree = packed_and_loaded(
        XTree(dim, page_size=512), lows, highs, np.arange(300)
    )
    assert snapshot.height > 2
    queries = rng.uniform(-0.1, 1.2, size=(40, dim))
    assert_walk_matches(tree, snapshot, queries, 1e-9)


def test_whole_batch_on_a_large_low_dimensional_tree(rng):
    """A whole-workload batch costs what its (query, node) pairs cost.

    20,000 cell-sized rectangles in 2-d, 2,000 queries in one walk: the
    queries touch nearly every leaf, but each reaches only a few.  The
    pairs match the tree walk, and the walk's working memory stays far
    below one byte per (touched leaf entry, query, axis), which a test
    of every touched entry against every query would need.
    """
    n, dim, m = 20_000, 2, 2_000
    centres = rng.uniform(size=(n, dim))
    half = 0.6 / np.sqrt(n)
    snapshot, tree = packed_and_loaded(
        RStarTree(dim, leaf_entry_bytes=3 * 8 * dim + 8),
        centres - half, centres + half, np.arange(n),
    )
    queries = rng.uniform(size=(m, dim))
    tracemalloc.start()
    try:
        walk = batched_point_query(snapshot, queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    touched = int(snapshot.leaves.counts[walk.nodes[-1]].sum())
    assert touched > 0.9 * n
    assert peak < touched * m * dim / 4
    for j in range(0, m, 50):
        owners, reads, pages = reference(tree, queries[j], 1e-12)
        assert sorted(walk.owner[walk.query == j]) == sorted(owners)
        assert set(pages) <= set(walk.page_ids().tolist())


def test_empty_tree_reads_its_root():
    empty = np.zeros((0, 3))
    snapshot = PackedTree.from_layout(
        str_layout(RStarTree(3).fanout, empty, empty, np.zeros(0, dtype=np.int64))
    )
    walk = batched_point_query(snapshot, np.zeros((2, 3)))
    assert walk.owner.size == 0
    assert walk.pages == 1
    assert walk.page_ids().tolist() == snapshot.levels[0].page_ids.tolist()
    assert batched_point_query(snapshot, np.zeros((0, 3))).pages == 0


def test_snapshot_is_immutable(rng):
    lows, highs = rectangles(rng, 50, 2)
    ids = np.arange(50)
    snapshot = PackedTree.from_layout(
        str_layout(RStarTree(2).fanout, lows, highs, ids)
    )
    with pytest.raises(ValueError, match="read-only"):
        snapshot.leaves.lows[0, 0] = 1.0
    ids[:] = 99  # the inputs move on; the snapshot not
    lows[:] = 5.0
    assert 99 not in snapshot.leaves.ids
    assert snapshot.leaves.lows.max() < 5.0


class TestChaos:
    def test_every_touched_node_is_one_read_attempt(self, rng):
        lows, highs = rectangles(rng, 200, 3)
        snapshot = PackedTree.from_layout(
            str_layout(RStarTree(3).fanout, lows, highs, np.arange(200))
        )
        log = PageLog()
        walk = batched_point_query(snapshot, rng.uniform(size=(8, 3)),
                                   chaos=log)
        assert log.pages == walk.page_ids().tolist()

    def test_flaky_reads_retry_then_propagate(self, rng):
        lows, highs = rectangles(rng, 30, 2)
        snapshot = PackedTree.from_layout(
            str_layout(RStarTree(2).fanout, lows, highs, np.arange(30))
        )
        q = rng.uniform(size=(1, 2))
        clean = batched_point_query(snapshot, q)
        with metrics.collecting(fresh=True) as registry:
            flaky = ChaosInjector(FaultPlan(
                pages=PageFaults(flaky_first=FLAKY_READ_RETRIES)
            ))
            walk = batched_point_query(snapshot, q, chaos=flaky)
            assert sorted(walk.owner) == sorted(clean.owner)
            counters = registry.as_dict()["counters"]
            assert counters["storage.flaky_reads"] == FLAKY_READ_RETRIES
        dead = ChaosInjector(FaultPlan(
            pages=PageFaults(flaky_first=FLAKY_READ_RETRIES + 1)
        ))
        with pytest.raises(FlakyPageRead):
            batched_point_query(snapshot, q, chaos=dead)
