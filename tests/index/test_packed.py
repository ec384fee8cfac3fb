"""The packed read snapshot and its walk, against the mutable tree.

``RStarTree.point_query`` is the oracle: the walk must find the same
entries, read the same pages (ids and blocks) and count the same pages
as the logical reads of the tree walk.
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


def assert_same_snapshot(a, b):
    assert a.height == b.height
    for level_a, level_b in zip(a.levels, b.levels):
        for field in ("lows", "highs", "ids", "offsets", "counts",
                      "page_ids", "blocks"):
            x, y = getattr(level_a, field), getattr(level_b, field)
            assert x.dtype == y.dtype and x.shape == y.shape, field
            assert x.tobytes() == y.tobytes(), field


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
    assert walk.pages == sum(tree.pages.n_blocks_of(p) for p in union)


@pytest.mark.parametrize("kind", [RStarTree, XTree])
@pytest.mark.parametrize("n, dim, page_size", [
    (1, 2, 4096), (7, 3, 4096), (120, 4, 1024), (600, 6, 4096),
])
def test_layout_snapshot_equals_frozen_bulk_load(kind, n, dim, page_size, rng):
    lows, highs = rectangles(rng, n, dim)
    owners = rng.integers(0, 40, size=n)
    tree = kind(dim, page_size=page_size, leaf_entry_bytes=3 * 8 * dim + 8)
    layout = str_layout(tree, lows, highs, owners)
    bulk_load(tree, lows, highs, owners)
    tree.validate()
    laid_out = PackedTree.from_layout(layout)
    assert_same_snapshot(laid_out, PackedTree.freeze(tree))
    assert laid_out.total_blocks() == tree.pages.total_blocks()
    assert_walk_matches(tree, laid_out, rng.uniform(size=(15, dim)), 1e-9)


@pytest.mark.parametrize("atol", [0.0, 1e-9, 0.05])
def test_walk_matches_point_query_on_an_inserted_xtree(atol, rng):
    dim = 4
    tree = XTree(dim, page_size=256)
    lows, highs = rectangles(rng, 150, dim, spread=0.6)
    for i in range(150):
        tree.insert(lows[i], highs[i], i)
    for i in range(0, 150, 7):
        assert tree.delete(lows[i], highs[i], i)
    snapshot = PackedTree.freeze(tree)
    assert max(int(level.blocks.max()) for level in snapshot.levels) > 1
    assert snapshot.total_blocks() == tree.pages.total_blocks()
    queries = rng.uniform(-0.1, 1.3, size=(30, dim))
    assert_walk_matches(tree, snapshot, queries, atol)


@pytest.mark.parametrize("share", [0, 10**9])
def test_block_and_pair_tests_agree(share, rng, monkeypatch):
    """A level's broadcast block test and its pair test (forced here,
    one each) find the tree walk's pairs and pages."""
    monkeypatch.setattr(packed, "_BLOCK_SHARE", share)
    dim = 3
    tree = XTree(dim, page_size=512)
    lows, highs = rectangles(rng, 300, dim, spread=0.2)
    for i in range(300):
        tree.insert(lows[i], highs[i], i)
    queries = rng.uniform(-0.1, 1.2, size=(40, dim))
    assert_walk_matches(tree, PackedTree.freeze(tree), queries, 1e-9)


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
    tree = bulk_load(
        RStarTree(dim, leaf_entry_bytes=3 * 8 * dim + 8),
        centres - half, centres + half, np.arange(n),
    )
    snapshot = PackedTree.freeze(tree)
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
    tree = RStarTree(3)
    snapshot = PackedTree.freeze(tree)
    walk = batched_point_query(snapshot, np.zeros((2, 3)))
    assert walk.owner.size == 0
    assert walk.pages == 1 and walk.page_ids().tolist() == [tree.root_id]
    assert batched_point_query(snapshot, np.zeros((0, 3))).pages == 0


def test_snapshot_is_immutable(rng):
    lows, highs = rectangles(rng, 50, 2)
    tree = bulk_load(RStarTree(2), lows, highs, np.arange(50))
    snapshot = PackedTree.freeze(tree)
    with pytest.raises(ValueError, match="read-only"):
        snapshot.leaves.lows[0, 0] = 1.0
    tree.insert(lows[0], highs[0], 99)  # the tree moves on; the copy not
    assert 99 not in snapshot.leaves.ids


class TestChaos:
    def test_every_touched_node_is_one_read_attempt(self, rng):
        lows, highs = rectangles(rng, 200, 3)
        tree = bulk_load(RStarTree(3), lows, highs, np.arange(200))
        snapshot = PackedTree.freeze(tree)
        log = PageLog()
        walk = batched_point_query(snapshot, rng.uniform(size=(8, 3)),
                                   chaos=log)
        assert log.pages == walk.page_ids().tolist()

    def test_flaky_reads_retry_then_propagate(self, rng):
        lows, highs = rectangles(rng, 30, 2)
        tree = bulk_load(RStarTree(2), lows, highs, np.arange(30))
        snapshot = PackedTree.freeze(tree)
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
