"""The NN-cell index's read snapshots.

Queries walk a packed cell tree laid out by STR from the cell columns,
and search a packed data tree laid out by STR from the live points.
Checked here, query by query, against the trees those layouts bulk-load
(``RStarTree.point_query`` and its logical reads,
:func:`helpers.cell_tree`; ``nnsearch`` on :func:`helpers.data_tree`):
the pages of ``nearest``, ``query_batch``, ``explain`` and ``k_nearest``
on built, loaded and written indexes.  Also that a load makes no
selector and no mutable tree, that a written index holds the snapshots
its reload lays out and reads the same pages, and that a load then a
save writes the same archive.
"""

from collections import Counter

import numpy as np
import pytest

from helpers import cell_tree, data_tree, load_tool, snapshots_equal
from repro.core.candidates import SelectorKind, sphere_radius
from repro.core.decomposition import DecompositionConfig
from repro.core.nncell_index import BuildConfig, NNCellIndex, data_snapshot
from repro.core.persistence import load_index, save_index
from repro.data import uniform_points
from repro.geometry.distance import distances_to_points
from repro.index import nnsearch, packed
from repro.index.linear_scan import LinearScan
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


def tree_point_query(index, tree, q):
    """Owners, pages and page ids of the oracle ``tree``'s point query,
    tolerance retry included."""
    config = index.config
    owners, pages, ids = reads(
        tree, lambda: tree.point_query(q, config.query_atol)
    )
    if owners.size == 0:
        owners, more, more_ids = reads(
            tree, lambda: tree.point_query(q, config.retry_atol)
        )
        pages, ids = pages + more, ids + more_ids
    return np.unique(owners), pages, ids


def expected_nearest(index, tree, data, q):
    """Pages of ``nearest(q)``, and the cell- and data-tree pages read;
    ``data`` is the oracle data tree."""
    if not index.box.contains_point(q, atol=index.config.query_atol):
        result, __, data_ids = reads(data, lambda: rkv_nearest(data, q))
        return result.pages, [], data_ids
    owners, pages, ids = tree_point_query(index, tree, q)
    if owners.size:
        return pages, ids, []
    result, __, data_ids = reads(data, lambda: rkv_nearest(data, q))
    return pages + result.pages, ids, data_ids


def expected_batch(index, tree, data, queries, size):
    """Pages of ``query_batch(queries, size)``: per chunk, the union of
    the nodes its point queries read, retry walk apart."""
    config = index.config
    total = 0
    for start in range(0, len(queries), size):
        first, retry = set(), set()
        for q in queries[start:start + size]:
            if not index.box.contains_point(q, atol=config.query_atol):
                total += rkv_nearest(data, q).pages
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
                total += rkv_nearest(data, q).pages
        total += len(first) + len(retry)
    return total


def expected_k_nearest(index, tree, data, q, k):
    """Pages of ``k_nearest(q, k)``: point query, tolerance retry
    included, then the sphere refinement or the best-first fallback."""
    k = min(k, len(index))
    if not index.box.contains_point(q, atol=index.config.query_atol):
        return hs_k_nearest(data, q, k).pages
    owners, pages, __ = tree_point_query(index, tree, q)
    if owners.size < k:
        return pages + hs_k_nearest(data, q, k).pages
    dist = np.sqrt(np.sum((index.points[owners] - q) ** 2, axis=1))
    radius = float(np.sort(dist)[k - 1])
    __, sphere, __ = reads(
        data, lambda: data.sphere_query(q, radius + index.config.query_atol),
    )
    return pages + sphere


def assert_pages_match(index, queries):
    tree, data = cell_tree(index), data_tree(index)
    for q in queries:
        pages, cell_ids, __ = expected_nearest(index, tree, data, q)
        assert index.nearest(q)[2].pages == pages
        explain = index.explain(q)
        assert explain.pages == pages
        if explain.path.startswith("cell"):
            assert explain.nodes_visited == len(cell_ids)
        assert index.k_nearest(q, 4)[2].pages == expected_k_nearest(
            index, tree, data, q, 4
        )
    for size in (1, 7, len(queries)):
        __, __, info = index.query_batch(queries, batch_size=size)
        assert info.pages == expected_batch(index, tree, data, queries, size)


def cell_pages(index, queries):
    """The pages every query surface reads for ``queries``, in order: the
    cell-tree walk and the data searches run the page hook for each node
    they touch."""
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
        tree, data = cell_tree(index), data_tree(index)
        queries = query_mix(rng, 4, n=30)
        expected = Counter()
        for q in queries:
            __, cell_ids, data_ids = expected_nearest(index, tree, data, q)
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
        assert snapshots_equal(index.data_snapshot, reloaded.data_snapshot)
        queries = query_mix(rng, dim)
        assert cell_pages(index, queries) == cell_pages(reloaded, queries)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "selector", [SelectorKind.SPHERE, SelectorKind.POINT]
    )
    def test_written_index_writes_what_its_reload_writes(
        self, selector, seed, tmp_path
    ):
        """Small pages give the data snapshot many leaves, so the Sphere
        and Point selectors' leaf queries see where each write put its
        point.  After 3 insert/delete pairs the written index and its
        reload read the same pages on every data search, and one more
        pair on each saves the same bytes."""
        rng = np.random.default_rng(seed)
        config = BuildConfig(selector=selector, page_size=256)
        index = NNCellIndex.build(uniform_points(80, 2, seed=seed), config)
        for __ in range(3):
            index.insert(rng.uniform(size=2))
            index.delete(int(rng.choice(index.active_ids)))
        save_index(index, tmp_path / "written.nnc")
        reloaded = load_index(tmp_path / "written.nnc")
        assert index.data_snapshot.height > 2
        assert snapshots_equal(index.data_snapshot, reloaded.data_snapshot)
        assert snapshots_equal(index.snapshot, reloaded.snapshot)
        queries = query_mix(rng, 2, n=100)
        for q in queries:
            assert index.k_nearest(q, 3) == reloaded.k_nearest(q, 3)
            assert index.nearest(q) == reloaded.nearest(q)
        assert data_pages(index, queries) == data_pages(reloaded, queries)
        point, victim = rng.uniform(size=2), int(index.active_ids[7])
        for which, target in (("written", index), ("reloaded", reloaded)):
            target.insert(point)
            target.delete(victim)
            save_index(target, tmp_path / f"{which}_again.nnc")
        assert (tmp_path / "written_again.nnc").read_bytes() == (
            tmp_path / "reloaded_again.nnc"
        ).read_bytes()


def data_pages(index, queries):
    """The pages ``k_nearest``, the fallback and ``within_radius`` read
    for ``queries``, in order, through the page hook."""
    log = PageLog()
    index.set_page_chaos(log)
    try:
        for q in queries:
            index.k_nearest(q, 3)
            index.nearest(q + 2.0)  # outside the data space
            index.within_radius(q, 0.1)
    finally:
        index.set_page_chaos(None)
    return log.pages


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
        loaded.within_radius(q, 0.2)
        loaded.stats()
        loaded.constraint_system(3)
        # What the index holds: arrays, its config and box, and snapshots;
        # no selector, no tree and no page manager.
        held = {type(value).__name__ for value in vars(loaded).values()}
        assert held <= {
            "BuildConfig", "MBR", "NoneType", "PackedTree", "dict", "int",
            "ndarray",
        }
        assert snapshots_equal(loaded.snapshot, built.snapshot)
        assert snapshots_equal(loaded.data_snapshot, built.data_snapshot)

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


def page_log(run, hook):
    """``run()``'s result and the pages it read through ``hook(log)``,
    which installs a :class:`PageLog` (``hook(None)`` removes it)."""
    log = PageLog()
    hook(log)
    try:
        result = run()
    finally:
        hook(None)
    return result, log.pages


def brute_k_nearest(points, live, q, k):
    """The ``k`` live points nearest ``q`` by ``(distance, id)``, each
    distance computed as the index computes it."""
    dist = np.sqrt(distances_to_points(q, points[live]))
    order = np.lexsort((live, dist))[:k]
    return live[order].tolist(), dist[order].tolist()


class DeleteAtFirstRead:
    """A page hook that publishes one delete at the first page a query
    reads, while the query's walk is under way."""

    def __init__(self, index, victim):
        self.index, self.victim = index, victim

    def page_read(self, page_id):
        if self.victim is not None:
            victim, self.victim = self.victim, None
            self.index.delete(victim)


class TestOneVersionPerQuery:
    def test_k_nearest_refines_the_version_it_walked(self):
        """A delete published while ``k_nearest``'s point query walks
        the cell snapshot does not reach its refinement: the answer is
        the k nearest of the version the query started on, ``min(k,
        live)`` ids, the deleted point among them."""
        index = NNCellIndex.build(uniform_points(60, 3, seed=7))
        rng = np.random.default_rng(7)
        for q in rng.uniform(size=(8, 3)):
            expected = brute_k_nearest(index.points, index.active_ids, q, 4)
            victim = expected[0][int(rng.integers(4))]
            index.set_page_chaos(DeleteAtFirstRead(index, victim))
            try:
                found = index.k_nearest(q, 4)
            finally:
                index.set_page_chaos(None)
            assert not index._is_active(victim)  # the delete was published
            assert found[:2] == expected


class TestDataSearchesMatchTheTree:
    """The searches of the data snapshot against ``nnsearch`` and the
    R*-tree's own searches on the X-tree bulk loaded from the same live
    points (:func:`helpers.data_tree`): the same ids and distances, the
    same pages, read in the same order by the two node-by-node searches;
    the leaf queries read the root once, where the tree's read it twice.
    At ``d >= 8`` a sum over ``d`` rounds by its layout, which the
    packed searches must follow."""

    @pytest.mark.parametrize("dim, page_size", [
        (2, 256), (5, 512), (9, 1024), (12, 4096),
    ])
    def test_searches(self, dim, page_size, rng):
        points = uniform_points(300, dim, seed=dim)
        index = NNCellIndex(points, BuildConfig(page_size=page_size))
        live = np.flatnonzero(rng.uniform(size=300) < 0.8)
        index._active[:] = False
        index._active[live] = True
        snapshot = data_snapshot(points, live, index.config)
        tree = data_tree(index)
        assert snapshot.height > 1

        def both(search, reference):
            """Each side's result and the pages it read, in order."""
            mine, theirs = PageLog(), PageLog()
            result = search(mine)
            tree.pages.set_chaos(theirs)
            try:
                expected = reference()
            finally:
                tree.pages.set_chaos(None)
            return result, expected, mine.pages, theirs.pages

        def leaf_ids(leaves):
            return np.sort(np.concatenate(
                [leaf.ids for leaf in leaves] or [np.zeros(0, np.int64)]
            ))

        centers = np.vstack([
            rng.uniform(size=(15, dim)), points[live[:10]],
            rng.uniform(-0.5, 1.5, size=(5, dim)),
        ])
        radius = sphere_radius(live.size, dim)
        for c in centers:
            # Node by node: the same answer and pages, in the same order.
            found, expected, mine, theirs = both(
                lambda log: packed.rkv_nearest(snapshot, c, log),
                lambda: nnsearch.rkv_nearest(tree, c),
            )
            assert found == expected and mine == theirs
            for k in (1, 4, 9):
                found, expected, mine, theirs = both(
                    lambda log: packed.hs_k_nearest(snapshot, c, k, log),
                    lambda: nnsearch.hs_k_nearest(tree, c, k),
                )
                assert found == expected and mine == theirs
            # Level by level: the same answer and the same pages.
            for r in (0.0, 0.5 * radius, radius, 3.0 * radius):
                (ids, pages), (ref, blocks), mine, theirs = both(
                    lambda log: packed.sphere_query(snapshot, c, r, log),
                    lambda: tree.sphere_query_blocks(c, r),
                )
                assert np.array_equal(np.sort(ids), np.sort(ref))
                assert pages == blocks == len(mine)
                assert Counter(mine) == Counter(theirs)
                ids, leaves, mine, theirs = both(
                    lambda log: packed.leaves_intersecting_sphere(
                        snapshot, c, r, log
                    ),
                    lambda: tree.leaves_intersecting_sphere(c, r),
                )
                assert np.array_equal(np.sort(ids), leaf_ids(leaves))
                assert Counter(mine) + Counter(theirs[:1]) == Counter(theirs)
            ids, leaves, mine, theirs = both(
                lambda log: packed.leaves_containing(snapshot, c, log),
                lambda: tree.leaves_containing(c),
            )
            assert np.array_equal(np.sort(ids), leaf_ids(leaves))
            assert Counter(mine) + Counter(theirs[:1]) == Counter(theirs)

    @pytest.mark.parametrize("state", ["built", "loaded", "written"])
    @pytest.mark.parametrize("n, dim, config", [
        (80, 2, BuildConfig(page_size=256)),
        (60, 3, BuildConfig(selector=SelectorKind.POINT, page_size=512)),
        (40, 9, BuildConfig(selector=SelectorKind.NN_DIRECTION)),
    ])
    def test_index_answers(self, state, n, dim, config, tmp_path, rng):
        """``nearest``'s fallback, ``k_nearest`` (refinement and fallback)
        and ``within_radius`` answer as a linear scan does, ties broken by
        id, read the reference tree's pages, and run the page hook."""
        index = NNCellIndex.build(uniform_points(n, dim, seed=36), config)
        if state != "built":
            save_index(index, tmp_path / "index.nnc")
            index = load_index(tmp_path / "index.nnc")
        if state == "written":
            index.insert(rng.uniform(size=dim))
            index.delete(4)
            index.insert(index.points[9] + 1e-9)
        live = index.active_ids
        scan = LinearScan(index.points[live])
        tree = data_tree(index)
        queries = query_mix(rng, dim, n=30)
        for q in queries:
            outside = q + 1.5
            (pid, dist, info), mp = page_log(
                lambda: index.nearest(outside), index.set_page_chaos
            )
            ref, tp = page_log(
                lambda: nnsearch.rkv_nearest(tree, outside),
                tree.pages.set_chaos,
            )
            assert (pid, dist, info.pages) == (
                ref.nearest_id, ref.nearest_distance, ref.pages
            )
            assert info.fallback and mp == tp
            assert dist == scan.nearest(outside).nearest_distance
            for k in (1, 3, 8):
                ids, dists, __ = index.k_nearest(q, k)
                assert (ids, dists) == brute_k_nearest(
                    index.points, live, q, k
                )
                ids, dists, info = index.k_nearest(outside, k)
                assert info.fallback
                assert (ids, dists) == brute_k_nearest(
                    index.points, live, outside, k
                )
            for r in (0.05, 0.2):
                found, mp = page_log(
                    lambda: index.within_radius(q, r), index.set_page_chaos
                )
                (__, blocks), tp = page_log(
                    lambda: tree.sphere_query_blocks(q, r),
                    tree.pages.set_chaos,
                )
                assert found.tolist() == sorted(
                    live[scan.within_radius(q, r)].tolist()
                )
                assert Counter(mp) == Counter(tp) and len(mp) == blocks
