"""Packed read snapshots of an R-tree-family index, and the walk over them.

A point query on the solution space is the whole of an NN-cell query, so
it should cost what its containment tests cost.  Walking a mutable tree
node by node pays Python and numpy call overhead per node instead.  A
:class:`PackedTree` holds the tree as one set of arrays per level, and
:func:`batched_point_query` answers a batch of point queries with one
vectorised containment test per level; a single query is a batch of one.
Entry bounds are stored axis-major, so a test reduces over ``d``
contiguous slabs.

A snapshot is laid out straight from the nodes
:func:`repro.index.bulk.str_layout` packs, one block per node, without
building the tree.  Levels run from the root down, in breadth-first
order: a level's entries are its nodes' entries in node order, and
directory entry ``i`` points to node ``i`` of the level below.  The page
ids are the ones :func:`~repro.index.bulk.bulk_load` would allocate from
the same layout, so the walk reads the pages the bulk-loaded tree's
point query reads.

The snapshot is immutable: a writer lays out a new one and publishes it
with one attribute assignment, and a reader keeps the one it started
with.  The walk counts its own pages — one per node it touches, each
once per walk — and returns the page ids, instead of reading through a
:class:`~repro.storage.page.PageManager`.

:func:`bulk_load` lays out both snapshots of the NN-cell index: its cell
rectangles and its data points.  The searches over a data snapshot are
those the index once ran on a bulk-loaded X-tree of its points, and read
the nodes those read: :func:`rkv_nearest` and :func:`hs_k_nearest` run
:mod:`repro.index.nnsearch`'s branch-and-bound and best-first searches
node by node; :func:`sphere_query` and the candidate selectors' leaf
queries (:func:`leaves_containing`, :func:`leaves_intersecting_sphere`)
test one level at a time, with the arithmetic of the R*-tree's node by
node tests, and touch the nodes its depth-first walks touch, level by
level.  Each read runs the chaos hook and counts as one block in
``storage.*`` and on the page heatmap, as an uncached page manager read
does.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..storage.page import chaos_read, read_page, record_reads
from .bulk import LayoutLevel, str_layout
from .nnsearch import NNResult, best_first, branch_and_bound
from .node import Fanout

__all__ = [
    "PackedLevel",
    "PackedTree",
    "Walk",
    "batched_point_query",
    "bulk_load",
    "hs_k_nearest",
    "leaves_containing",
    "leaves_intersecting_sphere",
    "rkv_nearest",
    "sphere_query",
]


@dataclass(frozen=True)
class PackedLevel:
    """One level of a :class:`PackedTree`."""

    lows: np.ndarray  # (d, E) entry bounds, axis-major
    highs: np.ndarray  # (d, E)
    #: Child node in the next level, or (at the leaf level) owner id.
    ids: np.ndarray  # (E,)
    #: Node ``i`` holds entries ``offsets[i]:offsets[i + 1]``.
    offsets: np.ndarray  # (N + 1,)
    counts: np.ndarray  # (N,) entries per node
    page_ids: np.ndarray  # (N,) one block each

    @cached_property
    def rows(self) -> "Tuple[np.ndarray, np.ndarray]":
        """``lows`` and ``highs`` row-major, ``(E, d)`` each, made on
        first use: the layout of a tree node's bounds, over which a sum
        along ``d`` rounds as it does on the node."""
        rows = (
            np.ascontiguousarray(self.lows.T),
            np.ascontiguousarray(self.highs.T),
        )
        for array in rows:
            array.setflags(write=False)
        return rows


@dataclass(frozen=True)
class PackedTree:
    """An immutable packed tree: its levels, root first."""

    levels: "Tuple[PackedLevel, ...]"

    @property
    def leaves(self) -> PackedLevel:
        return self.levels[-1]

    @property
    def height(self) -> int:
        return len(self.levels)

    def total_blocks(self) -> int:
        """Blocks over all nodes, one per node — the tree's on-disk
        footprint."""
        return sum(level.page_ids.size for level in self.levels)

    @classmethod
    def from_layout(cls, layout: "List[LayoutLevel]") -> "PackedTree":
        """The snapshot of the tree :func:`~repro.index.bulk.bulk_load`
        would build from ``layout``, without building it."""
        levels: "List[PackedLevel]" = []
        order = np.zeros(1, dtype=np.int64)  # layout nodes, snapshot order
        for depth, level in enumerate(reversed(layout)):
            groups = [level.groups[i] for i in order.tolist()]
            entries = np.concatenate(groups)
            is_leaf = depth == len(layout) - 1
            counts = np.array([g.size for g in groups], dtype=np.int64)
            arrays = (
                np.ascontiguousarray(level.lows[entries].T, np.float64),
                np.ascontiguousarray(level.highs[entries].T, np.float64),
                np.asarray(
                    level.ids[entries] if is_leaf else np.arange(entries.size),
                    dtype=np.int64,
                ),
                np.concatenate([[0], np.cumsum(counts)]),
                counts,
                np.asarray(level.page_ids[order], dtype=np.int64),
            )
            for array in arrays:
                array.setflags(write=False)
            levels.append(PackedLevel(*arrays))
            # Above the leaves, entry i of a level is node i below it.
            order = entries
        return cls(tuple(levels))


class Walk(NamedTuple):
    """What :func:`batched_point_query` found and read."""

    #: Query row of each (query, leaf entry) containment pair.
    query: np.ndarray
    #: The pair's entry, as a position in the snapshot's leaf level.
    entry: np.ndarray
    #: The entry's id (the owner, for a cell tree).
    owner: np.ndarray
    #: Nodes touched, one page each: the walk's page count.
    pages: int
    #: Per level from the root, the nodes touched, each once.
    nodes: "Tuple[np.ndarray, ...]"
    tree: "Optional[PackedTree]"

    def page_ids(self) -> np.ndarray:
        """Pages of the nodes touched, level by level, each once."""
        if not self.nodes:
            return _EMPTY
        return np.concatenate([
            level.page_ids[nodes]
            for level, nodes in zip(self.tree.levels, self.nodes)
        ])


_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.setflags(write=False)
_NO_WALK = Walk(_EMPTY, _EMPTY, _EMPTY, 0, (), None)
_ROOT = np.zeros(1, dtype=np.int64)
_ROOT.setflags(write=False)

#: A level tests every entry of the nodes it touches against every
#: query, by broadcasting, when that block is at most this many times
#: the (query, entry) pairs its reached nodes hold, and those pairs alone
#: otherwise.  Broadcasting costs a few times less per pair than
#: gathering, and either way a level costs O(pairs reached).
_BLOCK_SHARE = 2


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``starts[i] : starts[i] + counts[i]`` for every ``i``, concatenated."""
    skip = starts - np.cumsum(counts) + counts
    return np.repeat(skip, counts) + np.arange(counts.sum())


def _contains(
    lows: np.ndarray, highs: np.ndarray, q: np.ndarray, atol: float
) -> np.ndarray:
    """``(E, m)``: entry ``i`` contains query ``j``.  All axis-major:
    ``lows``/``highs`` are ``(d, E)`` and ``q`` is ``(d, m)``."""
    q = q[:, None, :]
    inside = lows[:, :, None] <= q + atol
    inside &= q <= highs[:, :, None] + atol
    return np.logical_and.reduce(inside, axis=0)


def batched_point_query(
    tree: PackedTree,
    queries: np.ndarray,
    atol: float = 1e-12,
    chaos=None,
) -> Walk:
    """Every (query, leaf entry) containment pair, in one walk.

    The walk carries the (query, node) pairs reached from level to
    level.  Each level tests the entries of the nodes reached against
    the queries that reached them in one vectorised pass, with the
    arithmetic of :meth:`RStarTree.point_query` (``low <= q + atol`` and
    ``q <= high + atol`` per axis), so the pairs found are exactly those
    a per-query point query finds.  Where the queries share most of the
    nodes touched, the pass broadcasts every touched entry against every
    query, which finds the same pairs because a parent's MBR covers its
    entries; elsewhere it gathers the reached pairs alone
    (:data:`_BLOCK_SHARE`).  Either way a level's work grows with the
    (query, node) pairs reached, as it does for per-query walks.  A node
    is touched once per walk however many queries reach it, so a batch
    shares its descent.  A single query's pairs come in leaf-entry order;
    an owner stored under several rectangles (decomposed cells) repeats.

    ``chaos`` duck-types :class:`repro.chaos.ChaosInjector`: every node
    touched is one read attempt, retried as a page manager retries.
    """
    q = np.asarray(queries, dtype=np.float64)
    m = q.shape[0]
    if m == 0:
        return _NO_WALK
    q = np.ascontiguousarray(q.T)  # axis-major, as the bounds
    root = tree.levels[0]
    touched = [_ROOT]
    pages = 1
    if chaos is not None:
        chaos_read(chaos, int(root.page_ids[0]))
    # Every query reaches the root.
    pair_node, pair_q = np.nonzero(_contains(root.lows, root.highs, q, atol))
    level = root
    for level in tree.levels[1:]:
        # Directory entry i leads to node i of this level, and one query
        # reaches each node at most once.
        nodes = pair_node if m == 1 else np.unique(pair_node)
        touched.append(nodes)
        pages += int(nodes.size)
        if chaos is not None:
            for page_id in level.page_ids[nodes].tolist():
                chaos_read(chaos, page_id)
        sizes = level.counts[nodes]
        if m == 1 or int(sizes.sum()) * m <= _BLOCK_SHARE * int(
            level.counts[pair_node].sum()
        ):
            # Parents cover their entries, so a query inside an entry
            # is inside every MBR above it and reached the entry's node:
            # testing every touched entry against every query finds
            # the reached pairs only.
            entry = _ranges(level.offsets[nodes], sizes)
            hit = _contains(
                np.take(level.lows, entry, axis=1),
                np.take(level.highs, entry, axis=1),
                q, atol,
            )
            rows, pair_q = np.nonzero(hit)
            pair_node = entry[rows]
        else:
            counts = level.counts[pair_node]
            entry = _ranges(level.offsets[pair_node], counts)
            pair_q = np.repeat(pair_q, counts)
            hit = np.take(level.lows, entry, axis=1) <= np.take(
                q + atol, pair_q, axis=1
            )
            high = np.take(level.highs, entry, axis=1)
            high += atol
            hit &= np.take(q, pair_q, axis=1) <= high
            hit = np.logical_and.reduce(hit, axis=0)
            pair_q, pair_node = pair_q[hit], entry[hit]
    return Walk(
        pair_q, pair_node, level.ids[pair_node], pages, tuple(touched), tree
    )


def bulk_load(
    lows: np.ndarray,
    highs: np.ndarray,
    ids: np.ndarray,
    page_size: int,
    leaf_entry_bytes: int,
) -> PackedTree:
    """The snapshot of ``n >= 1`` entries that bulk loading them into a
    new tree of ``page_size``-byte pages, whose leaf entries take
    ``leaf_entry_bytes``, lays out (:func:`~repro.index.bulk.str_layout`),
    page ids included, without building the tree."""
    fanout = Fanout.of(lows.shape[1], page_size, leaf_entry_bytes)
    return PackedTree.from_layout(str_layout(fanout, lows, highs, ids))


# ----------------------------------------------------------------------
# Searches over a data snapshot, whose leaf entries are points
# ----------------------------------------------------------------------

def _rows(level: PackedLevel, entries) -> "Tuple[np.ndarray, np.ndarray]":
    """The bounds of ``entries`` (a slice or an index array) of ``level``,
    row-major (:attr:`PackedLevel.rows`)."""
    lows, highs = level.rows
    return lows[entries], highs[entries]


def _reader(tree: PackedTree, chaos) -> "Callable[[int], Tuple]":
    """The node reader :func:`~repro.index.nnsearch.branch_and_bound`
    and :func:`~repro.index.nnsearch.best_first` search with.  A node is
    its position in breadth-first order over all levels (the root is
    0); each read is one block, published by
    :func:`~repro.storage.page.read_page`."""
    levels = tree.levels
    starts = [0]
    for level in levels:
        starts.append(starts[-1] + level.counts.size)

    def read(node: int) -> "Tuple":
        depth = bisect_right(starts, node) - 1
        level, i = levels[depth], node - starts[depth]
        read_page(chaos, int(level.page_ids[i]))
        entries = slice(int(level.offsets[i]), int(level.offsets[i + 1]))
        lows, highs = _rows(level, entries)
        ids = level.ids[entries]
        if depth == len(levels) - 1:
            return lows, highs, ids, ids, True, 1
        below = levels[depth + 1]
        return lows, highs, ids + starts[depth + 1], below.page_ids[ids], False, 1

    return read


def rkv_nearest(
    tree: PackedTree, query: Sequence[float], chaos=None
) -> NNResult:
    """Branch-and-bound nearest neighbor over a data snapshot
    (:func:`repro.index.nnsearch.rkv_nearest`'s search); ``chaos`` runs
    on every node read."""
    return branch_and_bound(_reader(tree, chaos), 0, query)


def hs_k_nearest(
    tree: PackedTree, query: Sequence[float], k: int, chaos=None
) -> NNResult:
    """Best-first k nearest neighbors over a data snapshot
    (:func:`repro.index.nnsearch.hs_k_nearest`'s search); ``chaos`` runs
    on every node read."""
    root = int(tree.levels[0].page_ids[0])
    return best_first(_reader(tree, chaos), 0, root, query, k)


def _touch(level: PackedLevel, nodes: np.ndarray, chaos) -> np.ndarray:
    """The pages of ``nodes`` of ``level``, each read through ``chaos``."""
    page_ids = level.page_ids[nodes]
    if chaos is not None:
        for page_id in page_ids.tolist():
            chaos_read(chaos, page_id)
    return page_ids


def sphere_query(
    tree: PackedTree, center: Sequence[float], radius: float, chaos=None
) -> "Tuple[np.ndarray, int]":
    """Ids of the leaf entries intersecting the closed ball
    ``B(center, radius)``, in leaf order, and the nodes read.

    :meth:`RStarTree.sphere_query_blocks` one level at a time: a node is
    read when its parent's entry intersects the ball, and every entry of
    the nodes read is tested at once with the same arithmetic (the
    squared distance to the entry's nearest point, reduced over ``d`` as
    on a node, against ``radius ** 2 + 1e-12``).  The nearest point is
    clipped by ``np.maximum`` then ``np.minimum``, the bits ``np.clip``
    gives finite inputs, at a ufunc's cost.
    """
    c = np.asarray(center, dtype=np.float64)
    r_sq = radius * radius + 1e-12
    nodes, pages = _ROOT, []
    for depth, level in enumerate(tree.levels):
        pages.append(_touch(level, nodes, chaos))
        if depth:
            entries = _ranges(level.offsets[nodes], level.counts[nodes])
            lows, highs = _rows(level, entries)
        else:  # the root holds every entry of its level
            lows, highs = level.rows
        diff = np.minimum(np.maximum(c, lows), highs) - c
        inside = np.einsum("ij,ij->i", diff, diff) <= r_sq
        nodes = level.ids[entries[inside] if depth else inside]
    page_ids = np.concatenate(pages)
    record_reads(page_ids, page_ids.size)
    return nodes, int(page_ids.size)


def leaves_containing(
    tree: PackedTree, point: Sequence[float], chaos=None
) -> np.ndarray:
    """Ids of every entry on the leaves whose region contains ``point``:
    the Point selector's query (:meth:`RStarTree.leaves_containing`, with
    :meth:`MBR.contains_point`'s test at ``atol`` 1e-12)."""
    p = np.asarray(point, dtype=np.float64)

    def contains(lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        return np.all((lows - 1e-12 <= p) & (p <= highs + 1e-12), axis=1)

    return _leaf_ids(tree, contains, chaos)


def leaves_intersecting_sphere(
    tree: PackedTree, center: Sequence[float], radius: float, chaos=None
) -> np.ndarray:
    """Ids of every entry on the leaves whose region intersects the
    closed ball ``B(center, radius)``: the Sphere selector's query
    (:meth:`RStarTree.leaves_intersecting_sphere`, with
    :meth:`MBR.intersects_sphere`'s test, its sum over ``d`` included)."""
    c = np.asarray(center, dtype=np.float64)
    bound = radius * radius + 1e-12

    def intersects(lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        nearest = np.minimum(np.maximum(c, lows), highs)  # np.clip's bits
        return np.sum((nearest - c) ** 2, axis=1) <= bound

    return _leaf_ids(tree, intersects, chaos)


def _leaf_ids(
    tree: PackedTree,
    test: "Callable[[np.ndarray, np.ndarray], np.ndarray]",
    chaos,
) -> np.ndarray:
    """Ids of every entry on the leaves whose region passes ``test``.

    As :meth:`RStarTree._leaves_matching` walks: the root is read and its
    region tested, and every child of a directory node whose region
    passed is read and its region, its parent's entry, tested.  The
    root is read once (that walk reads it twice).  ``test`` takes the
    regions' bounds as :func:`_rows` gives them.
    """
    levels = tree.levels
    root = levels[0]
    pages = [_touch(root, _ROOT, chaos)]
    # The root's region is its entries' MBR, computed as Node.mbr() does.
    low = root.lows.min(axis=1)
    high = np.maximum(low, root.highs.max(axis=1))
    nodes = _ROOT if test(low[None, :], high[None, :])[0] else _EMPTY
    for level, below in zip(levels, levels[1:]):
        children = _ranges(level.offsets[nodes], level.counts[nodes])
        pages.append(_touch(below, children, chaos))
        nodes = children[test(*_rows(level, children))]
    page_ids = np.concatenate(pages)
    record_reads(page_ids, page_ids.size)
    leaves = levels[-1]
    return leaves.ids[_ranges(leaves.offsets[nodes], leaves.counts[nodes])]
