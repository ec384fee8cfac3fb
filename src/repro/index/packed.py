"""Packed read snapshots of an R-tree-family index, and the walk over them.

A point query on the solution space is the whole of an NN-cell query, so
it should cost what its containment tests cost.  Walking the mutable tree
node by node pays Python and numpy call overhead per node instead.  A
:class:`PackedTree` copies the tree into one set of arrays per level, and
:func:`batched_point_query` answers a batch of point queries with one
vectorised containment test per level; a single query is a batch of one.
Entry bounds are stored axis-major, so a test reduces over ``d``
contiguous slabs.

Levels run from the root down, in breadth-first order: a level's entries
are its nodes' entries in node order, and directory entry ``i`` points to
node ``i`` of the level below.  That order depends only on the tree's
shape, so the snapshot laid out from :func:`repro.index.bulk.str_layout`
and the one frozen from the tree :func:`~repro.index.bulk.bulk_load`
builds from the same layout are equal array for array.

The snapshot is immutable: a writer freezes a new one and publishes it
with one attribute assignment, and a reader keeps the one it started
with.  The walk counts its own pages — the blocks of the nodes it
touches, each once per walk — and returns the page ids, instead of
reading through a :class:`~repro.storage.page.PageManager`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..storage.page import chaos_read
from .bulk import LayoutLevel
from .rstar import RStarTree

__all__ = ["PackedLevel", "PackedTree", "Walk", "batched_point_query"]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


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
    page_ids: np.ndarray  # (N,)
    blocks: np.ndarray  # (N,) blocks per node (X-tree supernodes > 1)

    @classmethod
    def of(cls, lows, highs, ids, counts, page_ids, blocks) -> "PackedLevel":
        """A level from entry-major ``(E, d)`` bounds and its nodes'
        entry counts."""
        counts = np.asarray(counts, dtype=np.int64)
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(
            _frozen(np.ascontiguousarray(np.transpose(lows), np.float64)),
            _frozen(np.ascontiguousarray(np.transpose(highs), np.float64)),
            _frozen(np.asarray(ids, dtype=np.int64)),
            _frozen(offsets),
            _frozen(counts),
            _frozen(np.asarray(page_ids, dtype=np.int64)),
            _frozen(np.asarray(blocks, dtype=np.int64)),
        )


@dataclass(frozen=True)
class PackedTree:
    """An immutable copy of a tree: its levels, root first."""

    levels: "Tuple[PackedLevel, ...]"

    @property
    def leaves(self) -> PackedLevel:
        return self.levels[-1]

    @property
    def height(self) -> int:
        return len(self.levels)

    def total_blocks(self) -> int:
        """Blocks over all nodes — the tree's on-disk footprint."""
        return int(sum(int(level.blocks.sum()) for level in self.levels))

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
            levels.append(PackedLevel.of(
                level.lows[entries],
                level.highs[entries],
                level.ids[entries] if is_leaf else np.arange(entries.size),
                [g.size for g in groups],
                level.page_ids[order],
                np.ones(order.size, dtype=np.int64),
            ))
            # Above the leaves, entry i of a level is node i below it.
            order = entries
        return cls(tuple(levels))

    @classmethod
    def freeze(cls, tree: RStarTree) -> "PackedTree":
        """The snapshot of ``tree`` as it is now (uncounted reads)."""
        pages = tree.pages
        levels: "List[PackedLevel]" = []
        order = [tree.root_id]
        while True:
            nodes = [pages.peek(page_id) for page_id in order]
            is_leaf = nodes[0].is_leaf
            ids = np.concatenate([node.ids for node in nodes])
            levels.append(PackedLevel.of(
                np.concatenate([node.lows for node in nodes]),
                np.concatenate([node.highs for node in nodes]),
                ids if is_leaf else np.arange(ids.size),
                [node.n_entries for node in nodes],
                order,
                [pages.n_blocks_of(page_id) for page_id in order],
            ))
            if is_leaf:
                return cls(tuple(levels))
            order = ids.tolist()


class Walk(NamedTuple):
    """What :func:`batched_point_query` found and read."""

    #: Query row of each (query, leaf entry) containment pair.
    query: np.ndarray
    #: The pair's entry, as a position in the snapshot's leaf level.
    entry: np.ndarray
    #: The entry's id (the owner, for a cell tree).
    owner: np.ndarray
    #: Blocks of the nodes touched: the walk's page count.
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
    pages = int(root.blocks[0])
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
        pages += int(level.blocks[nodes].sum())
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
