"""Sort-Tile-Recursive (STR) bulk loading for the R-tree family.

The paper builds its indexes by repeated insertion (1998-era C++ made that
cheap).  In pure Python, one-by-one insertion of tens of thousands of
rectangles dominates experiment runtime, so the benchmark harness bulk
loads with STR (Leutenegger, Lopez & Edgington, ICDE 1997): entries are
sorted and tiled into slabs recursively per dimension, packing nodes to a
configurable fill grade, then the directory is built bottom-up the same
way.  Dynamic insertion remains available and is what the dynamic-update
experiments use.

**Invariant (load-bearing for** :mod:`repro.engine.parallel` **):** bulk
loading is a pure function of its inputs — identical entries in
identical order produce an identical tree.  Every build worker lays out
its data snapshot through this path, and the engine's bit-identical
parity guarantee (docs/scaling.md) breaks if any tie-break here becomes
order- or scheduling-dependent.  ``tests/engine/test_parallel_build.py``
pins this down to the snapshots' bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from .node import Fanout, Node
from .rstar import RStarTree

__all__ = [
    "DEFAULT_FILL",
    "LayoutLevel",
    "bulk_load",
    "load_layout",
    "pack_layout",
    "str_layout",
]

DEFAULT_FILL = 0.75


@dataclass(frozen=True)
class LayoutLevel:
    """One level of a packed layout: its entries and the nodes packing them.

    At the leaf level the entries are the loaded ones; above it they are
    the MBRs of the level below's nodes, with those nodes' page ids as
    ids.
    """

    lows: np.ndarray  # (E, d)
    highs: np.ndarray  # (E, d)
    ids: np.ndarray  # (E,)
    #: Each node's entries, as indices into the level's entry arrays.
    groups: "List[np.ndarray]"
    #: The page each node is allocated on, in allocation order.
    page_ids: np.ndarray


def str_layout(
    fanout: Fanout,
    lows: np.ndarray,
    highs: np.ndarray,
    ids: np.ndarray,
    fill: float = DEFAULT_FILL,
    first_page: int = 1,
) -> "List[LayoutLevel]":
    """The nodes STR packs ``n >= 1`` entries into, leaves first, when
    :func:`bulk_load` fills an empty tree of that ``fanout`` with them.

    This is the one layout :func:`bulk_load` allocates and the packed
    read snapshot (:mod:`repro.index.packed`) copies, so the two agree
    node for node and page for page.  ``first_page`` is the tree's next
    free page; 1 is that of a new tree, whose empty root holds page 0.
    """
    dims = list(range(lows.shape[1]))

    def tiles(level, lows, highs, capacity, min_entries):
        centers = (lows + highs) / 2.0
        return _str_groups(
            centers, np.arange(lows.shape[0]), capacity, min_entries, dims
        )

    return pack_layout(fanout, lows, highs, ids, fill, tiles, first_page)


def pack_layout(
    fanout: Fanout,
    lows: np.ndarray,
    highs: np.ndarray,
    ids: np.ndarray,
    fill: float,
    group: "Callable[..., List[np.ndarray]]",
    first_page: int = 1,
) -> "List[LayoutLevel]":
    """The nodes ``n >= 1`` entries pack into, level by level from the
    leaves, with ``group(level, lows, highs, capacity, min_entries)``
    cutting one level's entries into its nodes.

    Node occupancy targets ``fill`` times the maximum fan-out but never
    drops below the minimum fill grade.  Pages are numbered from
    ``first_page`` in allocation order: the leaves, then each directory
    level; the last level holds only the root.
    """
    capacity = max(2, int(fill * fanout.max_entries), fanout.min_entries)
    leaf_capacity = max(
        2, int(fill * fanout.leaf_max_entries), fanout.leaf_min_entries
    )
    levels: "List[LayoutLevel]" = []
    cap, min_entries = leaf_capacity, fanout.leaf_min_entries
    page = first_page
    while True:
        groups = group(len(levels), lows, highs, cap, min_entries)
        page_ids = np.arange(page, page + len(groups), dtype=np.int64)
        page += len(groups)
        levels.append(LayoutLevel(lows, highs, ids, groups, page_ids))
        if len(groups) == 1:
            return levels
        # The next level's entries are these nodes' MBRs, computed as
        # Node.mbr() does (the same reduction over each node's entries in
        # the same order, then the same clamp), for every node at once.
        order = np.concatenate(groups)
        starts = np.cumsum([0] + [g.shape[0] for g in groups[:-1]])
        node_lows = np.minimum.reduceat(lows[order], starts, axis=0)
        node_highs = np.maximum.reduceat(highs[order], starts, axis=0)
        lows, highs, ids = node_lows, np.maximum(node_lows, node_highs), page_ids
        cap, min_entries = capacity, fanout.min_entries


def bulk_load(
    tree: RStarTree,
    lows: np.ndarray,
    highs: np.ndarray,
    ids: Sequence[int],
    fill: float = DEFAULT_FILL,
) -> RStarTree:
    """Fill an *empty* tree with the given entries using STR packing.

    Returns the tree for chaining.  The nodes are those of
    :func:`str_layout`, so the result satisfies every structural
    invariant of :meth:`RStarTree.validate`.
    """
    return load_layout(tree, str_layout, lows, highs, ids, fill)


def load_layout(
    tree: RStarTree,
    layout: "Callable[..., List[LayoutLevel]]",
    lows: np.ndarray,
    highs: np.ndarray,
    ids: Sequence[int],
    fill: float = DEFAULT_FILL,
    **options,
) -> RStarTree:
    """Fill an *empty* tree with the nodes ``layout(tree.fanout, lows,
    highs, ids, fill, first_page, **options)`` packs the entries into,
    allocating them in the layout's page order from the tree's next free
    page; returns the tree."""
    lows = np.atleast_2d(np.asarray(lows, dtype=np.float64))
    highs = np.atleast_2d(np.asarray(highs, dtype=np.float64))
    ids_arr = np.asarray(ids, dtype=np.int64)
    if tree.n_entries != 0:
        raise ValueError("bulk loading requires an empty tree")
    if lows.shape != highs.shape or lows.shape[0] != ids_arr.shape[0]:
        raise ValueError("lows, highs and ids must agree in length")
    if lows.shape[1] != tree.dim:
        raise ValueError(f"entries must be {tree.dim}-dimensional")
    if not 0.0 < fill <= 1.0:
        raise ValueError("fill must be within (0, 1]")
    n = lows.shape[0]
    if n == 0:
        return tree

    levels = layout(
        tree.fanout, lows, highs, ids_arr, fill, tree.pages.next_page_id,
        **options,
    )
    for level, nodes in enumerate(levels):
        for group, page_id in zip(nodes.groups, nodes.page_ids.tolist()):
            node = Node(
                level == 0, level,
                nodes.lows[group], nodes.highs[group], nodes.ids[group],
            )
            allocated = tree.pages.allocate(
                node, n_blocks=tree._blocks_for(node)
            )
            if allocated != page_id:  # pragma: no cover - layout invariant
                raise RuntimeError(
                    f"bulk load allocated page {allocated}, "
                    f"but its layout placed the node on {page_id}"
                )

    tree.pages.free(tree.root_id)
    tree.root_id = int(levels[-1].page_ids[0])
    tree.height = len(levels)
    tree.n_entries = n
    return tree


def _str_groups(
    centers: np.ndarray,
    indices: np.ndarray,
    capacity: int,
    min_entries: int,
    dims: List[int],
) -> "List[np.ndarray]":
    """Tile ``indices`` into groups of at most ``capacity`` entries.

    Sorts along ``dims[0]``, slices into ``ceil(P^(1/k))`` slabs (``P`` the
    number of pages still needed, ``k`` the remaining dimensions) and
    recurses; the last dimension chops runs directly.  Group sizes are
    balanced so no group falls below ``min_entries`` (except a single
    root-sized group).
    """
    n = indices.shape[0]
    if n <= capacity:
        return [indices]
    order = indices[np.argsort(centers[indices, dims[0]], kind="stable")]
    pages_needed = -(-n // capacity)
    if len(dims) == 1 or pages_needed <= 1:
        return _balanced_chunks(order, capacity, min_entries)
    slabs = int(np.ceil(pages_needed ** (1.0 / len(dims))))
    slab_chunks = _balanced_chunks(order, -(-n // slabs), min_entries)
    groups: "List[np.ndarray]" = []
    for slab in slab_chunks:
        groups.extend(
            _str_groups(centers, slab, capacity, min_entries, dims[1:])
        )
    return groups


def _balanced_chunks(
    order: np.ndarray, capacity: int, min_entries: int
) -> "List[np.ndarray]":
    """Split ``order`` into contiguous chunks of balanced sizes that are
    at most ``capacity`` and (where possible) at least ``min_entries``."""
    n = order.shape[0]
    n_chunks = -(-n // capacity)
    # Shrinking the chunk count keeps every balanced chunk >= min_entries.
    while n_chunks > 1 and n // n_chunks < min_entries:
        n_chunks -= 1
    # As np.array_split cuts them: the first n % n_chunks chunks take one
    # entry more than the rest.
    size, extra = divmod(n, n_chunks)
    chunks, start = [], 0
    for i in range(n_chunks):
        stop = start + size + (i < extra)
        chunks.append(order[start:stop])
        start = stop
    return chunks
