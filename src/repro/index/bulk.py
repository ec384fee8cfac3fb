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
identical order produce an identical tree.  Every build worker rebuilds
its data tree through this path, and the engine's bit-identical parity
guarantee (docs/scaling.md) breaks if any tie-break here becomes
order- or scheduling-dependent.  ``tests/engine/test_parallel_build.py``
pins this down to the node bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .node import Node
from .rstar import RStarTree

__all__ = ["DEFAULT_FILL", "LayoutLevel", "bulk_load", "str_layout"]

DEFAULT_FILL = 0.75


@dataclass(frozen=True)
class LayoutLevel:
    """One level of an STR layout: its entries and the nodes packing them.

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
    tree: RStarTree,
    lows: np.ndarray,
    highs: np.ndarray,
    ids: np.ndarray,
    fill: float = DEFAULT_FILL,
) -> "List[LayoutLevel]":
    """The nodes STR packs ``n >= 1`` entries into, leaves first, when
    :func:`bulk_load` fills the empty ``tree`` with them.

    Node occupancy targets ``fill`` times the tree's maximum fan-out but
    never drops below its minimum fill grade.  Pages are numbered from
    the tree's next free page in allocation order: the leaves, then each
    directory level; the last level holds only the root.  This is the
    one layout :func:`bulk_load` allocates and the packed read snapshot
    (:mod:`repro.index.packed`) copies, so the two agree node for node
    and page for page.  ``tree`` is only read.
    """
    dims = list(range(lows.shape[1]))
    capacity = max(2, int(fill * tree.max_entries), tree.min_entries)
    leaf_capacity = max(
        2, int(fill * tree.leaf_max_entries), tree.leaf_min_entries
    )
    levels: "List[LayoutLevel]" = []
    cap, min_entries = leaf_capacity, tree.leaf_min_entries
    page = tree.pages.next_page_id
    while True:
        centers = (lows + highs) / 2.0
        groups = _str_groups(
            centers, np.arange(ids.shape[0]), cap, min_entries, dims
        )
        page_ids = np.arange(page, page + len(groups), dtype=np.int64)
        page += len(groups)
        levels.append(LayoutLevel(lows, highs, ids, groups, page_ids))
        if len(groups) == 1:
            return levels
        # The next level's entries are these nodes' MBRs, computed as
        # Node.mbr() does (the same reduction, then the same clamp).
        node_lows = np.stack([lows[g].min(axis=0) for g in groups])
        node_highs = np.stack([highs[g].max(axis=0) for g in groups])
        lows, highs, ids = node_lows, np.maximum(node_lows, node_highs), page_ids
        cap, min_entries = capacity, tree.min_entries


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
    lows = np.atleast_2d(np.asarray(lows, dtype=np.float64))
    highs = np.atleast_2d(np.asarray(highs, dtype=np.float64))
    ids_arr = np.asarray(ids, dtype=np.int64)
    if tree.n_entries != 0:
        raise ValueError("bulk_load requires an empty tree")
    if lows.shape != highs.shape or lows.shape[0] != ids_arr.shape[0]:
        raise ValueError("lows, highs and ids must agree in length")
    if lows.shape[1] != tree.dim:
        raise ValueError(f"entries must be {tree.dim}-dimensional")
    if not 0.0 < fill <= 1.0:
        raise ValueError("fill must be within (0, 1]")
    n = lows.shape[0]
    if n == 0:
        return tree

    layout = str_layout(tree, lows, highs, ids_arr, fill)
    for level, nodes in enumerate(layout):
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
    tree.root_id = int(layout[-1].page_ids[0])
    tree.height = len(layout)
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
    return [chunk for chunk in np.array_split(order, n_chunks) if chunk.size]
