"""R*-tree (Beckmann, Kriegel, Schneider & Seeger, SIGMOD 1990).

The paper benchmarks the NN-cell approach against NN search on the R*-tree
and on the X-tree; the R*-tree is also the substrate the solution-space
index is built on (the X-tree in :mod:`repro.index.xtree` subclasses this
implementation).

Implemented faithfully:

* **ChooseSubtree** — minimum overlap enlargement at the leaf level,
  minimum area enlargement above, with the usual tie-breaks;
* **Forced reinsert** — on the first overflow per level per insertion, the
  30 % of entries farthest from the node centre are reinserted;
* **Topological split** — split axis by minimum margin sum, split index by
  minimum overlap (ties: minimum area);
* **Condense on delete** — underflowing nodes are dissolved and their
  entries reinserted at their original level.

Nodes are pages of a :class:`repro.storage.PageManager`; node fan-out is
derived from the page size (4 KB by default, as in the paper) and the entry
byte size, so page-access counts follow the data dimensionality exactly as
they would on disk.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..geometry.mbr import MBR
from ..obs import metrics
from ..storage.page import DEFAULT_PAGE_SIZE, PageManager
from .node import Fanout, Node

__all__ = ["RStarTree", "REINSERT_FRACTION"]

REINSERT_FRACTION = 0.3  # the R*-tree paper's p = 30 %


class RStarTree:
    """A disk-block R*-tree over ``dim``-dimensional rectangles.

    Entries are ``(low, high, entry_id)`` triples; data *points* are stored
    as degenerate rectangles.  ``entry_id`` values need not be unique —
    the decomposed NN-cell index stores several rectangles per cell — but
    deletion then requires the exact rectangle (:meth:`delete`).
    """

    def __init__(
        self,
        dim: int,
        page_manager: "PageManager | None" = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        cache_pages: int = 0,
        max_entries: "int | None" = None,
        leaf_entry_bytes: "int | None" = None,
    ):
        """``leaf_entry_bytes`` sizes the *payload* of one leaf entry on
        disk: a data tree storing points passes ``8 * dim + 8`` (the paper
        stores points, not rectangles, on data pages), the NN-cell index
        passes ``3 * 8 * dim + 8`` (cell MBR plus the owner's coordinates).
        Directory entries are always rectangles (``entry_bytes(dim)``).
        Defaults to the directory entry size."""
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim
        self.pages = page_manager or PageManager(page_size, cache_pages)
        self.fanout = Fanout.of(
            dim, self.pages.page_size, leaf_entry_bytes, max_entries
        )
        (
            self.max_entries, self.min_entries,
            self.leaf_max_entries, self.leaf_min_entries,
        ) = self.fanout
        self.height = 1
        self.n_entries = 0
        self.root_id = self.pages.allocate(Node.empty(True, 0, dim))

    # ==================================================================
    # Page helpers
    # ==================================================================
    def _read(self, page_id: int) -> Node:
        return self.pages.read(page_id)

    def _write(self, page_id: int, node: Node) -> None:
        self.pages.write(page_id, node, n_blocks=self._write_blocks(page_id))

    def _write_blocks(self, page_id: int) -> int:
        """Block count to record when rewriting an existing page.  The
        X-tree preserves supernode sizes here; plain R*-nodes are always
        one block."""
        return 1

    def _blocks_for(self, node: Node) -> int:
        """Block count of a freshly created node (allocation and split
        install paths).  Always one block: supernodes only arise through
        the X-tree's explicit grow step."""
        return 1

    def _node_capacity(self, page_id: int, node: Node) -> int:
        """Maximum entries of the node on ``page_id`` (X-tree supernodes
        override this)."""
        return self.leaf_max_entries if node.is_leaf else self.max_entries

    def _min_for(self, node: Node) -> int:
        """Minimum fill grade of a node of this kind."""
        return self.leaf_min_entries if node.is_leaf else self.min_entries

    # ==================================================================
    # Insertion
    # ==================================================================
    def insert(
        self, low: Sequence[float], high: Sequence[float], entry_id: int
    ) -> None:
        """Insert one rectangle entry."""
        low_arr = np.asarray(low, dtype=np.float64)
        high_arr = np.asarray(high, dtype=np.float64)
        if low_arr.shape != (self.dim,) or high_arr.shape != (self.dim,):
            raise ValueError(f"entry bounds must be {self.dim}-vectors")
        if np.any(low_arr > high_arr):
            raise ValueError("entry low bound exceeds high bound")
        reinserted: Set[int] = set()
        self._insert_at_level(low_arr, high_arr, int(entry_id), 0, reinserted)
        self.n_entries += 1

    def insert_point(self, point: Sequence[float], entry_id: int) -> None:
        """Insert a data point (degenerate rectangle)."""
        self.insert(point, point, entry_id)

    def insert_many(self, lows: np.ndarray, highs: np.ndarray,
                    ids: Sequence[int]) -> None:
        """Insert entries one by one (dynamic path; see
        :mod:`repro.index.bulk` for fast bulk loading)."""
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        for i, entry_id in enumerate(ids):
            self.insert(lows[i], highs[i], entry_id)

    def _insert_at_level(
        self,
        low: np.ndarray,
        high: np.ndarray,
        entry_id: int,
        target_level: int,
        reinserted_levels: Set[int],
    ) -> None:
        path = self._choose_path(low, high, target_level)
        node_id = path[-1]
        node = self._read(node_id)
        node.append(low, high, entry_id)
        self._write(node_id, node)
        self._adjust_upward(path)
        self._handle_overflow(path, reinserted_levels)

    def _choose_path(
        self, low: np.ndarray, high: np.ndarray, target_level: int
    ) -> List[int]:
        """Page ids from the root down to a node at ``target_level``."""
        path = [self.root_id]
        node = self._read(self.root_id)
        while node.level > target_level:
            child_idx = self._choose_subtree(node, low, high)
            child_id = int(node.ids[child_idx])
            path.append(child_id)
            node = self._read(child_id)
        return path

    def _choose_subtree(
        self, node: Node, low: np.ndarray, high: np.ndarray
    ) -> int:
        """R* ChooseSubtree: index of the child entry to descend into."""
        lows, highs = node.lows, node.highs
        enl_lows = np.minimum(lows, low)
        enl_highs = np.maximum(highs, high)
        areas = np.prod(highs - lows, axis=1)
        enl_areas = np.prod(enl_highs - enl_lows, axis=1)
        area_enlarge = enl_areas - areas

        if node.level == 1:  # children are leaves: minimum overlap cost
            overlap_delta = self._overlap_enlargements(
                lows, highs, enl_lows, enl_highs
            )
            order = np.lexsort((areas, area_enlarge, overlap_delta))
        else:
            order = np.lexsort((areas, area_enlarge))
        return int(order[0])

    @staticmethod
    def _overlap_enlargements(
        lows: np.ndarray,
        highs: np.ndarray,
        enl_lows: np.ndarray,
        enl_highs: np.ndarray,
    ) -> np.ndarray:
        """For each entry j: how much the overlap with its siblings grows
        when j is enlarged to cover the new rectangle."""
        n = lows.shape[0]
        deltas = np.zeros(n)
        for j in range(n):
            old_sides = np.minimum(highs, highs[j]) - np.maximum(lows, lows[j])
            new_sides = np.minimum(highs, enl_highs[j]) - np.maximum(
                lows, enl_lows[j]
            )
            old_ov = np.prod(np.clip(old_sides, 0.0, None), axis=1)
            new_ov = np.prod(np.clip(new_sides, 0.0, None), axis=1)
            diff = new_ov - old_ov
            diff[j] = 0.0
            deltas[j] = float(np.sum(diff))
        return deltas

    def _adjust_upward(self, path: List[int]) -> None:
        """Recompute parent entry MBRs along ``path`` (bottom-up)."""
        for depth in range(len(path) - 1, 0, -1):
            child_id = path[depth]
            parent_id = path[depth - 1]
            child = self._read(child_id)
            parent = self._read(parent_id)
            idx = parent.find_child(child_id)
            child_mbr = child.mbr()
            if (
                np.array_equal(parent.lows[idx], child_mbr.low)
                and np.array_equal(parent.highs[idx], child_mbr.high)
            ):
                continue
            parent.replace_at(idx, child_mbr.low, child_mbr.high, child_id)
            self._write(parent_id, parent)

    # ------------------------------------------------------------------
    # Overflow: forced reinsert, then split
    # ------------------------------------------------------------------
    def _handle_overflow(
        self, path: List[int], reinserted_levels: Set[int]
    ) -> None:
        depth = len(path) - 1
        while depth >= 0:
            node_id = path[depth]
            node = self._read(node_id)
            if node.n_entries <= self._node_capacity(node_id, node):
                depth -= 1
                continue
            is_root = node_id == self.root_id
            if not is_root and node.level not in reinserted_levels:
                reinserted_levels.add(node.level)
                self._reinsert(path[: depth + 1], reinserted_levels)
                # Reinsertion may have restructured the tree; the path is
                # stale, so stop — any remaining overflow was handled by
                # the recursive inserts.
                return
            self._split(path[: depth + 1], reinserted_levels)
            return
        return

    def _reinsert(self, path: List[int], reinserted_levels: Set[int]) -> None:
        """Forced reinsert of the entries farthest from the node centre."""
        node_id = path[-1]
        node = self._read(node_id)
        center = node.mbr().center
        entry_centers = (node.lows + node.highs) / 2.0
        dist_sq = np.sum((entry_centers - center) ** 2, axis=1)
        p = max(1, int(REINSERT_FRACTION * node.n_entries))
        order = np.argsort(dist_sq)  # close ... far
        keep_idx = order[: node.n_entries - p]
        toss_idx = order[node.n_entries - p:]
        tossed = node.take(toss_idx)
        kept = node.take(keep_idx)
        self._write(node_id, kept)
        self._adjust_upward(path)
        # Close reinsert: nearest removed entries first.
        for low, high, entry_id in tossed.entries():
            self._insert_at_level(
                low, high, entry_id, tossed.level, reinserted_levels
            )

    def _split(self, path: List[int], reinserted_levels: Set[int]) -> None:
        node_id = path[-1]
        node = self._read(node_id)
        group1, group2 = self._split_node(node_id, node)
        metrics.inc("index.splits")
        self._install_split(path, node_id, group1, group2, reinserted_levels)

    def _split_node(self, node_id: int, node: Node) -> "Tuple[Node, Node]":
        """Produce the two halves of an overflowing node (R* topological
        split).  Subclasses (X-tree) override this."""
        idx1, idx2 = self._rstar_split_indices(
            node.lows, node.highs, self._min_for(node)
        )
        return node.take(idx1), node.take(idx2)

    @staticmethod
    def _rstar_split_indices(
        lows: np.ndarray, highs: np.ndarray, min_entries: int
    ) -> "Tuple[np.ndarray, np.ndarray]":
        """R* split: returns the two index groups.

        Axis choice minimises the sum of group margins over all candidate
        distributions; the distribution on that axis minimises overlap
        volume, with total area as the tie-break.
        """
        n, dim = lows.shape
        m = min(min_entries, n // 2)
        m = max(1, m)
        ks = np.arange(m, n - m + 1)  # size of group 1

        best_axis = -1
        best_margin = np.inf
        axis_orders: "List[Tuple[np.ndarray, np.ndarray]]" = []
        for axis in range(dim):
            margin_total = 0.0
            orders = (
                np.argsort(lows[:, axis], kind="stable"),
                np.argsort(highs[:, axis], kind="stable"),
            )
            axis_orders.append(orders)
            for order in orders:
                g1_margin, g2_margin, __, __ = _distribution_stats(
                    lows[order], highs[order], ks
                )
                margin_total += float(np.sum(g1_margin + g2_margin))
            if margin_total < best_margin:
                best_margin = margin_total
                best_axis = axis

        best_score: "Tuple[float, float]" = (np.inf, np.inf)
        best_split: "Optional[Tuple[np.ndarray, int]]" = None
        for order in axis_orders[best_axis]:
            __, __, overlaps, areas = _distribution_stats(
                lows[order], highs[order], ks
            )
            for i, k in enumerate(ks):
                score = (float(overlaps[i]), float(areas[i]))
                if score < best_score:
                    best_score = score
                    best_split = (order, int(k))
        assert best_split is not None
        order, k = best_split
        return order[:k], order[k:]

    def _install_split(
        self,
        path: List[int],
        node_id: int,
        group1: Node,
        group2: Node,
        reinserted_levels: Set[int],
    ) -> None:
        """Replace ``node_id`` by the two split halves and fix the parent."""
        self.pages.write(node_id, group1, n_blocks=self._blocks_for(group1))
        new_id = self.pages.allocate(group2, n_blocks=self._blocks_for(group2))
        mbr1 = group1.mbr()
        mbr2 = group2.mbr()

        if node_id == self.root_id:
            root = Node(
                is_leaf=False,
                level=group1.level + 1,
                lows=np.stack([mbr1.low, mbr2.low]),
                highs=np.stack([mbr1.high, mbr2.high]),
                ids=np.array([node_id, new_id], dtype=np.int64),
            )
            self.root_id = self.pages.allocate(root)
            self.height += 1
            return

        parent_id = path[-2]
        parent = self._read(parent_id)
        idx = parent.find_child(node_id)
        parent.replace_at(idx, mbr1.low, mbr1.high, node_id)
        parent.append(mbr2.low, mbr2.high, new_id)
        self._write(parent_id, parent)
        self._adjust_upward(path[:-1])
        self._handle_overflow(path[:-1], reinserted_levels)

    # ==================================================================
    # Deletion
    # ==================================================================
    def delete(
        self, low: Sequence[float], high: Sequence[float], entry_id: int
    ) -> bool:
        """Delete the exact entry ``(low, high, entry_id)``.

        Returns True if the entry was found.  Underflowing nodes are
        condensed: dissolved and their entries reinserted.
        """
        low_arr = np.asarray(low, dtype=np.float64)
        high_arr = np.asarray(high, dtype=np.float64)
        path = self._find_leaf(self.root_id, low_arr, high_arr, int(entry_id))
        if path is None:
            return False
        leaf_id = path[-1]
        leaf = self._read(leaf_id)
        idx = _find_entry(leaf, low_arr, high_arr, int(entry_id))
        leaf.remove_at(idx)
        self._write(leaf_id, leaf)
        self.n_entries -= 1
        self._condense(path)
        return True

    def _find_leaf(
        self,
        page_id: int,
        low: np.ndarray,
        high: np.ndarray,
        entry_id: int,
    ) -> "Optional[List[int]]":
        node = self._read(page_id)
        if node.is_leaf:
            if _find_entry(node, low, high, entry_id, missing_ok=True) >= 0:
                return [page_id]
            return None
        covers = np.logical_and(
            np.all(node.lows <= low + 1e-12, axis=1),
            np.all(high <= node.highs + 1e-12, axis=1),
        )
        for child_idx in np.flatnonzero(covers):
            sub = self._find_leaf(int(node.ids[child_idx]), low, high, entry_id)
            if sub is not None:
                return [page_id] + sub
        return None

    def _condense(self, path: List[int]) -> None:
        """Condense-tree after a removal: dissolve underfull nodes and
        reinsert their entries, then shrink ancestor MBRs."""
        orphans: "List[Node]" = []
        for depth in range(len(path) - 1, 0, -1):
            node_id = path[depth]
            node = self._read(node_id)
            if node.n_entries < self._min_for(node):
                parent_id = path[depth - 1]
                parent = self._read(parent_id)
                parent.remove_at(parent.find_child(node_id))
                self._write(parent_id, parent)
                self.pages.free(node_id)
                if node.n_entries:
                    orphans.append(node)
            else:
                self._adjust_upward(path[: depth + 1])
        self._adjust_upward([path[0]])

        for node in orphans:
            reinserted: Set[int] = set()
            for low, high, entry_id in node.entries():
                self._insert_at_level(low, high, entry_id, node.level, reinserted)

        # Shrink the tree if the root lost all but one child.
        root = self._read(self.root_id)
        while not root.is_leaf and root.n_entries == 1:
            old_root = self.root_id
            self.root_id = int(root.ids[0])
            self.pages.free(old_root)
            self.height -= 1
            root = self._read(self.root_id)

    def update_entry(
        self,
        old_low: Sequence[float],
        old_high: Sequence[float],
        new_low: Sequence[float],
        new_high: Sequence[float],
        entry_id: int,
    ) -> None:
        """Replace an entry's rectangle (delete + reinsert)."""
        if not self.delete(old_low, old_high, entry_id):
            raise KeyError(f"entry {entry_id} with the given bounds not found")
        self.insert(new_low, new_high, entry_id)

    # ==================================================================
    # Queries
    # ==================================================================
    def point_query(
        self, point: Sequence[float], atol: float = 1e-12
    ) -> np.ndarray:
        """Ids of all entries whose rectangle contains ``point``.

        ``atol`` loosens the containment test; the NN-cell index queries
        with a small positive tolerance to absorb LP roundoff on cell
        boundaries.
        """
        q = np.asarray(point, dtype=np.float64)
        result: "List[int]" = []
        stack = [self.root_id]
        while stack:
            node = self._read(stack.pop())
            mask = np.logical_and(
                np.all(node.lows <= q + atol, axis=1),
                np.all(q <= node.highs + atol, axis=1),
            )
            hits = np.flatnonzero(mask)
            if node.is_leaf:
                result.extend(int(node.ids[i]) for i in hits)
            else:
                stack.extend(int(node.ids[i]) for i in hits)
        return np.asarray(result, dtype=np.int64)

    def range_query(
        self, low: Sequence[float], high: Sequence[float]
    ) -> np.ndarray:
        """Ids of all entries intersecting the query rectangle."""
        rect = MBR(low, high)
        result: "List[int]" = []
        stack = [self.root_id]
        while stack:
            node = self._read(stack.pop())
            mask = np.logical_and(
                np.all(node.lows <= rect.high + 1e-12, axis=1),
                np.all(rect.low <= node.highs + 1e-12, axis=1),
            )
            hits = np.flatnonzero(mask)
            if node.is_leaf:
                result.extend(int(node.ids[i]) for i in hits)
            else:
                stack.extend(int(node.ids[i]) for i in hits)
        return np.asarray(result, dtype=np.int64)

    def sphere_query(self, center: Sequence[float], radius: float) -> np.ndarray:
        """Ids of all entries whose rectangle intersects ``B(center, r)``."""
        return self.sphere_query_blocks(center, radius)[0]

    def sphere_query_blocks(
        self, center: Sequence[float], radius: float
    ) -> "Tuple[np.ndarray, int]":
        """:meth:`sphere_query` plus the blocks it read, counted by the
        caller's walk rather than from the shared access counters."""
        c = np.asarray(center, dtype=np.float64)
        r_sq = radius * radius + 1e-12
        result: "List[int]" = []
        blocks = 0
        stack = [self.root_id]
        while stack:
            page_id = stack.pop()
            node = self._read(page_id)
            blocks += self.pages.n_blocks_of(page_id)
            nearest = np.clip(c, node.lows, node.highs)
            diff = nearest - c
            mask = np.einsum("ij,ij->i", diff, diff) <= r_sq
            hits = np.flatnonzero(mask)
            if node.is_leaf:
                result.extend(int(node.ids[i]) for i in hits)
            else:
                stack.extend(int(node.ids[i]) for i in hits)
        return np.asarray(result, dtype=np.int64), blocks

    def leaves_containing(self, point: Sequence[float]) -> "List[Node]":
        """Leaf nodes whose *region* (node MBR) contains ``point`` — the
        paper's *Point* candidate selector reads all points stored on such
        pages."""
        return self._leaves_matching(
            lambda node_mbr: node_mbr.contains_point(point, atol=1e-12)
        )

    def leaves_intersecting_sphere(
        self, center: Sequence[float], radius: float
    ) -> "List[Node]":
        """Leaf nodes whose region intersects the sphere — the paper's
        *Sphere* candidate selector."""
        return self._leaves_matching(
            lambda node_mbr: node_mbr.intersects_sphere(center, radius)
        )

    def _leaves_matching(self, predicate: "Callable[[MBR], bool]") -> "List[Node]":
        result: "List[Node]" = []
        root = self._read(self.root_id)
        if root.n_entries == 0:
            return result
        stack = [self.root_id]
        while stack:
            node = self._read(stack.pop())
            if node.n_entries and not predicate(node.mbr()):
                continue
            if node.is_leaf:
                result.append(node)
            else:
                stack.extend(int(i) for i in node.ids)
        return result

    # ==================================================================
    # Introspection / validation
    # ==================================================================
    def __len__(self) -> int:
        return self.n_entries

    def iter_leaf_entries(self) -> "Iterator[Tuple[np.ndarray, np.ndarray, int]]":
        """All leaf entries (validation / rebuild helper)."""
        stack = [self.root_id]
        while stack:
            node = self._read(stack.pop())
            if node.is_leaf:
                yield from node.entries()
            else:
                stack.extend(int(i) for i in node.ids)

    def iter_nodes(self) -> "Iterator[Tuple[int, Node]]":
        """Iterate ``(page_id, node)`` over the whole tree."""
        stack = [self.root_id]
        while stack:
            page_id = stack.pop()
            node = self._read(page_id)
            yield page_id, node
            if not node.is_leaf:
                stack.extend(int(i) for i in node.ids)

    def validate(self) -> None:
        """Raise AssertionError on any structural invariant violation."""
        root = self._read(self.root_id)
        assert root.level == self.height - 1, "root level != height - 1"
        total = self._validate_node(self.root_id, is_root=True)
        assert total == self.n_entries, (
            f"leaf entry count {total} != recorded {self.n_entries}"
        )

    def _validate_node(self, page_id: int, is_root: bool) -> int:
        node = self._read(page_id)
        assert node.n_entries <= self._node_capacity(page_id, node), (
            "node overflow"
        )
        if not is_root:
            assert node.n_entries >= self._min_for(node), "node underflow"
        elif not node.is_leaf:
            assert node.n_entries >= 2, "directory root with < 2 children"
        if node.is_leaf:
            assert node.level == 0, "leaf at non-zero level"
            return node.n_entries
        total = 0
        for low, high, child_id in node.entries():
            child = self._read(child_id)
            assert child.level == node.level - 1, "child level mismatch"
            child_mbr = child.mbr()
            assert np.all(low <= child_mbr.low + 1e-9), "parent MBR too tight"
            assert np.all(child_mbr.high <= high + 1e-9), "parent MBR too tight"
            assert np.allclose(low, child_mbr.low) and np.allclose(
                high, child_mbr.high
            ), "parent MBR not tight"
            total += self._validate_node(child_id, is_root=False)
        return total


# ----------------------------------------------------------------------
# Split helpers
# ----------------------------------------------------------------------

def _distribution_stats(
    sorted_lows: np.ndarray, sorted_highs: np.ndarray, ks: np.ndarray
) -> "Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Margins, overlap volumes and total areas of every split distribution.

    ``ks`` are candidate sizes of the first group over entries already in
    sort order.  Prefix/suffix cumulative bounds make this O(n d).
    """
    fwd_low = np.minimum.accumulate(sorted_lows, axis=0)
    fwd_high = np.maximum.accumulate(sorted_highs, axis=0)
    bwd_low = np.minimum.accumulate(sorted_lows[::-1], axis=0)[::-1]
    bwd_high = np.maximum.accumulate(sorted_highs[::-1], axis=0)[::-1]

    g1_low = fwd_low[ks - 1]
    g1_high = fwd_high[ks - 1]
    g2_low = bwd_low[ks]
    g2_high = bwd_high[ks]

    g1_margin = np.sum(g1_high - g1_low, axis=1)
    g2_margin = np.sum(g2_high - g2_low, axis=1)
    ov_sides = np.minimum(g1_high, g2_high) - np.maximum(g1_low, g2_low)
    overlaps = np.prod(np.clip(ov_sides, 0.0, None), axis=1)
    areas = np.prod(g1_high - g1_low, axis=1) + np.prod(g2_high - g2_low, axis=1)
    return g1_margin, g2_margin, overlaps, areas


def _find_entry(
    node: Node,
    low: np.ndarray,
    high: np.ndarray,
    entry_id: int,
    missing_ok: bool = False,
) -> int:
    matches = np.flatnonzero(
        (node.ids == entry_id)
        & np.all(np.abs(node.lows - low) <= 1e-12, axis=1)
        & np.all(np.abs(node.highs - high) <= 1e-12, axis=1)
    )
    if matches.size == 0:
        if missing_ok:
            return -1
        raise KeyError(f"entry {entry_id} not present in node")
    return int(matches[0])
