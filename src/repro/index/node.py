"""Shared node representation for the R-tree family (R*-tree, X-tree).

A node is a flat, vectorised record: ``(n, d)`` arrays of entry MBR bounds
plus an ``(n,)`` id vector.  For directory nodes the ids are child page
ids; for leaves they are object ids (database point ids, or NN-cell owner
ids in the solution-space index).  Nodes live inside
:class:`repro.storage.PageManager` pages so every traversal step is a
counted page access.

Entries are manipulated with copy-on-write style helpers; tree logic never
mutates bound arrays in place, which keeps snapshots (e.g. for forced
reinsert) trivially correct.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ..geometry.mbr import MBR
from ..storage.page import entries_per_page

__all__ = ["MIN_FILL", "Fanout", "Node", "entry_bytes"]

#: Fraction of the maximum fan-out used as the minimum fill grade.
MIN_FILL = 0.4


def entry_bytes(dim: int, id_bytes: int = 8) -> int:
    """On-disk size of one node entry: two float64 bound vectors + an id."""
    return 2 * 8 * dim + id_bytes


class Fanout(NamedTuple):
    """How many entries the nodes of an R-tree-family index hold."""

    max_entries: int
    min_entries: int
    leaf_max_entries: int
    leaf_min_entries: int

    @classmethod
    def of(
        cls,
        dim: int,
        page_size: int,
        leaf_entry_bytes: "int | None" = None,
        max_entries: "int | None" = None,
    ) -> "Fanout":
        """The fan-outs of ``page_size``-byte nodes over ``dim``
        dimensions.

        Directory entries are rectangles (:func:`entry_bytes`), unless
        ``max_entries`` fixes their count; ``leaf_entry_bytes`` sizes a
        leaf entry's payload and defaults to the directory's fan-out.
        Every node holds at least 4 entries and must keep
        :data:`MIN_FILL` of its maximum, but at least 2.
        """
        if max_entries is None:
            max_entries = entries_per_page(page_size, entry_bytes(dim))
        max_entries = max(4, max_entries)
        if leaf_entry_bytes is None:
            leaf_max = max_entries
        else:
            leaf_max = max(4, entries_per_page(page_size, leaf_entry_bytes))
        return cls(
            max_entries, max(2, int(MIN_FILL * max_entries)),
            leaf_max, max(2, int(MIN_FILL * leaf_max)),
        )


class Node:
    """One index node (a page payload)."""

    __slots__ = ("is_leaf", "level", "lows", "highs", "ids")

    def __init__(
        self,
        is_leaf: bool,
        level: int,
        lows: np.ndarray,
        highs: np.ndarray,
        ids: np.ndarray,
    ):
        self.is_leaf = is_leaf
        self.level = level  # 0 for leaves, grows toward the root
        self.lows = np.asarray(lows, dtype=np.float64)
        self.highs = np.asarray(highs, dtype=np.float64)
        self.ids = np.asarray(ids, dtype=np.int64)
        if self.lows.shape != self.highs.shape:
            raise ValueError("entry bound arrays must have equal shapes")
        if self.lows.ndim != 2:
            raise ValueError("entry bounds must be (n, d) arrays")
        if self.ids.shape != (self.lows.shape[0],):
            raise ValueError("ids must have one entry per bound row")

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, is_leaf: bool, level: int, dim: int) -> "Node":
        return cls(
            is_leaf,
            level,
            np.zeros((0, dim)),
            np.zeros((0, dim)),
            np.zeros(0, dtype=np.int64),
        )

    @property
    def n_entries(self) -> int:
        return self.lows.shape[0]

    @property
    def dim(self) -> int:
        return self.lows.shape[1]

    def mbr(self) -> MBR:
        """Tight bounding rectangle over all entries."""
        if self.n_entries == 0:
            raise ValueError("empty node has no MBR")
        return MBR(self.lows.min(axis=0), self.highs.max(axis=0))

    # ------------------------------------------------------------------
    # Entry manipulation (returns new arrays; the node object is reused)
    # ------------------------------------------------------------------
    def append(self, low: np.ndarray, high: np.ndarray, entry_id: int) -> None:
        """Add one entry at the end."""
        self.lows = np.vstack([self.lows, np.asarray(low, dtype=np.float64)])
        self.highs = np.vstack([self.highs, np.asarray(high, dtype=np.float64)])
        self.ids = np.append(self.ids, np.int64(entry_id))

    def extend(
        self, lows: np.ndarray, highs: np.ndarray, ids: Sequence[int]
    ) -> None:
        """Add several entries at once."""
        self.lows = np.vstack([self.lows, np.asarray(lows, dtype=np.float64)])
        self.highs = np.vstack([self.highs, np.asarray(highs, dtype=np.float64)])
        self.ids = np.concatenate([self.ids, np.asarray(ids, dtype=np.int64)])

    def take(self, indices: "np.ndarray | Sequence[int]") -> "Node":
        """New node with the selected entries (same leaf-ness and level)."""
        idx = np.asarray(indices, dtype=np.int64)
        return Node(
            self.is_leaf,
            self.level,
            self.lows[idx].copy(),
            self.highs[idx].copy(),
            self.ids[idx].copy(),
        )

    def remove_at(self, index: int) -> None:
        """Delete the entry at position ``index``."""
        keep = np.arange(self.n_entries) != index
        self.lows = self.lows[keep]
        self.highs = self.highs[keep]
        self.ids = self.ids[keep]

    def replace_at(
        self, index: int, low: np.ndarray, high: np.ndarray, entry_id: int
    ) -> None:
        """Overwrite the entry at ``index`` with new bounds and id."""
        if not 0 <= index < self.n_entries:
            raise IndexError(f"entry index {index} out of range")
        lows = self.lows.copy()
        highs = self.highs.copy()
        lows[index] = low
        highs[index] = high
        self.lows = lows
        self.highs = highs
        ids = self.ids.copy()
        ids[index] = entry_id
        self.ids = ids

    def find_child(self, child_id: int) -> int:
        """Index of the entry pointing at ``child_id`` (directory nodes)."""
        matches = np.flatnonzero(self.ids == child_id)
        if matches.size == 0:
            raise KeyError(f"child {child_id} not found in node")
        return int(matches[0])

    def entries(self) -> "Iterable[tuple[np.ndarray, np.ndarray, int]]":
        """Iterate ``(low, high, id)`` triples."""
        for i in range(self.n_entries):
            yield self.lows[i], self.highs[i], int(self.ids[i])

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "dir"
        return f"Node({kind}, level={self.level}, n_entries={self.n_entries})"
