"""Order-k NN-cells: the paper's future-work extension.

The paper closes with "our future research interests are focussed on the
application of our technique to k-nearest neighbor search".  The natural
generalisation is the *order-k Voronoi diagram* (Definition 1 with
``m = k``): the order-k cell of a k-subset ``A`` is the region whose k
nearest neighbors are exactly the members of ``A``,

    ``cell(A) = { x in DS | for all a in A, b not in A:
                            d(x, a) <= d(x, b) }``

— again an intersection of bisector half-spaces, so the whole machinery
(LP-based MBR approximation, indexing, point query) carries over.

The hard part is enumerating the k-subsets with non-empty cells without
trying all ``C(N, k)``.  :func:`enumerate_order_k_cells` does a breadth-
first walk of the order-k Voronoi *adjacency graph*: starting from the
k-NN set of every data point (each is non-empty by construction — the
point itself lies in it), a cell's neighbors are reached by swapping one
inside point against one outside point across a *supporting facet* of the
cell.  Facets are detected by LP: bisector ``(a, b)`` supports a facet iff
maximising its left-hand side over the cell attains the bound.  Because
the order-k diagram's adjacency graph is connected, the BFS enumerates
every non-empty cell.

:class:`OrderKIndex` wraps the enumeration into a k-NN index with the
same query structure as the order-1 index: a point query on the cell MBRs
followed by verification over the candidate k-sets.  Complexity grows
steeply with ``k`` and ``N`` — this is a faithful prototype of the
paper's outlook, sized for the example workloads, not for bulk data.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

import numpy as np

from ..geometry.distance import distances_to_points
from ..geometry.halfspace import HalfspaceSystem
from ..geometry.mbr import MBR
from ..index.bulk import bulk_load
from ..index.rstar import RStarTree
from ..index.xtree import XTree
from ..lp.interface import maximize
from ..lp.simplex import SimplexState
from .approximation import approximate_cell

__all__ = ["OrderKCell", "OrderKIndex", "enumerate_order_k_cells"]

_FACET_TOL = 1e-7


@dataclass(frozen=True)
class OrderKCell:
    """One non-empty order-k cell: its member set and MBR approximation."""

    members: "FrozenSet[int]"
    mbr: MBR


def _order_k_system(
    points: np.ndarray, members: "FrozenSet[int]", box: MBR
) -> "Tuple[HalfspaceSystem, np.ndarray]":
    """Bisector system of an order-k cell: every (inside, outside) pair."""
    n = points.shape[0]
    inside = sorted(members)
    outside = [j for j in range(n) if j not in members]
    rows_a: "List[np.ndarray]" = []
    rows_b: "List[float]" = []
    pair_index: "List[Tuple[int, int]]" = []
    for a_id in inside:
        pa = points[a_id]
        diff = 2.0 * (points[outside] - pa)
        bounds = (
            np.einsum("ij,ij->i", points[outside], points[outside])
            - float(np.dot(pa, pa))
        )
        rows_a.append(diff)
        rows_b.append(bounds)
        pair_index.extend((a_id, b_id) for b_id in outside)
    a_mat = np.vstack(rows_a) if rows_a else np.zeros((0, points.shape[1]))
    b_vec = np.concatenate(rows_b) if rows_b else np.zeros(0)
    system = HalfspaceSystem(a_mat, b_vec, box)
    # The pair index travels beside the system (HalfspaceSystem.point_ids
    # holds one id per row; order-k rows are identified by (in, out)).
    system_pairs = np.asarray(pair_index, dtype=np.int64).reshape(-1, 2)
    return system, system_pairs


def _supporting_pairs(
    system: HalfspaceSystem, pairs: np.ndarray
) -> "List[Tuple[int, int]]":
    """(inside, outside) pairs whose bisector supports a facet of the cell.

    A constraint row ``a . x <= b`` is *supporting* iff the maximum of
    ``a . x`` over the cell equals ``b`` — an LP per candidate row, all
    over one system, so they share one warm simplex state.  Rows that are
    slack everywhere are skipped cheaply by evaluating the cell's MBR
    corners first.
    """
    supporting: "List[Tuple[int, int]]" = []
    mbr = approximate_cell(system, prune=False)
    if mbr is None:
        return supporting
    low, high = system.box.low, system.box.high
    state = SimplexState(system.a, system.b, low, high)
    for row in range(system.n_constraints):
        a = system.a[row]
        b = float(system.b[row])
        # Quick reject: if even the MBR cannot reach the plane, skip LP.
        best_over_mbr = float(np.dot(np.where(a > 0.0, mbr.high, mbr.low), a))
        if best_over_mbr < b - _FACET_TOL:
            continue
        res = maximize(a, system.a, system.b, low, high, state)
        if res.is_optimal and res.objective >= b - _FACET_TOL:
            supporting.append((int(pairs[row, 0]), int(pairs[row, 1])))
    return supporting


def enumerate_order_k_cells(
    points: np.ndarray,
    k: int,
    box: "MBR | None" = None,
) -> "List[OrderKCell]":
    """All non-empty order-k cells of ``points`` (BFS over facet swaps)."""
    pts = np.asarray(points, dtype=np.float64)
    n, dim = pts.shape
    if not 1 <= k < n:
        raise ValueError("k must satisfy 1 <= k < n")
    if box is None:
        box = MBR.unit_cube(dim)

    seeds: "Set[FrozenSet[int]]" = set()
    for i in range(n):
        dist_sq = distances_to_points(pts[i], pts)
        seeds.add(frozenset(int(j) for j in np.argsort(dist_sq)[:k]))

    visited: "Set[FrozenSet[int]]" = set()
    cells: "List[OrderKCell]" = []
    queue: "deque[FrozenSet[int]]" = deque(seeds)
    visited.update(seeds)
    while queue:
        members = queue.popleft()
        system, pairs = _order_k_system(pts, members, box)
        mbr = approximate_cell(system, prune=False)
        if mbr is None:
            continue  # empty cell reached via an over-eager swap
        cells.append(OrderKCell(members, mbr))
        for inside_id, outside_id in _supporting_pairs(system, pairs):
            neighbor = frozenset(members - {inside_id} | {outside_id})
            if neighbor not in visited:
                visited.add(neighbor)
                queue.append(neighbor)
    return cells


class OrderKIndex:
    """k-NN index over precomputed order-k cells.

    Build enumerates every non-empty order-k cell, approximates it by its
    MBR (exact constraints — the order-1 selector heuristics would apply
    unchanged but are omitted for clarity) and indexes the rectangles.  A
    query point-queries the rectangles and verifies the candidate k-sets
    by actual distances, so answers are exact.
    """

    def __init__(
        self,
        points: np.ndarray,
        k: int,
        index_kind: str = "xtree",
    ):
        self.points = np.asarray(points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[0] < 2:
            raise ValueError("need at least two points")
        self.k = k
        self.dim = self.points.shape[1]
        self.box = MBR.unit_cube(self.dim)
        self.cells = enumerate_order_k_cells(self.points, k, self.box)
        self._member_sets: "List[FrozenSet[int]]" = [
            c.members for c in self.cells
        ]
        tree_cls = XTree if index_kind == "xtree" else RStarTree
        self.tree = tree_cls(self.dim)
        lows = np.stack([c.mbr.low for c in self.cells])
        highs = np.stack([c.mbr.high for c in self.cells])
        bulk_load(self.tree, lows, highs, np.arange(len(self.cells)))

    def k_nearest(
        self, query: Sequence[float]
    ) -> "Tuple[List[int], List[float]]":
        """The exact k nearest neighbors of ``query`` (inside the box)."""
        q = np.asarray(query, dtype=np.float64)
        if not self.box.contains_point(q, atol=1e-9):
            raise ValueError("query lies outside the data space")
        cell_ids = self.tree.point_query(q, atol=1e-9)
        candidate_points: "Set[int]" = set()
        for cell_id in cell_ids:
            candidate_points.update(self._member_sets[int(cell_id)])
        if not candidate_points:  # numerical crack: fall back to all points
            candidate_points = set(range(self.points.shape[0]))
        ids = np.asarray(sorted(candidate_points), dtype=np.int64)
        dist_sq = distances_to_points(q, self.points[ids])
        order = np.argsort(dist_sq)[: self.k]
        return (
            [int(ids[i]) for i in order],
            [float(np.sqrt(dist_sq[i])) for i in order],
        )

    def stats(self) -> "Dict[str, float]":
        """Cell-count / shape diagnostics of the order-k index."""
        return {
            "n_cells": float(len(self.cells)),
            "k": float(self.k),
            "tree_height": float(self.tree.height),
        }
