"""Weighted-metric NN-cell search (adaptable similarity extension).

The paper's group's companion work (Seidl & Kriegel, "Efficient
User-Adaptable Similarity Search") motivates *weighted* Euclidean
metrics: users re-weight feature dimensions to express what "similar"
means.  The NN-cell approach extends directly — the bisector of two
points under ``d_W(x, y)^2 = sum_i w_i (x_i - y_i)^2`` is still a
hyperplane, so cells remain convex polytopes, the LP machinery is
untouched, and Lemmas 1 and 2 hold verbatim.

:class:`WeightedNNCellIndex` is a compact static index for a fixed weight
vector: it precomputes the weighted cells (with a weighted k-nearest
constraint subset for speed — a superset approximation by Lemma 1, so
exactness is preserved), indexes the rectangles in an X-tree, and
answers queries by point query + weighted verification.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..geometry.halfspace import HalfspaceSystem, bisectors_from_points
from ..geometry.mbr import MBR
from ..index.bulk import bulk_load
from ..index.xtree import XTree
from .approximation import approximate_cell

__all__ = ["WeightedNNCellIndex", "weighted_distances"]


def weighted_distances(
    query: Sequence[float], points: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Squared weighted distances from ``query`` to each row."""
    q = np.asarray(query, dtype=np.float64)
    diff = np.asarray(points, dtype=np.float64) - q
    return (diff * diff) @ np.asarray(weights, dtype=np.float64)


class WeightedNNCellIndex:
    """Solution-space NN index under a per-dimension weighted metric."""

    def __init__(
        self,
        points: np.ndarray,
        weights: Sequence[float],
        max_constraints: "int | None" = None,
    ):
        """``max_constraints`` bounds the opponents per cell (weighted
        nearest first); ``None`` uses all of them (the Correct strategy).
        Any subset yields a superset approximation, so queries stay exact.
        """
        self.points = np.asarray(points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        n, dim = self.points.shape
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.shape != (dim,) or np.any(self.weights <= 0.0):
            raise ValueError("weights must be positive, one per dimension")
        self.dim = dim
        self.box = MBR.unit_cube(dim)
        if not all(self.box.contains_point(p, atol=1e-12) for p in self.points):
            raise ValueError("all points must lie inside the unit cube")

        self.tree = XTree(dim, leaf_entry_bytes=3 * 8 * dim + 8)
        lows, highs, owners = [], [], []
        for center in range(n):
            mbr = self._cell_mbr(center, max_constraints)
            lows.append(mbr.low)
            highs.append(mbr.high)
            owners.append(center)
        if n > 1:
            bulk_load(self.tree, np.stack(lows), np.stack(highs), owners)
        else:
            self.tree.insert(lows[0], highs[0], owners[0])

    def _cell_mbr(self, center: int, max_constraints: "int | None") -> MBR:
        others = np.delete(np.arange(self.points.shape[0]), center)
        if max_constraints is not None and others.size > max_constraints:
            dist = weighted_distances(
                self.points[center], self.points[others], self.weights
            )
            others = others[np.argsort(dist)[:max_constraints]]
        a_mat, b_vec = bisectors_from_points(
            self.points[center], self.points[others], self.weights
        )
        system = HalfspaceSystem(a_mat, b_vec, self.box, others)
        mbr = approximate_cell(system, center=self.points[center])
        assert mbr is not None  # the centre is always feasible
        return mbr

    def nearest(self, query: Sequence[float]) -> "Tuple[int, float]":
        """Exact weighted nearest neighbor: ``(point_id, distance)``."""
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ValueError(f"query must be a {self.dim}-vector")
        if not self.box.contains_point(q, atol=1e-9):
            raise ValueError("query lies outside the data space")
        candidates = np.unique(self.tree.point_query(q, atol=1e-9))
        if candidates.size == 0:  # numeric crack: full verification
            candidates = np.arange(self.points.shape[0])
        dist_sq = weighted_distances(q, self.points[candidates], self.weights)
        best = int(np.argmin(dist_sq))
        return int(candidates[best]), float(np.sqrt(dist_sq[best]))
