"""The four candidate-selection strategies of Section 2 / Figure 3.

Computing a cell approximation with *all* ``N - 1`` bisector constraints
(**Correct**) makes every LP cost ``O(N d^2)`` — prohibitive for large
databases.  The paper's key engineering observation is that only a few
close points actually bound a NN-cell, so it restricts the constraint set:

* **Point** — all points stored on data pages whose page region contains
  the centre point ("all points of which the rectangle in the index
  contains the point");
* **Sphere** — all points on data pages whose page region intersects a
  heuristic sphere around the centre ("... intersects the sphere"); the
  paper reports ``radius = 2 * (1/n)^(1/d)`` — twice the uniform NN
  distance scale — as a good heuristic (the factor is configurable);
* **NN-Direction** — a constant-size set: the nearest neighbor in each of
  the ``2d`` axis directions plus, per direction, the point with the
  smallest angular deviation from the axis (at most ``4d`` points, making
  the LP cost ``O(d * d!)``-style constant in ``N``).

Lemma 1 (tested in ``tests/core/test_lemma1.py``): every strategy yields
an approximation containing the Correct one, so none induces false
dismissals.

A selector is bound to one version of the point set: the points, which
of them are live and the data snapshot that packs the live ones
(:mod:`repro.index.packed`).  A build makes one; a write makes one over
the version it publishes.  ``candidates(i)`` returns opponent ids for
database point ``i`` and ``candidates_for_point(p)`` those for any
centre.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..geometry.distance import distances_to_points
from ..index.packed import (
    PackedTree,
    leaves_containing,
    leaves_intersecting_sphere,
)

__all__ = [
    "SelectorKind",
    "SelectorParams",
    "CandidateSelector",
    "sphere_radius",
]


class SelectorKind(enum.Enum):
    """Which constraint-selection algorithm to use (Figure 3)."""

    CORRECT = "correct"
    POINT = "point"
    SPHERE = "sphere"
    NN_DIRECTION = "nn-direction"


@dataclass(frozen=True)
class SelectorParams:
    """Tuning knobs of the optimised selectors.

    ``sphere_radius_factor`` scales the Sphere heuristic radius
    ``factor * (1/n)^(1/d)``; the paper's reported value corresponds to
    ``2.0``.  ``min_candidates`` guards degenerate cases: whenever an
    optimised selector returns fewer opponents, it is topped up with the
    globally nearest points so every cell stays bounded by at least one
    bisector (still a subset-free superset approximation by Lemma 1 —
    adding constraints can only be *closer* to correct).
    """

    sphere_radius_factor: float = 2.0
    min_candidates: int = 1


def sphere_radius(n: int, dim: int, factor: float = 2.0) -> float:
    """The Sphere selector's heuristic radius ``factor * (1/n)^(1/d)``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return factor * (1.0 / n) ** (1.0 / dim)


class CandidateSelector:
    """Resolves the opponent set used to approximate each NN-cell."""

    def __init__(
        self,
        points: np.ndarray,
        data: "PackedTree | None",
        kind: SelectorKind,
        params: "SelectorParams | None" = None,
        active: "np.ndarray | None" = None,
        chaos=None,
    ):
        """``data`` is the data snapshot of the points ``active`` marks
        live (every point, by default); the Point and Sphere selectors
        search it, each node read through the ``chaos`` hook."""
        self._points = np.asarray(points, dtype=np.float64)
        if self._points.ndim != 2:
            raise ValueError("points must be an (n, d) array")
        if kind in (SelectorKind.POINT, SelectorKind.SPHERE) and data is None:
            raise ValueError(f"{kind.value} selector requires a data index")
        self._data = data
        self._chaos = chaos
        self.kind = kind
        self.params = params or SelectorParams()
        if active is None:
            active = np.ones(self._points.shape[0], dtype=bool)
        self._active = active

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return int(np.sum(self._active))

    @property
    def dim(self) -> int:
        return self._points.shape[1]

    # ------------------------------------------------------------------
    def candidates(self, center_id: int) -> np.ndarray:
        """Opponent ids for database point ``center_id``."""
        return self.candidates_for_point(
            self._points[center_id], exclude=center_id
        )

    def candidates_for_point(
        self, center: Sequence[float], exclude: int = -1
    ) -> np.ndarray:
        """Opponent ids for an arbitrary centre (insert path)."""
        center = np.asarray(center, dtype=np.float64)
        if self.kind is SelectorKind.CORRECT:
            ids = np.flatnonzero(self._active)
        elif self.kind is SelectorKind.POINT:
            ids = self._point_query_ids(center)
        elif self.kind is SelectorKind.SPHERE:
            ids = self._sphere_query_ids(center)
        else:
            ids = self._nn_direction_ids(center, exclude)
        ids = ids[(ids != exclude) & self._active[ids]]
        ids = np.unique(ids)
        return self._ensure_minimum(center, ids, exclude)

    # ------------------------------------------------------------------
    # Strategy implementations
    # ------------------------------------------------------------------
    def _point_query_ids(self, center: np.ndarray) -> np.ndarray:
        return leaves_containing(self._data, center, self._chaos)

    def _sphere_query_ids(self, center: np.ndarray) -> np.ndarray:
        radius = sphere_radius(
            max(self.n_points, 1), self.dim, self.params.sphere_radius_factor
        )
        return leaves_intersecting_sphere(
            self._data, center, radius, self._chaos
        )

    def _nn_direction_ids(self, center: np.ndarray, exclude: int) -> np.ndarray:
        """2d directional nearest neighbors + 2d minimal-axis-deviation
        points (NNDimQuery and NNAxesQuery in the paper's Figure 3)."""
        active_ids = np.flatnonzero(self._active)
        if exclude >= 0:
            active_ids = active_ids[active_ids != exclude]
        if active_ids.size == 0:
            return active_ids
        pts = self._points[active_ids]
        diff = pts - center
        dist_sq = np.einsum("ij,ij->i", diff, diff)
        # Exact duplicates of the centre bound the cell to a point; they
        # carry no direction, so handle them via the minimum top-up.
        nonzero = dist_sq > 0.0
        chosen: "List[int]" = []
        if np.any(nonzero):
            sub_ids = active_ids[nonzero]
            sub_diff = diff[nonzero]
            sub_dist = dist_sq[nonzero]
            norms = np.sqrt(sub_dist)
            for axis in range(self.dim):
                coords = sub_diff[:, axis]
                for sign in (1.0, -1.0):
                    side = sign * coords > 0.0
                    if not np.any(side):
                        continue
                    side_idx = np.flatnonzero(side)
                    # Nearest neighbor within the directional half-space.
                    nearest = side_idx[np.argmin(sub_dist[side_idx])]
                    chosen.append(int(sub_ids[nearest]))
                    # Smallest deviation from the axis: maximal cosine
                    # between (Q - P) and the signed axis direction.
                    cosines = sign * coords[side_idx] / norms[side_idx]
                    straightest = side_idx[np.argmax(cosines)]
                    chosen.append(int(sub_ids[straightest]))
        return np.asarray(chosen, dtype=np.int64)

    def _ensure_minimum(
        self, center: np.ndarray, ids: np.ndarray, exclude: int
    ) -> np.ndarray:
        """Top up under-sized candidate sets with global nearest points."""
        needed = self.params.min_candidates - ids.shape[0]
        available = self.n_points - (1 if exclude >= 0 else 0)
        if needed <= 0 or available <= ids.shape[0]:
            return ids
        active_ids = np.flatnonzero(self._active)
        if exclude >= 0:
            active_ids = active_ids[active_ids != exclude]
        pool = np.setdiff1d(active_ids, ids, assume_unique=False)
        if pool.size == 0:
            return ids
        dist_sq = distances_to_points(center, self._points[pool])
        extra = pool[np.argsort(dist_sq)[:needed]]
        return np.union1d(ids, extra)
