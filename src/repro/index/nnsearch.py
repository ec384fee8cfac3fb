"""Nearest-neighbor search on R-tree-family indexes.

Two classic algorithms, both benchmarked by the paper as the state of the
art it improves on:

* :func:`rkv_nearest` — the depth-first branch-and-bound of Roussopoulos,
  Kelley & Vincent (SIGMOD 1995).  Children are visited in MINDIST order;
  MINMAXDIST supplies an upper bound that prunes branches early.  The
  paper notes that the required *sorting of the nodes according to the
  min-max distance* is what makes the X-tree's NN query CPU-heavy — this
  implementation reproduces that cost profile.

* :func:`hs_nearest` — the best-first incremental algorithm of Hjaltason
  & Samet (SSD 1995), driven by a global priority queue on MINDIST.  It
  is I/O-optimal and generalises directly to k-NN / ranking queries.

Both operate on any :class:`repro.index.rstar.RStarTree` (hence also the
X-tree) whose leaf entries are data points stored as degenerate
rectangles, and report the page accesses and distance computations they
performed.  Each counts the blocks of the nodes it reads itself, so a
search's page count does not depend on what other threads read.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from ..geometry.distance import mindist_sq_arrays, minmaxdist_sq_arrays
from ..obs import metrics
from ..obs.tracing import span
from .rstar import RStarTree

__all__ = ["NNResult", "rkv_nearest", "hs_nearest", "hs_k_nearest"]


@dataclass
class NNResult:
    """Outcome of a (k-)NN query on an index.

    ``ids``/``distances`` are ordered by increasing distance.  ``pages``
    counts logical page (block) reads, ``distance_computations`` counts
    point-distance evaluations — the two axes of Figure 9 of the paper.
    """

    ids: List[int] = field(default_factory=list)
    distances: List[float] = field(default_factory=list)
    pages: int = 0
    distance_computations: int = 0

    @property
    def nearest_id(self) -> int:
        if not self.ids:
            raise ValueError("query produced no result (empty index?)")
        return self.ids[0]

    @property
    def nearest_distance(self) -> float:
        if not self.distances:
            raise ValueError("query produced no result (empty index?)")
        return self.distances[0]


def rkv_nearest(tree: RStarTree, query: Sequence[float]) -> NNResult:
    """Branch-and-bound nearest neighbor (Roussopoulos et al., 1995)."""
    q = np.asarray(query, dtype=np.float64)
    result = NNResult()
    state = {"best_sq": np.inf, "best_id": -1}

    def visit(page_id: int) -> None:
        node = tree._read(page_id)
        result.pages += tree.pages.n_blocks_of(page_id)
        metrics.inc("search.node_visits")
        if node.n_entries == 0:
            return
        if node.is_leaf:
            dist_sq = mindist_sq_arrays(q, node.lows, node.highs)
            result.distance_computations += node.n_entries
            idx = int(np.argmin(dist_sq))
            # Non-strict: the MINMAXDIST bound may already equal the true
            # nearest distance (e.g. a single-entry leaf), and the entry
            # achieving it must still be recorded.
            if dist_sq[idx] <= state["best_sq"]:
                state["best_sq"] = float(dist_sq[idx])
                state["best_id"] = int(node.ids[idx])
            return
        mindists = mindist_sq_arrays(q, node.lows, node.highs)
        minmaxdists = minmaxdist_sq_arrays(q, node.lows, node.highs)
        # MINMAXDIST guarantees an object within that distance, so it
        # tightens the global upper bound before any child is expanded.
        # Relative epsilon slack: the bound and the later exact distance
        # are computed by different float expressions, and the guaranteed
        # object must not be rejected by a last-ulp difference.
        best_upper = float(np.min(minmaxdists))
        best_upper += 1e-12 * (1.0 + best_upper)
        if best_upper < state["best_sq"]:
            state["best_sq"] = best_upper
            # No id yet: the guaranteed object is discovered on descent.
        order = np.argsort(mindists)
        for child_pos in order:
            if mindists[child_pos] > state["best_sq"] + 1e-12:
                break  # sorted: every later child is pruned too
            visit(int(node.ids[child_pos]))

    with span("search.rkv") as s:
        visit(tree.root_id)
        s.set("pages", result.pages)
        s.set("distance_computations", result.distance_computations)
    metrics.inc("search.queries")
    metrics.inc("search.distance_computations", result.distance_computations)
    if state["best_id"] >= 0:
        result.ids = [state["best_id"]]
        result.distances = [float(np.sqrt(state["best_sq"]))]
    return result


def hs_nearest(tree: RStarTree, query: Sequence[float]) -> NNResult:
    """Best-first nearest neighbor (Hjaltason & Samet, 1995)."""
    return hs_k_nearest(tree, query, k=1)


def hs_k_nearest(tree: RStarTree, query: Sequence[float], k: int) -> NNResult:
    """Best-first k-nearest neighbors on a global MINDIST priority queue.

    The answer is the ``k`` smallest entries by ``(distance, id)``: the
    queue orders by distance, then nodes before entries, then id, so an
    entry leaves it only after every node that could hold one as close
    has been opened.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q = np.asarray(query, dtype=np.float64)
    result = NNResult()
    # Heap items: (mindist, kind, payload); kind 0 = node page, kind 1 =
    # data entry.  Distances, not their squares, so that ties are the
    # ties of the reported distances.
    heap: "List[tuple[float, int, int]]" = [(0.0, 0, tree.root_id)]
    with span("search.hs", k=k) as s:
        while heap and len(result.ids) < k:
            dist, kind, payload = heapq.heappop(heap)
            if kind == 1:
                result.ids.append(payload)
                result.distances.append(dist)
                continue
            node = tree._read(payload)
            result.pages += tree.pages.n_blocks_of(payload)
            metrics.inc("search.node_visits")
            if node.n_entries == 0:
                continue
            dists = np.sqrt(mindist_sq_arrays(q, node.lows, node.highs))
            if node.is_leaf:
                result.distance_computations += node.n_entries
            child_kind = int(node.is_leaf)
            for d, child in zip(dists.tolist(), node.ids.tolist()):
                heapq.heappush(heap, (d, child_kind, child))
        s.set("pages", result.pages)
        s.set("distance_computations", result.distance_computations)
    metrics.inc("search.queries")
    metrics.inc("search.distance_computations", result.distance_computations)
    return result
