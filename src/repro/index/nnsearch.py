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
search's page count does not depend on what other threads read.  The
searches themselves, :func:`branch_and_bound` and :func:`best_first`,
read nodes through a reader function, so the NN-cell index runs the same
code over its packed data snapshot (:mod:`repro.index.packed`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, List, Sequence, Tuple

import numpy as np

from ..geometry.distance import mindist_sq_arrays, minmaxdist_sq_arrays
from ..obs import metrics
from ..obs.tracing import span
from .rstar import RStarTree

__all__ = [
    "NNResult",
    "best_first",
    "branch_and_bound",
    "hs_k_nearest",
    "hs_nearest",
    "rkv_nearest",
]


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
    return branch_and_bound(_pages(tree), tree.root_id, query)


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
    return best_first(_pages(tree), tree.root_id, tree.root_id, query, k)


def _pages(tree: RStarTree) -> "Callable[[int], Tuple]":
    """The node reader of ``tree`` (see :func:`branch_and_bound`): a
    node is its page, read through the tree's page manager."""

    def read(page_id: int) -> "Tuple":
        node = tree._read(page_id)
        return (
            node.lows, node.highs, node.ids, node.ids, node.is_leaf,
            tree.pages.n_blocks_of(page_id),
        )

    return read


def branch_and_bound(
    read: "Callable[[Any], Tuple]", root: Any, query: Sequence[float]
) -> NNResult:
    """:func:`rkv_nearest` over any R-tree-family layout.

    ``read(node)`` reads one node and returns ``(lows, highs, ids, keys,
    is_leaf, blocks)``: its ``(n, d)`` entry bounds, its children (above
    the leaves) or entry ids (at them), the children's page ids and the
    blocks the read cost.  Children are visited in MINDIST order;
    MINMAXDIST supplies an upper bound that prunes branches early.
    """
    q = np.asarray(query, dtype=np.float64)
    result = NNResult()
    state = {"best_sq": np.inf, "best_id": -1}

    def visit(node: Any) -> None:
        lows, highs, ids, __, is_leaf, blocks = read(node)
        result.pages += blocks
        metrics.inc("search.node_visits")
        if lows.shape[0] == 0:
            return
        if is_leaf:
            dist_sq = mindist_sq_arrays(q, lows, highs)
            result.distance_computations += lows.shape[0]
            idx = int(np.argmin(dist_sq))
            # Non-strict: the MINMAXDIST bound may already equal the true
            # nearest distance (e.g. a single-entry leaf), and the entry
            # achieving it must still be recorded.
            if dist_sq[idx] <= state["best_sq"]:
                state["best_sq"] = float(dist_sq[idx])
                state["best_id"] = int(ids[idx])
            return
        mindists = mindist_sq_arrays(q, lows, highs)
        minmaxdists = minmaxdist_sq_arrays(q, lows, highs)
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
            visit(int(ids[child_pos]))

    with span("search.rkv") as s:
        visit(root)
        s.set("pages", result.pages)
        s.set("distance_computations", result.distance_computations)
    metrics.inc("search.queries")
    metrics.inc("search.distance_computations", result.distance_computations)
    if state["best_id"] >= 0:
        result.ids = [state["best_id"]]
        result.distances = [float(np.sqrt(state["best_sq"]))]
    return result


def best_first(
    read: "Callable[[Any], Tuple]",
    root: Any,
    root_key: int,
    query: Sequence[float],
    k: int,
) -> NNResult:
    """:func:`hs_k_nearest` over any R-tree-family layout: ``read`` is as
    for :func:`branch_and_bound`, and ``root_key`` is the root's page id.
    A node is queued under its page id, so equidistant nodes open in page
    order whatever their reader calls them."""
    if k < 1:
        raise ValueError("k must be >= 1")
    q = np.asarray(query, dtype=np.float64)
    result = NNResult()
    # Heap items: (mindist, 0, page id, node) for a node, (distance, 1,
    # id) for a data entry.  Distances, not their squares, so that ties
    # are the ties of the reported distances.
    heap: "List[tuple]" = [(0.0, 0, root_key, root)]
    with span("search.hs", k=k) as s:
        while heap and len(result.ids) < k:
            item = heapq.heappop(heap)
            if item[1] == 1:
                result.ids.append(item[2])
                result.distances.append(item[0])
                continue
            lows, highs, ids, keys, is_leaf, blocks = read(item[3])
            result.pages += blocks
            metrics.inc("search.node_visits")
            if lows.shape[0] == 0:
                continue
            dists = np.sqrt(mindist_sq_arrays(q, lows, highs)).tolist()
            if is_leaf:
                result.distance_computations += lows.shape[0]
                for d, entry in zip(dists, ids.tolist()):
                    heapq.heappush(heap, (d, 1, entry))
            else:
                for d, key, child in zip(dists, keys.tolist(), ids.tolist()):
                    heapq.heappush(heap, (d, 0, key, child))
        s.set("pages", result.pages)
        s.set("distance_computations", result.distance_computations)
    metrics.inc("search.queries")
    metrics.inc("search.distance_computations", result.distance_computations)
    return result
