"""The NN-cell index: precomputed solution space for NN search.

This is the paper's contribution.  Build time precomputes, for every
database point, the MBR approximation of its NN-cell (optionally
decomposed) and stores all rectangles in a multidimensional index (the
X-tree by default).  A nearest-neighbor query then degenerates to a *point
query*: fetch the candidate rectangles containing the query point and pick
the closest owner — by Lemmas 1 and 2 the true nearest neighbor is always
among the candidates.

The index is dynamic (Section 2, "the dynamic case"):

* :meth:`insert` — existing cells can only *shrink*.  Affected cells are
  found by a pruned traversal of the solution-space index (a conservative
  superset of the cells the paper finds with its sphere query), their
  systems gain the new point's bisector, and they are re-approximated.
* :meth:`delete` — cells whose constraint system referenced the removed
  point can only *grow*; they are recomputed from fresh candidate sets
  (the approach Roos' dynamic Voronoi algorithms make exact; recomputing
  the affected approximations preserves the superset guarantee).

Queries that fall outside the data space — where NN-cells are undefined —
fall back to branch-and-bound search on the data index and are flagged in
the returned :class:`QueryInfo`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..geometry.distance import distances_to_points
from ..geometry.halfspace import HalfspaceSystem, bisector, box_inside_halfspace
from ..geometry.mbr import MBR
from ..index.bulk import bulk_load
from ..index.nnsearch import hs_k_nearest, rkv_nearest
from ..index.rstar import RStarTree
from ..index.xtree import XTree
from ..obs import analytics, metrics, workload
from ..obs.tracing import span
from ..storage.page import DEFAULT_PAGE_SIZE
from .approximation import approximate_cell
from .candidates import CandidateSelector, SelectorKind, SelectorParams
from .constraints import cell_system
from .decomposition import DecompositionConfig, decompose_cell

__all__ = [
    "BuildConfig",
    "NNCellIndex",
    "QueryExplain",
    "QueryInfo",
    "approximate_system",
    "compute_cell",
    "fallback_reason",
    "load_data_tree",
    "make_tree",
]


@dataclass(frozen=True)
class BuildConfig:
    """Construction parameters of an :class:`NNCellIndex`.

    The defaults mirror the paper's recommended configuration: Sphere
    candidate selection (the best quality-to-performance ratio for
    moderate dimensionality) with X-tree indexing of the approximations
    and no decomposition; turn ``decompose`` on for sparse or clustered
    data (Section 3 / Figure 13).
    """

    selector: SelectorKind = SelectorKind.SPHERE
    selector_params: SelectorParams = field(default_factory=SelectorParams)
    decompose: bool = False
    decomposition: DecompositionConfig = field(
        default_factory=DecompositionConfig
    )
    index_kind: str = "xtree"  # "xtree" | "rstar"
    page_size: int = DEFAULT_PAGE_SIZE
    cache_pages: int = 0
    bulk: bool = True
    query_atol: float = 1e-9
    data_space: "MBR | None" = None
    #: Cell-construction parallelism (repro.engine): 1 = serial (default),
    #: 0 = one worker per CPU core, N > 1 = exactly N workers.  The built
    #: index is identical for every value — see docs/scaling.md.
    workers: int = 1
    executor: str = "process"  # "process" | "thread"
    build_chunk_size: "int | None" = None  # points per work unit

    def __post_init__(self):
        if self.index_kind not in ("xtree", "rstar"):
            raise ValueError("index_kind must be 'xtree' or 'rstar'")
        if self.query_atol < 0.0:
            raise ValueError("query_atol must be >= 0")
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 means all CPU cores)")
        if self.executor not in ("process", "thread"):
            raise ValueError("executor must be 'process' or 'thread'")
        if self.build_chunk_size is not None and self.build_chunk_size < 1:
            raise ValueError("build_chunk_size must be >= 1")


@dataclass
class QueryInfo:
    """Diagnostics of one :meth:`NNCellIndex.nearest` call."""

    n_candidates: int = 0
    pages: int = 0
    distance_computations: int = 0
    fallback: bool = False  # branch-and-bound fallback was used
    retried_atol: bool = False  # point query repeated with looser tolerance
    #: Sharded serving only: the answer is missing some shards'
    #: candidates (see :mod:`repro.shard.resilience`).  Always ``False``
    #: for an unsharded index, whose answers are complete by definition.
    degraded: bool = False
    #: Shard ids missing from a degraded answer (empty otherwise).
    failed_shards: "Tuple[int, ...]" = ()
    #: Shards that contributed (``None`` outside sharded serving).
    shards_answered: "Optional[int]" = None


def fallback_reason(info: QueryInfo) -> "Optional[str]":
    """Why a query left the cell fast path, or ``None`` if it did not.

    ``"outside_data_space"``: the query point lies where NN-cells are
    undefined; ``"empty_point_query"``: the point query returned no
    candidates even after the loosened-tolerance retry.  Shared by the
    event log and :meth:`NNCellIndex.explain` so both report the same
    vocabulary.
    """
    if not info.fallback:
        return None
    return "empty_point_query" if info.retried_atol else "outside_data_space"


@dataclass
class QueryExplain:
    """Full account of how one query was (or would be) answered.

    Produced by :meth:`NNCellIndex.explain`; the answer fields agree
    bit-for-bit with :meth:`NNCellIndex.nearest` on the same query.
    ``path`` is the route taken:

    * ``"cell"`` — point query on the solution space succeeded directly;
    * ``"cell_retry"`` — succeeded after the loosened-tolerance retry;
    * ``"outside_data_space"`` / ``"empty_point_query"`` — the
      branch-and-bound fallback answered (same vocabulary as
      :func:`fallback_reason`).
    """

    query: np.ndarray
    path: str
    atol: float  # tolerance that produced the final candidate set
    retried_atol: bool
    nearest_id: int
    nearest_distance: float
    #: Leaf rectangles containing the query: ``(owner id, rect)``, in
    #: traversal order; one owner appears once per (decomposed) piece hit.
    rectangles: "List[Tuple[int, MBR]]"
    #: Deduplicated ``(owner id, distance)`` pairs, nearest first.
    candidates: "List[Tuple[int, float]]"
    nodes_visited: int
    pages: int
    #: Sharded serving only: the account is missing some shards (their
    #: rectangles/candidates are absent and the answer may be farther
    #: than the true nearest).  See :mod:`repro.shard.resilience`.
    degraded: bool = False
    failed_shards: "Tuple[int, ...]" = ()
    #: Shards that contributed (``None`` outside sharded serving).
    shards_answered: "Optional[int]" = None

    def as_dict(self) -> "Dict[str, Any]":
        """JSON-ready view (the ``repro explain`` / serve echo payload)."""
        return {
            "query": [float(v) for v in self.query],
            "path": self.path,
            "atol": float(self.atol),
            "retried_atol": self.retried_atol,
            "nearest_id": int(self.nearest_id),
            "nearest_distance": float(self.nearest_distance),
            "n_rectangles": len(self.rectangles),
            "rectangles": [
                {
                    "owner": int(owner),
                    "low": [float(v) for v in rect.low],
                    "high": [float(v) for v in rect.high],
                }
                for owner, rect in self.rectangles
            ],
            "n_candidates": len(self.candidates),
            "candidates": [
                {"id": int(pid), "distance": float(dist)}
                for pid, dist in self.candidates
            ],
            "nodes_visited": int(self.nodes_visited),
            "pages": int(self.pages),
            "degraded": bool(self.degraded),
            "failed_shards": [int(s) for s in self.failed_shards],
            "shards_answered": (
                None if self.shards_answered is None
                else int(self.shards_answered)
            ),
        }


# ======================================================================
# Build pipeline primitives
#
# Module-level so the serial build, the dynamic-update paths and the
# parallel workers of :mod:`repro.engine.parallel` run the *same* code —
# worker processes rebuild identical read-only state from these functions,
# which is what makes parallel construction bit-identical to serial.
# ======================================================================

def make_tree(dim: int, config: BuildConfig, leaf_entry_bytes: int) -> RStarTree:
    """An empty index tree of the configured kind and page geometry."""
    tree_cls = XTree if config.index_kind == "xtree" else RStarTree
    return tree_cls(
        dim,
        page_size=config.page_size,
        cache_pages=config.cache_pages,
        leaf_entry_bytes=leaf_entry_bytes,
    )


def load_data_tree(
    tree: RStarTree, points: np.ndarray, config: BuildConfig
) -> RStarTree:
    """Fill an empty data tree with ``points`` (bulk STR or insertion)."""
    n = points.shape[0]
    if config.bulk and n > 1:
        bulk_load(tree, points, points, np.arange(n))
    else:
        for i in range(n):
            tree.insert_point(points[i], int(i))
    return tree


def approximate_system(
    system: HalfspaceSystem, center: np.ndarray, config: BuildConfig
) -> "List[MBR]":
    """MBR approximation (Definition 3), optionally decomposed (Def. 5)."""
    mbr = approximate_cell(system, center=center)
    if mbr is None:  # pragma: no cover - full cells contain their centre
        raise RuntimeError("NN-cell approximation unexpectedly empty")
    if not config.decompose:
        return [mbr]
    return decompose_cell(system, mbr, config.decomposition)


def compute_cell(
    points: np.ndarray,
    selector: CandidateSelector,
    box: MBR,
    config: BuildConfig,
    point_id: int,
) -> "Tuple[HalfspaceSystem, List[MBR]]":
    """Candidate selection -> constraint system -> MBR (-> pieces)."""
    candidates = selector.candidates(point_id)
    system = cell_system(points, point_id, candidates, box)
    return system, approximate_system(system, points[point_id], config)


class NNCellIndex:
    """Voronoi-cell (solution space) nearest-neighbor index."""

    def __init__(self, points: np.ndarray, config: "BuildConfig | None" = None):
        """Use :meth:`build`; the constructor only wires the empty state."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        self.config = config or BuildConfig()
        self.points = pts.copy()
        self.dim = pts.shape[1]
        self.box = self.config.data_space or MBR.unit_cube(self.dim)
        if self.box.dim != self.dim:
            raise ValueError("data_space dimensionality mismatch")
        if not (
            np.all(self.box.low - 1e-12 <= pts)
            and np.all(pts <= self.box.high + 1e-12)
        ):
            raise ValueError("all points must lie inside the data space")
        self._active = np.ones(pts.shape[0], dtype=bool)
        self._systems: "Dict[int, HalfspaceSystem]" = {}
        self._cell_rects: "Dict[int, List[MBR]]" = {}
        # Data pages hold points (d coordinates + id); solution-space
        # pages hold a cell rectangle plus its owner's coordinates
        # (3d values + id) — the paper's "twice the size of the database".
        self.data_tree: RStarTree = make_tree(
            self.dim, self.config, leaf_entry_bytes=8 * self.dim + 8
        )
        self.cell_tree: RStarTree = make_tree(
            self.dim, self.config, leaf_entry_bytes=3 * 8 * self.dim + 8
        )
        self._selector: "Optional[CandidateSelector]" = None

    # ==================================================================
    # Construction
    # ==================================================================
    @classmethod
    def build(
        cls, points: np.ndarray, config: "BuildConfig | None" = None
    ) -> "NNCellIndex":
        """Precompute the solution space of ``points`` and index it."""
        index = cls(points, config)
        index._build()
        return index

    def _build(self) -> None:
        n = self.points.shape[0]
        workers = self.config.workers
        if workers != 1:
            from ..engine.parallel import resolve_workers

            workers = resolve_workers(workers)
        with span("build.nncell", n_points=n, dim=self.dim,
                  selector=self.config.selector.value,
                  workers=workers) as root:
            with span("build.data_tree"):
                load_data_tree(self.data_tree, self.points, self.config)
            self._selector = CandidateSelector(
                self.points,
                self.data_tree,
                self.config.selector,
                self.config.selector_params,
            )
            all_lows: "List[np.ndarray]" = []
            all_highs: "List[np.ndarray]" = []
            all_ids: "List[int]" = []
            with span("build.cells", workers=workers):
                if workers > 1:
                    from ..engine.parallel import parallel_cells

                    cells = parallel_cells(
                        self.points, self.config, workers=workers
                    )
                else:
                    cells = (
                        self._compute_cell(int(i)) for i in range(n)
                    )
                for point_id, (system, rects) in enumerate(cells):
                    self._register_cell(int(point_id), system, rects)
                    for rect in rects:
                        all_lows.append(rect.low)
                        all_highs.append(rect.high)
                        all_ids.append(int(point_id))
            with span("build.cell_tree"):
                if self.config.bulk and len(all_ids) > 1:
                    bulk_load(
                        self.cell_tree,
                        np.stack(all_lows),
                        np.stack(all_highs),
                        all_ids,
                    )
                else:
                    for low, high, entry_id in zip(all_lows, all_highs, all_ids):
                        self.cell_tree.insert(low, high, entry_id)
            root.set("n_rectangles", len(all_ids))
        metrics.inc("build.cells", n)
        metrics.inc("build.rectangles", len(all_ids))

    def _compute_cell(
        self, point_id: int
    ) -> "Tuple[HalfspaceSystem, List[MBR]]":
        """Candidate selection -> constraint system -> MBR (-> pieces)."""
        return compute_cell(
            self.points, self._selector, self.box, self.config, point_id
        )

    def _approximate(
        self, system: HalfspaceSystem, center: np.ndarray
    ) -> "List[MBR]":
        return approximate_system(system, center, self.config)

    # ------------------------------------------------------------------
    # Cell bookkeeping
    # ------------------------------------------------------------------
    def _register_cell(
        self, point_id: int, system: HalfspaceSystem, rects: "List[MBR]"
    ) -> None:
        self._systems[point_id] = system
        self._cell_rects[point_id] = rects

    def _unregister_cell(self, point_id: int) -> None:
        del self._systems[point_id]
        del self._cell_rects[point_id]

    def _replace_cell_in_tree(
        self, point_id: int, new_rects: "List[MBR]"
    ) -> None:
        for rect in self._cell_rects[point_id]:
            removed = self.cell_tree.delete(rect.low, rect.high, point_id)
            if not removed:  # pragma: no cover - bookkeeping invariant
                raise RuntimeError(
                    f"cell rectangle of point {point_id} missing from index"
                )
        for rect in new_rects:
            self.cell_tree.insert(rect.low, rect.high, point_id)

    # ==================================================================
    # Queries
    # ==================================================================
    def nearest(
        self, query: Sequence[float]
    ) -> "Tuple[int, float, QueryInfo]":
        """Nearest neighbor of ``query``: ``(point_id, distance, info)``.

        Inside the data space this is one point query on the solution
        space index plus a distance scan over the candidate owners.
        Outside the data space (where NN-cells are not defined) the data
        index answers via branch-and-bound, with ``info.fallback`` set.
        """
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ValueError(f"query must be a {self.dim}-vector")
        started = time.perf_counter()
        point_id, distance, info, cells = self._nearest_impl(q)
        workload.record_query(q, point_id, distance, info, cells, started)
        return point_id, distance, info

    def _nearest_impl(
        self, q: np.ndarray
    ) -> "Tuple[int, float, QueryInfo, Optional[np.ndarray]]":
        """``nearest`` without its record; also returns the candidate
        cells (``None`` on the fallback path)."""
        info = QueryInfo()
        with span("query.nearest", dim=self.dim) as root:
            if not self.box.contains_point(q, atol=self.config.query_atol):
                return self._fallback_nearest(q, info)

            before = self.cell_tree.pages.stats.logical_reads
            with span("query.point_query") as lookup:
                candidate_ids = np.unique(
                    self.cell_tree.point_query(q, atol=self.config.query_atol)
                )
                if candidate_ids.size == 0:
                    # Roundoff pushed the query through a cell boundary
                    # crack: retry once with a much looser tolerance
                    # before giving up.
                    info.retried_atol = True
                    candidate_ids = np.unique(
                        self.cell_tree.point_query(
                            q, atol=max(self.config.query_atol * 1e4, 1e-6)
                        )
                    )
                info.pages += (
                    self.cell_tree.pages.stats.logical_reads - before
                )
                lookup.set("pages", info.pages)
            if candidate_ids.size == 0:  # pragma: no cover - safety net
                return self._fallback_nearest(q, info)

            with span("query.candidate_scan") as scan:
                dist_sq = distances_to_points(q, self.points[candidate_ids])
                info.n_candidates = int(candidate_ids.size)
                info.distance_computations = int(candidate_ids.size)
                scan.set("candidates", info.n_candidates)
            root.set("pages", info.pages)
            root.set("candidates", info.n_candidates)
            best = int(np.argmin(dist_sq))
            return (
                int(candidate_ids[best]),
                float(np.sqrt(dist_sq[best])),
                info,
                candidate_ids,
            )

    def _fallback_nearest(
        self, q: np.ndarray, info: QueryInfo
    ) -> "Tuple[int, float, QueryInfo, None]":
        info.fallback = True
        with span("query.fallback"):
            result = rkv_nearest(self.data_tree, q)
        info.pages += result.pages
        info.distance_computations += result.distance_computations
        return result.nearest_id, result.nearest_distance, info, None

    def k_nearest(
        self, query: Sequence[float], k: int
    ) -> "Tuple[List[int], List[float], QueryInfo]":
        """Exact k nearest neighbors via the solution-space index.

        The point query yields the order-1 candidates; their k-th best
        distance is a valid upper bound on the k-NN radius, so one sphere
        query on the data index completes the answer exactly.  (The
        paper's future work proposes order-k cells — implemented in
        :mod:`repro.core.order_k` — for turning this into a single point
        query; this method is the practical hybrid.)
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ValueError(f"query must be a {self.dim}-vector")
        n_live = len(self)
        k_eff = min(k, n_live)
        info = QueryInfo()
        with span("query.k_nearest", dim=self.dim, k=k_eff) as root:
            if not self.box.contains_point(q, atol=self.config.query_atol):
                info.fallback = True
                metrics.inc("query.fallbacks")
                with span("query.fallback"):
                    result = hs_k_nearest(self.data_tree, q, k_eff)
                info.pages += result.pages
                info.distance_computations += result.distance_computations
                return result.ids, result.distances, info

            before = self.cell_tree.pages.stats.logical_reads
            with span("query.point_query") as lookup:
                candidates = np.unique(
                    self.cell_tree.point_query(q, atol=self.config.query_atol)
                )
                info.pages += self.cell_tree.pages.stats.logical_reads - before
                lookup.set("pages", info.pages)

            if candidates.size < k_eff:
                # Not enough order-1 candidates: let the data index finish.
                info.fallback = True
                metrics.inc("query.fallbacks")
                with span("query.fallback"):
                    result = hs_k_nearest(self.data_tree, q, k_eff)
                info.pages += result.pages
                info.distance_computations += result.distance_computations
                return result.ids, result.distances, info

            with span("query.candidate_scan") as scan:
                dist_sq = distances_to_points(q, self.points[candidates])
                info.n_candidates = int(candidates.size)
                info.distance_computations += int(candidates.size)
                scan.set("candidates", info.n_candidates)
            analytics.record_cells(candidates)
            order = np.argsort(dist_sq)
            radius = float(np.sqrt(dist_sq[order[k_eff - 1]]))

            # Every k-NN member lies within the candidates' k-th distance.
            before = self.data_tree.pages.stats.logical_reads
            with span("query.sphere_refinement"):
                within = self.data_tree.sphere_query(
                    q, radius + self.config.query_atol
                )
            info.pages += self.data_tree.pages.stats.logical_reads - before
            within = np.unique(within)
            final_sq = distances_to_points(q, self.points[within])
            info.distance_computations += int(within.size)
            metrics.inc("query.count")
            metrics.observe("query.candidates", info.n_candidates)
            metrics.observe("query.pages", info.pages)
            root.set("pages", info.pages)
            root.set("candidates", info.n_candidates)
            best = np.argsort(final_sq)[:k_eff]
            return (
                [int(within[i]) for i in best],
                [float(np.sqrt(final_sq[i])) for i in best],
                info,
            )

    def within_radius(
        self, center: Sequence[float], radius: float
    ) -> np.ndarray:
        """Ids of all points within Euclidean distance ``radius``.

        Range queries bypass the solution space (cells answer *nearest*
        questions); the data index serves them directly.
        """
        if radius < 0.0:
            raise ValueError("radius must be >= 0")
        c = np.asarray(center, dtype=np.float64)
        if c.shape != (self.dim,):
            raise ValueError(f"center must be a {self.dim}-vector")
        candidates = np.unique(self.data_tree.sphere_query(c, radius))
        if candidates.size == 0:
            return candidates
        dist_sq = distances_to_points(c, self.points[candidates])
        return candidates[dist_sq <= radius * radius + 1e-12]

    def query_batch(
        self, queries: np.ndarray, batch_size: "int | None" = None
    ) -> "Tuple[np.ndarray, np.ndarray, 'BatchQueryInfo']":
        """Answer many NN queries in one batched index walk.

        Returns ``(ids, distances, info)`` where ``info`` aggregates page
        and candidate traffic over the whole batch.  Results are
        identical to calling :meth:`nearest` per row (the parity suite
        asserts this bit-for-bit), but the tree descent is shared: every
        index node along the batch's paths is read *once*, not once per
        query.  ``batch_size`` caps the number of queries walked
        together, bounding the working-set memory of the vectorised
        containment tests.  See :mod:`repro.engine.batch`.
        """
        from ..engine.batch import query_batch

        return query_batch(self, queries, batch_size=batch_size)

    def nearest_batch(
        self, queries: np.ndarray
    ) -> "Tuple[np.ndarray, np.ndarray]":
        """Vectorised convenience: NN ids and distances for many queries."""
        ids, dists, __ = self.query_batch(queries)
        return ids, dists

    def explain(self, query: Sequence[float]) -> QueryExplain:
        """Why ``query``'s answer is what it is: a :class:`QueryExplain`.

        Re-runs the :meth:`nearest` decision procedure while recording
        what each step saw — the leaf rectangles containing the point,
        the deduplicated candidate owners with their distances, the
        tolerance retries, and which path produced the answer.  The
        returned ``nearest_id``/``nearest_distance`` match
        :meth:`nearest` exactly (same candidate set, same tie-break).

        Surfaced as ``python -m repro explain`` and as the serve JSONL
        protocol's ``"explain": true`` request field.
        """
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ValueError(f"query must be a {self.dim}-vector")
        atol = self.config.query_atol
        if not self.box.contains_point(q, atol=atol):
            result = rkv_nearest(self.data_tree, q)
            return QueryExplain(
                query=q, path="outside_data_space", atol=atol,
                retried_atol=False, nearest_id=result.nearest_id,
                nearest_distance=result.nearest_distance, rectangles=[],
                candidates=[], nodes_visited=0, pages=result.pages,
            )
        path = "cell"
        retried = False
        rectangles, visited, pages = self._explain_point_query(q, atol)
        if not rectangles:
            # Mirror nearest(): one retry with a much looser tolerance.
            path, retried = "cell_retry", True
            atol = max(self.config.query_atol * 1e4, 1e-6)
            rectangles, more_visited, more_pages = (
                self._explain_point_query(q, atol)
            )
            visited += more_visited
            pages += more_pages
        if not rectangles:
            result = rkv_nearest(self.data_tree, q)
            return QueryExplain(
                query=q, path="empty_point_query", atol=atol,
                retried_atol=True, nearest_id=result.nearest_id,
                nearest_distance=result.nearest_distance, rectangles=[],
                candidates=[], nodes_visited=visited,
                pages=pages + result.pages,
            )
        # np.unique sorts ids, and argsort is stable — so among
        # equidistant owners the lowest id wins, exactly as nearest()'s
        # argmin over the unique candidate array does.
        owners = np.unique([owner for owner, _ in rectangles])
        dist = np.sqrt(distances_to_points(q, self.points[owners]))
        order = np.argsort(dist)
        candidates = [
            (int(owners[i]), float(dist[i])) for i in order
        ]
        return QueryExplain(
            query=q, path=path, atol=atol, retried_atol=retried,
            nearest_id=candidates[0][0],
            nearest_distance=candidates[0][1],
            rectangles=rectangles, candidates=candidates,
            nodes_visited=visited, pages=pages,
        )

    def _explain_point_query(
        self, q: np.ndarray, atol: float
    ) -> "Tuple[List[Tuple[int, MBR]], int, int]":
        """The cell tree's point query, keeping the hit rectangles.

        Same containment arithmetic as ``RStarTree.point_query`` but
        returns ``(rectangles, nodes visited, pages read)`` instead of
        bare owner ids.
        """
        tree = self.cell_tree
        before = tree.pages.stats.logical_reads
        rectangles: "List[Tuple[int, MBR]]" = []
        visited = 0
        stack = [tree.root_id]
        while stack:
            node = tree._read(stack.pop())
            visited += 1
            if node.n_entries == 0:
                continue
            mask = np.logical_and(
                np.all(node.lows <= q + atol, axis=1),
                np.all(q <= node.highs + atol, axis=1),
            )
            hits = np.flatnonzero(mask)
            if node.is_leaf:
                rectangles.extend(
                    (
                        int(node.ids[i]),
                        MBR(node.lows[i].copy(), node.highs[i].copy()),
                    )
                    for i in hits
                )
            else:
                stack.extend(int(node.ids[i]) for i in hits)
        pages = tree.pages.stats.logical_reads - before
        return rectangles, visited, pages

    # ==================================================================
    # Dynamic updates
    # ==================================================================
    def insert(self, point: Sequence[float]) -> int:
        """Insert a new data point; returns its id.

        Existing NN-cells can only shrink (their systems gain one
        bisector), so the update is local: only cells whose approximation
        is not entirely on the old owner's side of the new bisector are
        recomputed.
        """
        p = np.asarray(point, dtype=np.float64)
        if p.shape != (self.dim,):
            raise ValueError(f"point must be a {self.dim}-vector")
        if not self.box.contains_point(p, atol=1e-12):
            raise ValueError("point lies outside the data space")
        new_id = self.points.shape[0]
        self.points = np.vstack([self.points, p[None, :]])
        self._active = np.append(self._active, True)
        self._selector.extend_points(p[None, :])
        self.data_tree.insert_point(p, new_id)

        for cell_id in self._cells_possibly_shrunk_by(p):
            a, b = bisector(self.points[cell_id], p)
            old_system = self._systems[cell_id]
            new_system = old_system.with_constraint(a, b, point_id=new_id)
            rects = self._approximate(new_system, self.points[cell_id])
            self._replace_cell_in_tree(cell_id, rects)
            self._unregister_cell(cell_id)
            self._register_cell(cell_id, new_system, rects)

        system, rects = self._compute_cell(new_id)
        self._register_cell(new_id, system, rects)
        for rect in rects:
            self.cell_tree.insert(rect.low, rect.high, new_id)
        return new_id

    def _cells_possibly_shrunk_by(self, p: np.ndarray) -> "List[int]":
        """Owners whose stored approximation may intersect the region now
        claimed by ``p``.

        A cell entry ``r`` owned by ``c`` is certainly unaffected when
        ``r`` lies inside the half-space of points closer to ``c`` than to
        ``p``.  Whole subtrees are pruned with the weaker but
        owner-independent test ``mindist(region, p) >= diam(region)``
        (every owner lives inside its own rectangle, hence inside the
        region, so no point of the region can prefer ``p``).
        """
        affected: "Set[int]" = set()
        stack = [self.cell_tree.root_id]
        while stack:
            node = self.cell_tree._read(stack.pop())
            if node.n_entries == 0:
                continue
            region = node.mbr()
            nearest = np.clip(p, region.low, region.high)
            mindist_sq = float(np.sum((nearest - p) ** 2))
            diam_sq = float(np.sum(region.extents ** 2))
            if mindist_sq >= diam_sq:
                continue
            if node.is_leaf:
                for low, high, owner in node.entries():
                    if owner in affected:
                        continue
                    a, b = bisector(self.points[owner], p)
                    if not box_inside_halfspace(MBR(low, high), a, b):
                        affected.add(owner)
            else:
                stack.extend(int(i) for i in node.ids)
        return sorted(affected)

    def delete(self, point_id: int) -> None:
        """Remove a point; the cells that referenced it are recomputed
        (they can only grow, so recomputation keeps the superset
        guarantee)."""
        if not self._is_active(point_id):
            raise KeyError(f"point {point_id} is not in the index")
        if int(np.sum(self._active)) == 1:
            raise ValueError("cannot delete the last remaining point")
        self._replace_cell_in_tree(point_id, [])
        self._unregister_cell(point_id)
        removed = self.data_tree.delete(
            self.points[point_id], self.points[point_id], point_id
        )
        if not removed:  # pragma: no cover - bookkeeping invariant
            raise RuntimeError(f"point {point_id} missing from data index")
        self._active[point_id] = False
        self._selector.set_active(point_id, False)

        referencing = sorted(
            c for c, s in self._systems.items() if s.references(point_id)
        )
        for cell_id in referencing:
            system, rects = self._compute_cell(cell_id)
            self._replace_cell_in_tree(cell_id, rects)
            self._unregister_cell(cell_id)
            self._register_cell(cell_id, system, rects)

    # ==================================================================
    # Introspection
    # ==================================================================
    def _is_active(self, point_id: int) -> bool:
        return (
            0 <= point_id < self._active.shape[0]
            and bool(self._active[point_id])
        )

    def __len__(self) -> int:
        return int(np.sum(self._active))

    @property
    def active_ids(self) -> np.ndarray:
        return np.flatnonzero(self._active)

    def cell_rectangles(self, point_id: int) -> "List[MBR]":
        """The stored (decomposed) approximation of one cell."""
        if not self._is_active(point_id):
            raise KeyError(f"point {point_id} is not in the index")
        return list(self._cell_rects[point_id])

    def constraint_system(self, point_id: int) -> HalfspaceSystem:
        """The bisector constraint system backing one cell."""
        if not self._is_active(point_id):
            raise KeyError(f"point {point_id} is not in the index")
        return self._systems[point_id]

    def all_cell_rectangles(self) -> "List[Tuple[int, MBR]]":
        """Every stored rectangle as ``(owner id, rect)`` pairs."""
        return [
            (point_id, rect)
            for point_id in sorted(self._cell_rects)
            for rect in self._cell_rects[point_id]
        ]

    def stats(self) -> "Dict[str, float]":
        """Sizing diagnostics: rectangle counts, volumes, tree shape."""
        rect_count = sum(len(r) for r in self._cell_rects.values())
        total_volume = sum(
            rect.volume()
            for rects in self._cell_rects.values()
            for rect in rects
        )
        box_volume = self.box.volume()
        return {
            "n_points": float(len(self)),
            "n_rectangles": float(rect_count),
            "expected_candidates": total_volume / box_volume,
            "cell_tree_height": float(self.cell_tree.height),
            "data_tree_height": float(self.data_tree.height),
            "cell_tree_blocks": float(self.cell_tree.pages.total_blocks()),
        }
