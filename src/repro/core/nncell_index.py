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

Queries never read the mutable cell tree.  They walk :attr:`snapshot`, a
packed immutable copy of it (:mod:`repro.index.packed`), laid out at
build and load time by the same STR packing a bulk load allocates, and
frozen again at the end of every write.  The mutable X-tree the writes
maintain — and, for a loaded index, the per-cell systems and rectangles
— are made on the first write, or the first call that needs them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..geometry.distance import distances_to_points
from ..geometry.halfspace import HalfspaceSystem, bisector, box_inside_halfspace
from ..geometry.mbr import MBR
from ..index.bulk import bulk_load, str_layout
from ..index.nnsearch import hs_k_nearest, rkv_nearest
from ..index.packed import PackedTree, Walk, batched_point_query
from ..index.rstar import RStarTree
from ..index.xtree import XTree
from ..obs import analytics, metrics, workload
from ..obs.tracing import span
from ..storage.page import DEFAULT_PAGE_SIZE, record_reads
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

    @property
    def retry_atol(self) -> float:
        """The looser tolerance of the one retry after a point query
        found nothing (roundoff let the query through a cell-boundary
        crack)."""
        return max(self.query_atol * 1e4, 1e-6)


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


def _publish_walks(walks: "List[Walk]") -> None:
    """Publish the pages of walks no query record carries."""
    record_reads(
        np.concatenate([w.page_ids() for w in walks]),
        sum(w.pages for w in walks),
    )


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
        #: Per-cell systems and rectangles; both ``None`` while a loaded
        #: index keeps them as archive columns (see :meth:`_thaw_cells`).
        self._systems: "Optional[Dict[int, HalfspaceSystem]]" = {}
        self._cell_rects: "Optional[Dict[int, List[MBR]]]" = {}
        #: A loaded index's per-cell archive columns, until its first
        #: write (``save_index`` writes them back unchanged).
        self._columns: "Optional[Dict[str, np.ndarray]]" = None
        # Data pages hold points (d coordinates + id); solution-space
        # pages hold a cell rectangle plus its owner's coordinates.
        self.data_tree: RStarTree = make_tree(
            self.dim, self.config, leaf_entry_bytes=8 * self.dim + 8
        )
        #: What every query reads: the cell tree, packed and immutable.
        #: Writes replace it whole, with one assignment.
        self.snapshot: "Optional[PackedTree]" = None
        self._cell_tree: "Optional[RStarTree]" = None
        #: The ``(lows, highs, owners)`` the snapshot was laid out from,
        #: which :attr:`cell_tree` bulk-loads into the empty tree when
        #: first needed; ``None`` once loaded.
        self._entries: "Optional[Tuple[np.ndarray, ...]]" = None
        self._selector: "Optional[CandidateSelector]" = None
        self._chaos = None  # page-read fault injector (repro.chaos)
        #: Makes the lazy cell state once, whoever asks for it first.
        self._thaw_lock = threading.Lock()

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
                self._index_cells(
                    np.stack(all_lows),
                    np.stack(all_highs),
                    np.asarray(all_ids, dtype=np.int64),
                    bulk=self.config.bulk,
                )
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
    # The cell tree: snapshot, mutable tree, per-cell objects
    # ------------------------------------------------------------------
    @classmethod
    def _restore(
        cls,
        points: np.ndarray,
        active: np.ndarray,
        config: BuildConfig,
        columns: "Dict[str, np.ndarray]",
    ) -> "NNCellIndex":
        """An index over validated archive columns (``load_index``).

        ``points`` holds every row, deleted ones included, so stored
        point ids stay valid.  The data tree is bulk-loaded, because
        fallback queries read it; the cell tree is only laid out into
        :attr:`snapshot`.  No per-cell object is made.
        """
        index = cls(points[active], config)
        index.points = points.copy()
        index._active = active.copy()
        index._systems = index._cell_rects = None
        index._columns = columns
        live = index.active_ids
        if live.size > 1:
            bulk_load(index.data_tree, points[live], points[live], live)
        else:
            index.data_tree.insert_point(points[live[0]], int(live[0]))
        owners = np.repeat(live, np.diff(columns["rect_offsets"]))
        index._index_cells(
            columns["rect_lows"], columns["rect_highs"], owners, bulk=True
        )
        return index

    def _index_cells(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        owners: np.ndarray,
        bulk: bool,
    ) -> None:
        """Index every cell rectangle: build :attr:`snapshot`.

        Several rectangles with ``bulk`` are laid out by STR, as a bulk
        load of the still-empty mutable tree would pack them, and kept
        for :attr:`cell_tree`; otherwise they are inserted one by one
        into the mutable tree, which is then frozen.
        """
        tree = self._cell_tree = self._new_cell_tree()
        if bulk and owners.size > 1:
            self._entries = (lows, highs, owners)
            self.snapshot = PackedTree.from_layout(
                str_layout(tree, lows, highs, owners)
            )
            return
        for low, high, owner in zip(lows, highs, owners.tolist()):
            tree.insert(low, high, owner)
        self.snapshot = PackedTree.freeze(tree)

    def _new_cell_tree(self) -> RStarTree:
        tree = make_tree(
            self.dim, self.config, leaf_entry_bytes=3 * 8 * self.dim + 8
        )
        tree.pages.set_chaos(self._chaos)
        return tree

    @property
    def cell_tree(self) -> RStarTree:
        """The mutable cell tree the writes maintain.

        Queries read :attr:`snapshot` instead.  After a bulk build or a
        load the tree stays empty until its first access, which
        bulk-loads the rectangles the snapshot was laid out from, so the
        two agree node for node.
        """
        return self._thaw_tree()

    def _thaw_tree(self) -> RStarTree:
        if self._entries is not None:
            with self._thaw_lock:
                if self._entries is not None:
                    bulk_load(self._cell_tree, *self._entries)
                    # Last: unlocked readers test it.
                    self._entries = None
        return self._cell_tree

    def _thaw_cells(self) -> None:
        """Make a loaded index's per-cell systems and rectangles from
        its archive columns, on the first call that needs them."""
        if self._cell_rects is None:
            with self._thaw_lock:
                if self._cell_rects is None:
                    self._make_cells()

    def _make_cells(self) -> None:
        columns = self._columns
        sys_at = columns["sys_offsets"].tolist()
        rect_at = columns["rect_offsets"].tolist()
        sys_a, sys_b = columns["sys_a"], columns["sys_b"]
        sys_ids = columns["sys_ids"]
        lows, highs = columns["rect_lows"], columns["rect_highs"]
        systems: "Dict[int, HalfspaceSystem]" = {}
        cell_rects: "Dict[int, List[MBR]]" = {}
        for i, pid in enumerate(self.active_ids.tolist()):
            s0, s1 = sys_at[i], sys_at[i + 1]
            systems[pid] = HalfspaceSystem(
                sys_a[s0:s1], sys_b[s0:s1], self.box, sys_ids[s0:s1]
            )
            cell_rects[pid] = [
                MBR(lows[r], highs[r]) for r in range(rect_at[i], rect_at[i + 1])
            ]
        # ``_cell_rects`` last: it is the flag unlocked readers test.
        self._systems = systems
        self._cell_rects = cell_rects

    def _prepare_write(self) -> None:
        """Make what a write changes before it changes anything: the
        per-cell objects, the mutable cell tree and the selector."""
        self._thaw_cells()
        self._thaw_tree()
        self._columns = None
        if self._selector is None:
            self._selector = CandidateSelector(
                self.points,
                self.data_tree,
                self.config.selector,
                self.config.selector_params,
            )
            for pid in np.flatnonzero(~self._active).tolist():
                self._selector.set_active(pid, False)

    def _publish(self) -> None:
        """End of a write: freeze the mutable tree into a new snapshot."""
        self.snapshot = PackedTree.freeze(self._cell_tree)

    def set_page_chaos(self, injector) -> None:
        """Install (or, with ``None``, remove) a page-read fault injector.

        ``injector`` duck-types :class:`repro.chaos.ChaosInjector`.  The
        cell-tree walk runs it for every node it touches, and both trees'
        page managers for every read, each with the flaky-read retries of
        :func:`repro.storage.page.chaos_read`.
        """
        self._chaos = injector
        self.data_tree.pages.set_chaos(injector)
        if self._cell_tree is not None:
            self._cell_tree.pages.set_chaos(injector)

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
        """Swap one cell's rectangles in the mutable tree (queries see
        the change once the write publishes its snapshot)."""
        tree = self._thaw_tree()
        for rect in self._cell_rects[point_id]:
            removed = tree.delete(rect.low, rect.high, point_id)
            if not removed:  # pragma: no cover - bookkeeping invariant
                raise RuntimeError(
                    f"cell rectangle of point {point_id} missing from index"
                )
        for rect in new_rects:
            tree.insert(rect.low, rect.high, point_id)

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
        point_id, distance, info, cells, walks = self._nearest_impl(q)
        workload.record_query(
            q, point_id, distance, info, cells, started, reads=walks
        )
        return point_id, distance, info

    def _nearest_impl(
        self, q: np.ndarray
    ) -> "Tuple[int, float, QueryInfo, Optional[np.ndarray], List[Walk]]":
        """``nearest`` without its record; also returns the candidate
        cells (``None`` on the fallback path) and the cell-tree walks."""
        info = QueryInfo()
        with span("query.nearest", dim=self.dim) as root:
            if not self.box.contains_point(q, atol=self.config.query_atol):
                return self._fallback_nearest(q, info, [])

            with span("query.point_query") as lookup:
                candidate_ids, walks = self._point_query(q, info)
                lookup.set("pages", info.pages)
            if candidate_ids.size == 0:  # pragma: no cover - safety net
                return self._fallback_nearest(q, info, walks)

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
                walks,
            )

    def _point_query(
        self, q: np.ndarray, info: QueryInfo, retry: bool = True
    ) -> "Tuple[np.ndarray, List[Walk]]":
        """Owners of the cell rectangles containing ``q`` (sorted, once
        each) and the walks of :attr:`snapshot` that found them.

        With ``retry``, an empty answer is retried once at the looser
        :attr:`BuildConfig.retry_atol`.  The walks' pages are added to
        ``info.pages``.
        """
        snapshot = self.snapshot  # one version for the whole query
        walk = batched_point_query(
            snapshot, q[None, :], self.config.query_atol, self._chaos
        )
        walks = [walk]
        if retry and not walk.owner.size:
            info.retried_atol = True
            walk = batched_point_query(
                snapshot, q[None, :], self.config.retry_atol, self._chaos
            )
            walks.append(walk)
        info.pages += sum(w.pages for w in walks)
        return np.unique(walk.owner), walks

    def _fallback_nearest(
        self, q: np.ndarray, info: QueryInfo, walks: "List[Walk]"
    ) -> "Tuple[int, float, QueryInfo, None, List[Walk]]":
        info.fallback = True
        with span("query.fallback"):
            result = rkv_nearest(self.data_tree, q)
        info.pages += result.pages
        info.distance_computations += result.distance_computations
        return result.nearest_id, result.nearest_distance, info, None, walks

    def k_nearest(
        self, query: Sequence[float], k: int
    ) -> "Tuple[List[int], List[float], QueryInfo]":
        """Exact k nearest neighbors via the solution-space index.

        The point query yields the order-1 candidates; their k-th best
        distance is a valid upper bound on the k-NN radius, so one sphere
        query on the data index completes the answer exactly.  (The
        paper's future work proposes order-k cells — implemented in
        :mod:`repro.core.order_k` — for turning this into a single point
        query; this method is the practical hybrid.)  The answer is the
        k smallest points by ``(distance, id)`` — the order the sharded
        merge uses — on this path and on the fallback alike.
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
                return self._fallback_k_nearest(q, k_eff, info)

            with span("query.point_query") as lookup:
                candidates, walks = self._point_query(q, info, retry=False)
                lookup.set("pages", info.pages)
            _publish_walks(walks)

            if candidates.size < k_eff:
                # Not enough order-1 candidates: let the data index finish.
                return self._fallback_k_nearest(q, k_eff, info)

            with span("query.candidate_scan") as scan:
                dist_sq = distances_to_points(q, self.points[candidates])
                info.n_candidates = int(candidates.size)
                info.distance_computations += int(candidates.size)
                scan.set("candidates", info.n_candidates)
            analytics.record_cells(candidates)
            radius = float(np.sqrt(np.partition(dist_sq, k_eff - 1)[k_eff - 1]))

            # Every k-NN member lies within the candidates' k-th distance.
            with span("query.sphere_refinement"):
                within, blocks = self.data_tree.sphere_query_blocks(
                    q, radius + self.config.query_atol
                )
            info.pages += blocks
            within = np.unique(within)
            final = np.sqrt(distances_to_points(q, self.points[within]))
            info.distance_computations += int(within.size)
            metrics.inc("query.count")
            metrics.observe("query.candidates", info.n_candidates)
            metrics.observe("query.pages", info.pages)
            root.set("pages", info.pages)
            root.set("candidates", info.n_candidates)
            # ``within`` is sorted, so a stable sort by distance breaks
            # exact ties by id.
            best = np.argsort(final, kind="stable")[:k_eff]
            return (
                [int(within[i]) for i in best],
                [float(final[i]) for i in best],
                info,
            )

    def _fallback_k_nearest(
        self, q: np.ndarray, k: int, info: QueryInfo
    ) -> "Tuple[List[int], List[float], QueryInfo]":
        info.fallback = True
        metrics.inc("query.fallbacks")
        with span("query.fallback"):
            result = hs_k_nearest(self.data_tree, q, k)
        info.pages += result.pages
        info.distance_computations += result.distance_computations
        return result.ids, result.distances, info

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
        info = QueryInfo()
        owners, walks = self._point_query(q, info)
        _publish_walks(walks)
        visited = sum(len(w.page_ids()) for w in walks)
        if info.retried_atol:
            atol = self.config.retry_atol
        path = "cell_retry" if info.retried_atol else "cell"
        if not owners.size:
            result = rkv_nearest(self.data_tree, q)
            return QueryExplain(
                query=q, path="empty_point_query", atol=atol,
                retried_atol=True, nearest_id=result.nearest_id,
                nearest_distance=result.nearest_distance, rectangles=[],
                candidates=[], nodes_visited=visited,
                pages=info.pages + result.pages,
            )
        walk = walks[-1]
        leaves = walk.tree.leaves
        rectangles = [
            (owner, MBR(leaves.lows[:, entry], leaves.highs[:, entry]))
            for owner, entry in zip(walk.owner.tolist(), walk.entry.tolist())
        ]
        # np.unique sorts ids and the argsort is stable, so among
        # equidistant owners the lowest id wins, exactly as nearest()'s
        # argmin over the unique candidate array does.
        dist = np.sqrt(distances_to_points(q, self.points[owners]))
        order = np.argsort(dist, kind="stable")
        candidates = [
            (int(owners[i]), float(dist[i])) for i in order
        ]
        return QueryExplain(
            query=q, path=path, atol=atol, retried_atol=info.retried_atol,
            nearest_id=candidates[0][0],
            nearest_distance=candidates[0][1],
            rectangles=rectangles, candidates=candidates,
            nodes_visited=visited, pages=info.pages,
        )

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
        self._prepare_write()
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
            self._cell_tree.insert(rect.low, rect.high, new_id)
        self._publish()
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
        tree = self._cell_tree
        stack = [tree.root_id]
        while stack:
            node = tree._read(stack.pop())
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
        self._prepare_write()
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
        self._publish()

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
        self._thaw_cells()
        return list(self._cell_rects[point_id])

    def constraint_system(self, point_id: int) -> HalfspaceSystem:
        """The bisector constraint system backing one cell."""
        if not self._is_active(point_id):
            raise KeyError(f"point {point_id} is not in the index")
        self._thaw_cells()
        return self._systems[point_id]

    def all_cell_rectangles(self) -> "List[Tuple[int, MBR]]":
        """Every stored rectangle as ``(owner id, rect)`` pairs."""
        self._thaw_cells()
        return [
            (point_id, rect)
            for point_id in sorted(self._cell_rects)
            for rect in self._cell_rects[point_id]
        ]

    def stats(self) -> "Dict[str, float]":
        """Sizing diagnostics: rectangle counts, volumes, tree shape."""
        self._thaw_cells()
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
            "cell_tree_height": float(self.snapshot.height),
            "data_tree_height": float(self.data_tree.height),
            "cell_tree_blocks": float(self.snapshot.total_blocks()),
        }
