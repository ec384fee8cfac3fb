"""The NN-cell index: precomputed solution space for NN search.

This is the paper's contribution.  Build time precomputes, for every
database point, the MBR approximation of its NN-cell (optionally
decomposed) and stores all rectangles in a multidimensional index.  A
nearest-neighbor query then degenerates to a *point query*: fetch the
candidate rectangles containing the query point and pick the closest
owner — by Lemmas 1 and 2 the true nearest neighbor is always among the
candidates.

The index is dynamic (Section 2, "the dynamic case"):

* :meth:`insert` — existing cells can only *shrink*.  Affected cells are
  found by one vectorised test of every stored rectangle against its
  owner's bisector with the new point (a conservative superset of the
  cells the paper finds with its sphere query), their systems gain that
  bisector, and they are re-approximated.
* :meth:`delete` — cells whose constraint system referenced the removed
  point can only *grow*; they are recomputed from fresh candidate sets
  (the approach Roos' dynamic Voronoi algorithms make exact; recomputing
  the affected approximations preserves the superset guarantee).

Queries that fall outside the data space — where NN-cells are undefined —
fall back to branch-and-bound search on the data index and are flagged in
the returned :class:`QueryInfo`.  Every query surface answers through the
one query path, :func:`repro.engine.batch.answer`: ``nearest``,
``explain`` and ``k_nearest`` (for its order-1 candidates) pass it one
row and ``query_batch`` a chunk of rows, each on the cell snapshot, data
snapshot and points it read once, at its start.

Each live cell's constraint system and rectangles live in six read-only
columns, :attr:`NNCellIndex.cells` — the archive's own form
(:mod:`repro.core.persistence`) — from build to save: a build concatenates
its cells once, a load keeps the checked columns, and a write splices its
changed cells into new columns.  A constraint row is stored as its
opponent's id and its right-hand side ``b``: the row's normal is the
bisector's ``2 (p_j - p_i)`` (Definition 2), which
:meth:`NNCellIndex.constraint_system` derives from the two points.
Queries walk :attr:`NNCellIndex.snapshot`, the immutable packed cell tree
(:mod:`repro.index.packed`).  The data index is a second packed tree,
:attr:`NNCellIndex.data_snapshot`, of the live points: the fallback,
``k_nearest``'s sphere refinement, ``within_radius`` and the Point and
Sphere selectors search it.  Build, load and every write lay both out by
the same STR packing, the cells from the columns and the data from the
live points, so a written index holds what its reload lays out.  A write
publishes its points, live mask, columns and both snapshots in one
statement, but as five stores one after another: a query that reads
them while a write publishes can see two versions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine import batch as engine_batch
from ..geometry.distance import distances_to_points
from ..geometry.halfspace import HalfspaceSystem, bisector
from ..geometry.mbr import MBR
from ..index.packed import PackedTree, bulk_load, hs_k_nearest, sphere_query
from ..index.packed import rkv_nearest  # noqa: F401 - benchmarks/layers wraps it
from ..obs import metrics, workload
from ..obs.tracing import span
from ..storage.page import DEFAULT_PAGE_SIZE, record_reads
from .approximation import approximate_cell
from .candidates import CandidateSelector, SelectorKind, SelectorParams
from .constraints import cell_system
from .decomposition import DecompositionConfig, decompose_cell

__all__ = [
    "BuildConfig",
    "CELL_COLUMNS",
    "NNCellIndex",
    "QueryExplain",
    "QueryInfo",
    "approximate_system",
    "as_k",
    "as_query",
    "cell_snapshot",
    "compute_cell",
    "data_snapshot",
    "fallback_reason",
]

#: The cell columns: each offsets array -> the columns it cuts into
#: per-cell runs.  Cell ``i``, the ``i``-th live id, owns rows
#: ``offsets[i]:offsets[i + 1]`` of each column.
CELL_COLUMNS = {
    "sys_offsets": ("sys_b", "sys_ids"),
    "rect_offsets": ("rect_lows", "rect_highs"),
}


@dataclass(frozen=True)
class BuildConfig:
    """Construction parameters of an :class:`NNCellIndex`.

    The defaults mirror the paper's recommended configuration: Sphere
    candidate selection (the best quality-to-performance ratio for
    moderate dimensionality) and no decomposition; turn ``decompose`` on
    for sparse or clustered data (Section 3 / Figure 13).  ``page_size``
    sizes the nodes of both packed snapshots, the cells' and the
    points', as disk blocks.  An archive stores every field but
    ``data_space`` (its ``box`` member) and ``workers``.
    """

    selector: SelectorKind = SelectorKind.SPHERE
    selector_params: SelectorParams = field(default_factory=SelectorParams)
    decompose: bool = False
    decomposition: DecompositionConfig = field(
        default_factory=DecompositionConfig
    )
    page_size: int = DEFAULT_PAGE_SIZE
    query_atol: float = 1e-9
    data_space: "MBR | None" = None
    #: Cell-construction worker processes (repro.engine): 1 = serial
    #: (default), 0 = one per CPU core, N > 1 = exactly N.  The built
    #: index is identical for every value — see docs/scaling.md.
    workers: int = 1

    def __post_init__(self):
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")
        if self.query_atol < 0.0:
            raise ValueError("query_atol must be >= 0")
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 means all CPU cores)")

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

def data_snapshot(
    points: np.ndarray, live: np.ndarray, config: BuildConfig
) -> PackedTree:
    """The data index: the live points ``points[live]``, each under its
    id, packed by STR into pages of ``config.page_size`` bytes that hold
    a point's ``d`` coordinates and its id per entry."""
    entries = points[live]
    return bulk_load(
        entries, entries, live, config.page_size, 8 * points.shape[1] + 8
    )


def cell_snapshot(
    cells: "Dict[str, np.ndarray]", live: np.ndarray, config: BuildConfig
) -> PackedTree:
    """The cell tree: the rectangles of the cell columns ``cells``, each
    under its owner among the live ids ``live``, packed by STR into
    pages of ``config.page_size`` bytes that hold a rectangle and its
    owner's coordinates per entry."""
    lows = cells["rect_lows"]
    owners = np.repeat(live, np.diff(cells["rect_offsets"]))
    return bulk_load(
        lows, cells["rect_highs"], owners, config.page_size,
        3 * 8 * lows.shape[1] + 8,
    )


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


def as_k(k: Any) -> int:
    """``k`` as an int; ``ValueError`` unless it is an integer >= 1 (a
    bool is not an integer here)."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an int >= 1, not {k!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    return int(k)


def as_query(
    query: Sequence[float], dim: int, batch: bool = False
) -> np.ndarray:
    """``query`` as float64: one ``dim``-vector or, with ``batch``, an
    ``(m, dim)`` array of them.  Raises ``ValueError`` naming the query
    unless the shape fits and every coordinate is finite: no cell holds
    a NaN or an infinite point, so no path could answer it."""
    q = np.asarray(query, dtype=np.float64)
    if batch:
        q = np.atleast_2d(q)
        if q.ndim != 2 or q.shape[1] != dim:
            raise ValueError(f"queries must be (m, {dim})")
        if not np.isfinite(q).all():
            row = int(np.argmin(np.isfinite(q).all(axis=1)))
            raise ValueError(
                f"query {row} {q[row].tolist()} has a non-finite coordinate"
            )
    elif q.shape != (dim,):
        raise ValueError(f"query must be a {dim}-vector")
    elif not all(map(math.isfinite, q.tolist())):  # cheapest for one row
        raise ValueError(f"query {q.tolist()} has a non-finite coordinate")
    return q


def _cell_runs(
    system: HalfspaceSystem, rects: "List[MBR]"
) -> "Tuple[np.ndarray, ...]":
    """One computed cell as its runs of the four data columns; the
    system's normals are left out, as its opponents' ids fix them."""
    return (
        system.b, system.point_ids,
        np.stack([r.low for r in rects]), np.stack([r.high for r in rects]),
    )


def _stack_cells(
    runs: "Sequence[Tuple[np.ndarray, ...]]",
) -> "Dict[str, np.ndarray]":
    """The read-only :data:`CELL_COLUMNS` of consecutive cells, each given
    as its runs ``(sys_b, sys_ids, rect_lows, rect_highs)``."""
    names = [name for columns in CELL_COLUMNS.values() for name in columns]
    parts = dict(zip(names, zip(*runs)))
    cells: "Dict[str, np.ndarray]" = {}
    for offsets, columns in CELL_COLUMNS.items():
        counts = [run.shape[0] for run in parts[columns[0]]]
        cells[offsets] = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
        cells.update((name, np.concatenate(parts[name])) for name in columns)
    for column in cells.values():
        column.setflags(write=False)
    return cells


def _row_info(found: "engine_batch.Answer") -> QueryInfo:
    """The :class:`QueryInfo` of a one-row answer."""
    return QueryInfo(
        n_candidates=int(found.pair_owner.size),
        pages=found.pages,
        distance_computations=found.distance_computations,
        fallback=bool(found.fallback.size),
        retried_atol=bool(found.retried.size),
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
        #: The data space widened by ``query_atol``: the cells answer the
        #: queries inside it (:func:`repro.engine.batch.answer`).
        atol = self.config.query_atol
        self.query_space = MBR(self.box.low - atol, self.box.high + atol)
        if not (
            np.all(self.box.low - 1e-12 <= pts)
            and np.all(pts <= self.box.high + 1e-12)
        ):
            raise ValueError("all points must lie inside the data space")
        self._active = np.ones(pts.shape[0], dtype=bool)
        #: Every live cell's system and rectangles: the read-only
        #: :data:`CELL_COLUMNS` over the live ids in ascending order.  A
        #: write replaces them whole, with one assignment.
        self.cells: "Dict[str, np.ndarray]" = {}
        #: What every point query reads: the cell tree, packed and
        #: immutable, laid out from :attr:`cells` (:func:`cell_snapshot`).
        self.snapshot: "Optional[PackedTree]" = None
        #: What the data searches read: the live points, packed and
        #: immutable (:func:`data_snapshot`).
        self.data_snapshot: "Optional[PackedTree]" = None
        self._chaos = None  # page-read fault injector (repro.chaos)

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
        live = self.active_ids
        with span("build.nncell", n_points=n, dim=self.dim,
                  selector=self.config.selector.value,
                  workers=workers) as root:
            with span("build.data_tree"):
                self.data_snapshot = data_snapshot(
                    self.points, live, self.config
                )
            with span("build.cells", workers=workers):
                if workers > 1:
                    from ..engine.parallel import parallel_cells

                    runs = parallel_cells(
                        self.points, self.config, workers=workers
                    )
                else:
                    selector = self._selector_over(
                        self.points, self._active, self.data_snapshot
                    )
                    runs = [
                        _cell_runs(*compute_cell(
                            self.points, selector, self.box, self.config, i
                        ))
                        for i in range(n)
                    ]
                self.cells = _stack_cells(runs)
            with span("build.cell_tree"):
                self.snapshot = cell_snapshot(self.cells, live, self.config)
            n_rects = self.cells["rect_lows"].shape[0]
            root.set("n_rectangles", n_rects)
        metrics.inc("build.cells", n)
        metrics.inc("build.rectangles", n_rects)

    def _selector_over(
        self, points: np.ndarray, active: np.ndarray, data: PackedTree
    ) -> CandidateSelector:
        """The candidate selector of one version: ``points``, the live
        mask ``active`` and ``data``, the data snapshot of the live
        points."""
        return CandidateSelector(
            points, data, self.config.selector, self.config.selector_params,
            active=active, chaos=self._chaos,
        )

    # ------------------------------------------------------------------
    # The read snapshots
    # ------------------------------------------------------------------
    @classmethod
    def _restore(
        cls,
        points: np.ndarray,
        active: np.ndarray,
        config: BuildConfig,
        cells: "Dict[str, np.ndarray]",
    ) -> "NNCellIndex":
        """An index over validated archive columns (``load_index``).

        ``points`` holds every row, deleted ones included, so stored
        point ids stay valid.  Both snapshots are laid out as a build
        lays them out: the data snapshot from the live points and the
        cell snapshot from the columns.
        """
        index = cls(points[active], config)
        index.points = points.copy()
        index._active = active.copy()
        index.cells = cells
        live = index.active_ids
        index.data_snapshot = data_snapshot(index.points, live, config)
        index.snapshot = cell_snapshot(cells, live, config)
        return index

    def _cell_entries(self) -> "Tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Every cell rectangle as ``(lows, highs, owners)``."""
        cells = self.cells
        owners = np.repeat(self.active_ids, np.diff(cells["rect_offsets"]))
        return cells["rect_lows"], cells["rect_highs"], owners

    def _publish(
        self,
        points: np.ndarray,
        active: np.ndarray,
        data: PackedTree,
        changed: "Dict[int, Tuple[HalfspaceSystem, List[MBR]]]",
    ) -> None:
        """End of a write: splice the ``changed`` cells (id -> new system
        and rectangles) into new columns over the live ids of ``active``,
        the other cells' rows copied from :attr:`cells`, lay them out into
        a cell snapshot, then publish ``points``, ``active``, the columns
        and both snapshots, ``data`` the data snapshot: five stores, one
        after another, not one atomic swap."""
        cells = self.cells
        sys_at, rect_at = cells["sys_offsets"], cells["rect_offsets"]
        position = {pid: i for i, pid in enumerate(self.active_ids.tolist())}
        live = np.flatnonzero(active)
        runs = []
        for pid in live.tolist():
            if pid in changed:
                runs.append(_cell_runs(*changed[pid]))
                continue
            i = position[pid]
            rows = slice(sys_at[i], sys_at[i + 1])
            rects = slice(rect_at[i], rect_at[i + 1])
            runs.append((
                cells["sys_b"][rows], cells["sys_ids"][rows],
                cells["rect_lows"][rects], cells["rect_highs"][rects],
            ))
        cells = _stack_cells(runs)
        snapshot = cell_snapshot(cells, live, self.config)
        (
            self.points, self._active, self.cells, self.snapshot,
            self.data_snapshot,
        ) = points, active, cells, snapshot, data

    def set_page_chaos(self, injector) -> None:
        """Install (or, with ``None``, remove) a page-read fault injector.

        ``injector`` duck-types :class:`repro.chaos.ChaosInjector`.  The
        cell-tree walk and every search of the data snapshot run it for
        every node they touch, each with the flaky-read retries of
        :func:`repro.storage.page.chaos_read`.
        """
        self._chaos = injector

    def _rows(self, point_id: int) -> "Tuple[slice, slice]":
        """The rows of live ``point_id``'s system and rectangles in
        :attr:`cells`."""
        if not self._is_active(point_id):
            raise KeyError(f"point {point_id} is not in the index")
        i = int(np.count_nonzero(self._active[:point_id]))
        sys_at, rect_at = self.cells["sys_offsets"], self.cells["rect_offsets"]
        return (
            slice(sys_at[i], sys_at[i + 1]), slice(rect_at[i], rect_at[i + 1])
        )

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
        snapshot answers via branch-and-bound, with ``info.fallback``
        set.  A batch of one on the one query path
        (:func:`repro.engine.batch.answer`).
        """
        q = as_query(query, self.dim)
        started = time.perf_counter()
        snapshot, data, points = self.snapshot, self.data_snapshot, self.points
        with span("query.nearest", dim=self.dim) as root:
            found = engine_batch.answer(self, snapshot, data, points, q[None])
            info = _row_info(found)
            root.set("pages", info.pages)
            root.set("candidates", info.n_candidates)
        point_id, distance = int(found.ids[0]), float(found.dists[0])
        workload.record_query(
            q, point_id, distance, info,
            None if info.fallback else found.pair_owner, started,
            reads=found.walks,
        )
        return point_id, distance, info

    def k_nearest(
        self, query: Sequence[float], k: int
    ) -> "Tuple[List[int], List[float], QueryInfo]":
        """Exact k nearest neighbors via the solution-space index.

        The point query yields the order-1 candidates; their k-th best
        distance is a valid upper bound on the k-NN radius, so one sphere
        query on the data snapshot completes the answer exactly.  (The
        paper's future work proposes order-k cells — implemented in
        :mod:`repro.core.order_k` — for turning this into a single point
        query; this method is the practical hybrid.)  The order-1
        candidates are a one-row answer of the one query path, tolerance
        retry included; a query outside the data space, or with fewer
        than ``k`` candidates, is answered by best-first search on the
        data snapshot instead.  The answer is the k smallest points by
        ``(distance, id)`` — the order the sharded merge uses — on this
        path and on the fallback alike.  ``k`` must be an int >= 1
        (:func:`as_k`).

        The cell snapshot, the data snapshot and the points are read
        once, at the start, so the refinement searches the version the
        point query walked.  A write still publishes them one store at a
        time (:meth:`_publish`), so the first reads can straddle it; no
        read order is safe against both an insert and a delete.
        """
        k = as_k(k)
        q = as_query(query, self.dim)
        snapshot, data, points = self.snapshot, self.data_snapshot, self.points
        # The data snapshot holds exactly the live points of its version.
        k_eff = min(k, data.leaves.ids.size)
        with span("query.k_nearest", dim=self.dim, k=k_eff) as root:
            found = engine_batch.answer(
                self, snapshot, data, points, q[None], fallback=False
            )
            info = _row_info(found)
            cells = found.pair_owner
            if cells.size < k_eff:
                info.fallback = True
                with span("query.fallback"):
                    result = hs_k_nearest(data, q, k_eff, self._chaos)
                info.pages += result.pages
                info.distance_computations += result.distance_computations
                ids, dists, cells = result.ids, result.distances, None
            else:
                radius = float(np.sqrt(
                    np.partition(found.pair_dist_sq, k_eff - 1)[k_eff - 1]
                ))
                # Every k-NN member lies within the candidates' k-th
                # distance.
                with span("query.sphere_refinement"):
                    within, blocks = sphere_query(
                        data, q, radius + self.config.query_atol, self._chaos,
                    )
                info.pages += blocks
                within = np.unique(within)
                final = np.sqrt(distances_to_points(q, points[within]))
                info.distance_computations += int(within.size)
                # ``within`` is sorted, so a stable sort by distance
                # breaks exact ties by id.
                best = np.argsort(final, kind="stable")[:k_eff]
                ids, dists = within[best].tolist(), final[best].tolist()
            root.set("pages", info.pages)
            root.set("candidates", info.n_candidates)
        workload.record_k_nearest(info, cells, found.walks)
        return ids, dists, info

    def within_radius(
        self, center: Sequence[float], radius: float
    ) -> np.ndarray:
        """Ids of all points within Euclidean distance ``radius``,
        ascending.

        Range queries bypass the solution space (cells answer *nearest*
        questions); the data snapshot serves them directly.  ``center``
        must be finite (:func:`as_query`) and ``radius`` a number >= 0.
        """
        if not radius >= 0.0:  # NaN fails this too
            raise ValueError(f"radius must be >= 0, not {radius!r}")
        c = as_query(center, self.dim)
        data, points = self.data_snapshot, self.points
        candidates = np.unique(sphere_query(data, c, radius, self._chaos)[0])
        if candidates.size == 0:
            return candidates
        dist_sq = distances_to_points(c, points[candidates])
        return candidates[dist_sq <= radius * radius + 1e-12]

    def query_batch(
        self, queries: np.ndarray, batch_size: "int | None" = None
    ) -> "Tuple[np.ndarray, np.ndarray, engine_batch.BatchQueryInfo]":
        """Answer many NN queries in one batched index walk.

        Returns ``(ids, distances, info)`` where ``info`` aggregates page
        and candidate traffic over the whole batch.  Results are
        identical to calling :meth:`nearest` per row (both run the one
        query path, :func:`repro.engine.batch.answer`), but the tree
        descent is shared: every index node along the batch's paths is
        read *once*, not once per query.  ``batch_size`` caps the number
        of queries walked together, bounding the working-set memory of
        the vectorised containment tests.
        """
        return engine_batch.query_batch(self, queries, batch_size=batch_size)

    def nearest_batch(
        self, queries: np.ndarray
    ) -> "Tuple[np.ndarray, np.ndarray]":
        """Vectorised convenience: NN ids and distances for many queries."""
        ids, dists, __ = self.query_batch(queries)
        return ids, dists

    def explain(self, query: Sequence[float]) -> QueryExplain:
        """Why ``query``'s answer is what it is: a :class:`QueryExplain`.

        Reads the one-row answer :meth:`nearest` reads — the leaf
        rectangles containing the point (the last walk's pairs, in walk
        order), the deduplicated candidate owners with their distances,
        the tolerance retry, and which path produced the answer — so
        ``nearest_id``/``nearest_distance`` match :meth:`nearest`
        exactly.  The walks' pages are published; no query record is.

        Surfaced as ``python -m repro explain`` and as the serve JSONL
        protocol's ``"explain": true`` request field.
        """
        q = as_query(query, self.dim)
        snapshot, data, points = self.snapshot, self.data_snapshot, self.points
        with span("query.explain", dim=self.dim):
            found = engine_batch.answer(self, snapshot, data, points, q[None])
        info = _row_info(found)
        visited = 0
        if found.walks:
            page_ids = np.concatenate([w.page_ids() for w in found.walks])
            record_reads(page_ids, page_ids.size)
            visited = int(page_ids.size)
        rectangles: "List[Tuple[int, MBR]]" = []
        candidates: "List[Tuple[int, float]]" = []
        if not info.fallback:
            walk = found.walks[-1]
            leaves = walk.tree.leaves
            rectangles = [
                (owner, MBR(low, high)) for owner, low, high in zip(
                    walk.owner.tolist(), leaves.lows[:, walk.entry].T,
                    leaves.highs[:, walk.entry].T,
                )
            ]
            # The pairs ascend by id and the argsort is stable, so among
            # equidistant owners the lowest id comes first, as it wins
            # in nearest().
            dist = np.sqrt(found.pair_dist_sq)
            order = np.argsort(dist, kind="stable")
            candidates = list(zip(
                found.pair_owner[order].tolist(), dist[order].tolist()
            ))
        retried = info.retried_atol
        return QueryExplain(
            query=q, path=fallback_reason(info) or (
                "cell_retry" if retried else "cell"
            ),
            atol=self.config.retry_atol if retried else self.config.query_atol,
            retried_atol=retried, nearest_id=int(found.ids[0]),
            nearest_distance=float(found.dists[0]), rectangles=rectangles,
            candidates=candidates, nodes_visited=visited, pages=info.pages,
        )

    # ==================================================================
    # Dynamic updates
    # ==================================================================
    def insert(self, point: Sequence[float]) -> int:
        """Insert a new data point; returns its id.

        Existing NN-cells can only shrink (their systems gain one
        bisector), so the update is local: only cells whose approximation
        is not entirely on the old owner's side of the new bisector are
        recomputed.  The new point's cell is selected over the version
        the insert publishes.
        """
        p = np.asarray(point, dtype=np.float64)
        if p.shape != (self.dim,):
            raise ValueError(f"point must be a {self.dim}-vector")
        if not self.box.contains_point(p, atol=1e-12):
            raise ValueError("point lies outside the data space")
        new_id = self.points.shape[0]
        points = np.vstack([self.points, p[None, :]])
        active = np.append(self._active, True)
        data = data_snapshot(points, np.flatnonzero(active), self.config)

        changed = {}
        for cell_id in self._cells_possibly_shrunk_by(p):
            a, b = bisector(points[cell_id], p)
            system = self.constraint_system(cell_id).with_constraint(
                a, b, point_id=new_id
            )
            changed[cell_id] = (
                system,
                approximate_system(system, points[cell_id], self.config),
            )
        changed[new_id] = compute_cell(
            points, self._selector_over(points, active, data), self.box,
            self.config, new_id,
        )
        self._publish(points, active, data, changed)
        return new_id

    def _cells_possibly_shrunk_by(self, p: np.ndarray) -> "List[int]":
        """Owners, ascending, whose stored rectangles may reach into the
        region now claimed by ``p``.

        A rectangle ``r`` owned by ``c`` is certainly unaffected when
        ``r`` lies inside the half-space of points closer to ``c`` than
        to ``p`` (:func:`repro.geometry.halfspace.box_inside_halfspace`'s
        corner test).  One test covers every rectangle at once.  Nothing
        is pruned by position: a decomposed piece need not contain its
        owner, so no bound on where an owner's pieces lie holds.
        """
        lows, highs, owners = self._cell_entries()
        sites = self.points[owners]
        # bisector(sites[i], p) for every row i: a . x <= b.
        a = 2.0 * (p - sites)
        b = float(np.dot(p, p)) - np.einsum("ij,ij->i", sites, sites)
        worst = np.einsum("ij,ij->i", np.where(a > 0.0, highs, lows), a)
        return np.unique(owners[worst > b + 1e-9]).tolist()

    def delete(self, point_id: int) -> None:
        """Remove a point; the cells that referenced it are recomputed
        over the version the delete publishes (they can only grow, so
        recomputation keeps the superset guarantee)."""
        if not self._is_active(point_id):
            raise KeyError(f"point {point_id} is not in the index")
        if int(np.sum(self._active)) == 1:
            raise ValueError("cannot delete the last remaining point")
        active = self._active.copy()
        active[point_id] = False
        data = data_snapshot(self.points, np.flatnonzero(active), self.config)
        selector = self._selector_over(self.points, active, data)

        # The cells whose systems hold a row of the removed point: one
        # comparison over every row, then each row's cell by its offset.
        cells = self.cells
        rows = np.flatnonzero(cells["sys_ids"] == point_id)
        at = np.searchsorted(cells["sys_offsets"], rows, side="right") - 1
        changed = {
            cell_id: compute_cell(
                self.points, selector, self.box, self.config, cell_id
            )
            for cell_id in np.unique(self.active_ids[at]).tolist()
        }
        self._publish(self.points, active, data, changed)

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
        __, rects = self._rows(point_id)
        return [
            MBR(low, high) for low, high in zip(
                self.cells["rect_lows"][rects], self.cells["rect_highs"][rects]
            )
        ]

    def constraint_system(self, point_id: int) -> HalfspaceSystem:
        """The bisector constraint system backing one cell, read-only.

        ``b`` and the opponents' ids are views of :attr:`cells`; each
        row's normal ``2 (p_j - p_i)`` is computed here from the points,
        exactly as the build and the writes computed it.
        """
        rows, __ = self._rows(point_id)
        ids = self.cells["sys_ids"][rows]
        a = 2.0 * (self.points[ids] - self.points[point_id])
        a.setflags(write=False)
        return HalfspaceSystem(a, self.cells["sys_b"][rows], self.box, ids)

    def all_cell_rectangles(self) -> "List[Tuple[int, MBR]]":
        """Every stored rectangle as ``(owner id, rect)`` pairs."""
        lows, highs, owners = self._cell_entries()
        return [
            (owner, MBR(low, high))
            for owner, low, high in zip(owners.tolist(), lows, highs)
        ]

    def stats(self) -> "Dict[str, float]":
        """Sizing diagnostics: rectangle counts, volumes, tree shape."""
        lows, highs, __ = self._cell_entries()
        total_volume = sum(np.prod(highs - lows, axis=1).tolist())
        box_volume = self.box.volume()
        return {
            "n_points": float(len(self)),
            "n_rectangles": float(lows.shape[0]),
            "expected_candidates": total_volume / box_volume,
            "cell_tree_height": float(self.snapshot.height),
            "data_tree_height": float(self.data_snapshot.height),
            "cell_tree_blocks": float(self.snapshot.total_blocks()),
        }
