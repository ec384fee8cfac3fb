"""Reproductions of every figure in the paper's evaluation (Section 4).

Each ``figure*`` function regenerates the corresponding figure's series as
a :class:`repro.eval.reporting.ResultTable` whose rows mirror the paper's
x-axis points.  Default problem sizes are scaled down from the paper's
(100,000+ points on 1998 C++) to pure-Python scale; every function takes
the size parameters as keywords so full-scale runs are possible.  The
benchmark harness under ``benchmarks/`` calls these with its own defaults
and prints the tables; EXPERIMENTS.md records paper-vs-measured shapes.

Figure map:

* Figure 2  -> :func:`figure2_cell_gallery` (2-d cell/approximation stats
  per distribution)
* Figure 4  -> :func:`figure4_selector_tradeoff` (construction performance
  and overlap of Correct/Point/Sphere/NN-Direction vs. dimension)
* Figure 5  -> :func:`figure5_quality_performance`
* Figures 7-9 -> :func:`figure7_to_9_dimension_sweep` (one sweep feeds the
  total-time, speed-up and pages-vs-CPU views)
* Figure 10 -> :func:`figure10_size_sweep`
* Figures 11-12 -> :func:`figure11_12_fourier`
* Figure 13 -> :func:`figure13_decomposition`
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

from ..core.candidates import SelectorKind
from ..core.decomposition import DecompositionConfig
from ..core.nncell_index import BuildConfig, NNCellIndex
from ..core.quality import average_overlap, quality_to_performance
from ..data.fourier import fourier_points
from ..data.synthetic import query_points, uniform_points
from ..geometry.mbr import MBR
from ..index.bulk import bulk_load
from ..index.rstar import RStarTree
from ..index.xtree import XTree
from ..obs import metrics as obs_metrics
from .harness import (
    CostModel,
    QueryMeasurement,
    Timer,
    measure_nncell_queries,
    measure_tree_queries,
)
from .metrics import speedup_percent
from .reporting import ResultTable

__all__ = [
    "ComparisonRun",
    "compare_methods",
    "figure2_cell_gallery",
    "figure4_selector_tradeoff",
    "figure5_quality_performance",
    "figure7_to_9_dimension_sweep",
    "figure10_size_sweep",
    "figure11_12_fourier",
    "figure13_decomposition",
]

#: the selector the paper recommends for high-dimensional data (best
#: quality-to-performance at d >= 12, Figure 5) — used for the search-time
#: experiments where index construction is off the measured path.
SEARCH_SELECTOR = SelectorKind.NN_DIRECTION


# ======================================================================
# Shared machinery
# ======================================================================

@dataclass
class ComparisonRun:
    """One dataset's measurements across all competing methods."""

    n_points: int
    dim: int
    build_seconds: float
    measurements: "Dict[str, QueryMeasurement]" = field(default_factory=dict)

    def total_seconds(self, method: str, cost_model: CostModel) -> float:
        """Modelled total search time of one method over the workload."""
        return self.measurements[method].total_seconds(cost_model)


def compare_methods(
    points: np.ndarray,
    queries: np.ndarray,
    build_config: "BuildConfig | None" = None,
    methods: "Sequence[str]" = ("nn-cell", "rstar", "xtree"),
    cache_pages: int = 32,
) -> ComparisonRun:
    """Build each competitor over ``points`` and measure ``queries``.

    Methods: ``"nn-cell"`` (the paper's approach, point query on the
    solution space), ``"rstar"``, ``"xtree"`` and ``"guttman"``
    (branch-and-bound NN search on the respective data index).  Every
    tree gets the same buffer-pool budget, ``cache_pages``, as in the
    paper; the NN-cell index reads packed snapshots and no buffer pool,
    and its measurement counts every page read, as the trees' does.
    """
    from ..index.guttman import GuttmanRTree

    points = np.asarray(points, dtype=np.float64)
    n, dim = points.shape
    run = ComparisonRun(n_points=n, dim=dim, build_seconds=0.0)
    ids = np.arange(n)
    tree_classes = {
        "rstar": RStarTree,
        "xtree": XTree,
        "guttman": GuttmanRTree,
    }

    for method in methods:
        if method == "nn-cell":
            config = build_config or BuildConfig(selector=SEARCH_SELECTOR)
            with Timer() as timer:
                index = NNCellIndex.build(points, config)
            run.build_seconds += timer.seconds
            run.measurements[method] = measure_nncell_queries(index, queries)
        elif method in tree_classes:
            tree_cls = tree_classes[method]
            tree = tree_cls(
                dim,
                cache_pages=cache_pages,
                leaf_entry_bytes=8 * dim + 8,  # data pages hold points
            )
            with Timer() as timer:
                bulk_load(tree, points, points, ids)
            run.build_seconds += timer.seconds
            run.measurements[method] = measure_tree_queries(
                tree, queries, method="rkv"
            )
        else:
            raise ValueError(f"unknown method {method!r}")
    return run


def _cells_for(
    points: np.ndarray,
    selector: SelectorKind,
    decompose: bool = False,
    k_max: int = 100,
    heuristic: str = "extent",
    page_size: int = 4096,
) -> "tuple[NNCellIndex, float]":
    config = BuildConfig(
        selector=selector,
        decompose=decompose,
        decomposition=DecompositionConfig(k_max=k_max, heuristic=heuristic),
        page_size=page_size,
    )
    with Timer() as timer:
        index = NNCellIndex.build(points, config)
    return index, timer.seconds


# ======================================================================
# Figure 2 — NN-cells and their MBR approximations (2-d gallery)
# ======================================================================

def figure2_cell_gallery(
    n_points: int = 16, seed: int = 2
) -> ResultTable:
    """Quantifies Figure 2: approximation quality per 2-d distribution.

    For the regular grid the MBR approximations coincide with the cells
    (overlap 0); iid-uniform data overlaps mildly; the sparse population
    (few points along the diagonal, as in the paper's Figure 2e where the
    cells stretch across the whole data space) approaches total overlap.
    The gallery script ``examples/cell_gallery.py`` draws the diagrams.
    """
    from ..data.synthetic import diagonal_points, grid_points

    table = ResultTable(
        "Figure 2: MBR approximations of NN-cells by distribution (2-d)",
        ["distribution", "n_points", "expected_candidates", "overlap"],
    )
    per_axis = max(2, int(round(n_points ** 0.5)))
    datasets = {
        "uniform": uniform_points(n_points, 2, seed=seed),
        "grid": grid_points(per_axis, 2),
        "sparse": diagonal_points(max(4, n_points // 2), 2, jitter=0.05,
                                  seed=seed),
    }
    box = MBR.unit_cube(2)
    for name, pts in datasets.items():
        index, __ = _cells_for(pts, SelectorKind.CORRECT)
        rects = [rect for __, rect in index.all_cell_rectangles()]
        overlap = average_overlap(rects, box)
        table.add_row(
            distribution=name,
            n_points=pts.shape[0],
            expected_candidates=overlap + 1.0,
            overlap=overlap,
        )
    table.notes.append(
        "grid must give overlap ~0 (best case); sparse the largest overlap"
        " (worst case)"
    )
    return table


# ======================================================================
# Figures 4 & 5 — the four candidate-selection algorithms
# ======================================================================

def figure4_selector_tradeoff(
    dims: "Sequence[int]" = (4, 8, 12, 16),
    n_points: int = 150,
    seed: int = 4,
    page_size: int = 1024,
) -> ResultTable:
    """Construction performance vs. approximation overlap per selector.

    Paper shape: time per point grows with d for every strategy and ranks
    Correct > Sphere ~ Point > NN-Direction, while overlap ranks the
    opposite way (the most accurate algorithm is the slowest).

    Besides wall-clock ``build_seconds`` (noisy on shared machines, kept
    for the paper's Figure 4 axis) the table reports a *deterministic*
    cost model of construction work from the metrics registry:
    ``build_lp_rows`` (total constraint rows shipped to the LP solver —
    the counted CPU work of the 2d-LPs-per-cell pipeline),
    ``build_pages`` (page accesses during construction, dominated by the
    Point/Sphere selectors' data-index queries) and their sum
    ``build_cost``, the machine-independent analogue of the paper's
    CPU + I/O decomposition.

    ``page_size`` defaults below the experiment default (1 KB vs 4 KB) so
    the Point/Sphere selectors operate on several data pages even at the
    scaled-down database sizes; at the paper's 100k+ points the 4 KB
    default produces the same granularity.
    """
    table = ResultTable(
        "Figure 4: performance and overlap of the four selectors",
        ["dim", "algorithm", "build_seconds", "build_lp_rows",
         "build_pages", "build_cost", "overlap", "mean_constraints"],
    )
    for dim in dims:
        points = uniform_points(n_points, dim, seed=seed)
        box = MBR.unit_cube(dim)
        for kind in (
            SelectorKind.CORRECT,
            SelectorKind.POINT,
            SelectorKind.SPHERE,
            SelectorKind.NN_DIRECTION,
        ):
            with obs_metrics.collecting() as registry:
                before = registry.snapshot()
                index, seconds = _cells_for(points, kind,
                                            page_size=page_size)
                delta = registry.delta_since(before)
            lp_rows = delta.get("lp.constraint_rows", 0.0)
            pages = delta.get("storage.logical_reads", 0.0)
            rects = [rect for __, rect in index.all_cell_rectangles()]
            mean_constraints = float(
                np.mean(
                    [
                        index.constraint_system(i).n_constraints
                        for i in index.active_ids
                    ]
                )
            )
            table.add_row(
                dim=dim,
                algorithm=kind.value,
                build_seconds=seconds,
                build_lp_rows=lp_rows,
                build_pages=pages,
                build_cost=lp_rows + pages,
                overlap=average_overlap(rects, box),
                mean_constraints=mean_constraints,
            )
    table.notes.append(
        "paper shape: Correct slowest/most accurate, NN-Direction"
        " fastest/least accurate; both columns grow with dim"
    )
    table.notes.append(
        "build_cost = LP constraint rows + page accesses: the"
        " deterministic construction-work model backing the shape tests"
    )
    return table


def figure5_quality_performance(
    figure4: "ResultTable | None" = None, **kwargs
) -> ResultTable:
    """Quality-to-performance ratio of the four selectors (Figure 5).

    Paper shape: Sphere wins at low dimensions (4, 8); NN-Direction wins
    at high dimensions (12, 16).
    """
    source = figure4 or figure4_selector_tradeoff(**kwargs)
    table = ResultTable(
        "Figure 5: quality-to-performance ratio of the four selectors",
        ["dim", "algorithm", "quality_to_performance"],
    )
    for row in source.rows:
        table.add_row(
            dim=row["dim"],
            algorithm=row["algorithm"],
            quality_to_performance=quality_to_performance(
                float(row["overlap"]), float(row["build_seconds"])
            ),
        )
    table.notes.append(
        "paper shape: Sphere best at d in {4, 8}; NN-Direction best at"
        " d in {12, 16}"
    )
    return table


# ======================================================================
# Figures 7, 8, 9 — search-time comparison over dimensionality
# ======================================================================

def figure7_to_9_dimension_sweep(
    dims: "Sequence[int]" = (4, 6, 8, 10, 12, 14, 16),
    n_points: int = 1000,
    n_queries: int = 40,
    seed: int = 7,
    cost_model: "CostModel | None" = None,
    selector: SelectorKind = SEARCH_SELECTOR,
) -> ResultTable:
    """Total search time / speed-up / pages / CPU over dimensionality.

    One sweep provides all three figures: Figure 7 reads the
    ``*_total_s`` columns, Figure 8 the ``speedup_vs_rstar`` column and
    Figure 9 the ``*_pages`` / ``*_cpu_ms`` columns.

    Paper shape: comparable at low d; the NN-cell approach increasingly
    faster at high d (>3x over the R*-tree at d = 16), always with lower
    CPU, beating the R*-tree (not necessarily the X-tree) on page counts.
    """
    model = cost_model or CostModel()
    table = ResultTable(
        "Figures 7-9: NN-cell vs R*-tree vs X-tree over dimensionality",
        [
            "dim",
            "nncell_total_s", "rstar_total_s", "xtree_total_s",
            "speedup_vs_rstar", "speedup_vs_xtree",
            "nncell_pages", "rstar_pages", "xtree_pages",
            "nncell_cpu_ms", "rstar_cpu_ms", "xtree_cpu_ms",
        ],
    )
    for dim in dims:
        points = uniform_points(n_points, dim, seed=seed)
        queries = query_points(n_queries, dim, seed=seed + 1)
        run = compare_methods(
            points,
            queries,
            build_config=BuildConfig(selector=selector),
        )
        per = {m: run.measurements[m].per_query() for m in run.measurements}
        totals = {
            m: run.total_seconds(m, model) / n_queries
            for m in run.measurements
        }
        table.add_row(
            dim=dim,
            nncell_total_s=totals["nn-cell"],
            rstar_total_s=totals["rstar"],
            xtree_total_s=totals["xtree"],
            speedup_vs_rstar=speedup_percent(totals["rstar"], totals["nn-cell"]),
            speedup_vs_xtree=speedup_percent(totals["xtree"], totals["nn-cell"]),
            nncell_pages=per["nn-cell"]["pages"],
            rstar_pages=per["rstar"]["pages"],
            xtree_pages=per["xtree"]["pages"],
            nncell_cpu_ms=per["nn-cell"]["cpu_ms"],
            rstar_cpu_ms=per["rstar"]["cpu_ms"],
            xtree_cpu_ms=per["xtree"]["cpu_ms"],
        )
    table.notes.append(
        "paper shape: NN-cell total time lowest, gap widening with dim;"
        " speed-up over the R*-tree grows past 300%"
    )
    return table


# ======================================================================
# Figure 10 — search-time comparison over database size (d = 10)
# ======================================================================

def figure10_size_sweep(
    sizes: "Sequence[int]" = (500, 1000, 2000, 4000),
    dim: int = 10,
    n_queries: int = 40,
    seed: int = 10,
    cost_model: "CostModel | None" = None,
) -> ResultTable:
    """Total time / pages / CPU over database size at fixed dimension.

    Paper shape (N = 50k..200k at d = 10, scaled here): the NN-cell
    approach is significantly faster throughout and grows roughly
    logarithmically in N, while the trees' costs grow faster.
    """
    model = cost_model or CostModel()
    table = ResultTable(
        "Figure 10: NN-cell vs R*-tree vs X-tree over database size",
        [
            "n_points",
            "nncell_total_s", "rstar_total_s", "xtree_total_s",
            "nncell_pages", "rstar_pages", "xtree_pages",
            "nncell_cpu_ms", "rstar_cpu_ms", "xtree_cpu_ms",
        ],
    )
    queries = query_points(n_queries, dim, seed=seed + 1)
    for n_points in sizes:
        points = uniform_points(n_points, dim, seed=seed)
        run = compare_methods(points, queries)
        per = {m: run.measurements[m].per_query() for m in run.measurements}
        totals = {
            m: run.total_seconds(m, model) / n_queries
            for m in run.measurements
        }
        table.add_row(
            n_points=n_points,
            nncell_total_s=totals["nn-cell"],
            rstar_total_s=totals["rstar"],
            xtree_total_s=totals["xtree"],
            nncell_pages=per["nn-cell"]["pages"],
            rstar_pages=per["rstar"]["pages"],
            xtree_pages=per["xtree"]["pages"],
            nncell_cpu_ms=per["nn-cell"]["cpu_ms"],
            rstar_cpu_ms=per["rstar"]["cpu_ms"],
            xtree_cpu_ms=per["xtree"]["cpu_ms"],
        )
    table.notes.append(
        "paper shape: NN-cell fastest at every size, near-logarithmic in N"
    )
    return table


# ======================================================================
# Figures 11 & 12 — real (Fourier) data
# ======================================================================

def figure11_12_fourier(
    sizes: "Sequence[int]" = (500, 1000, 2000, 4000),
    dim: int = 8,
    n_queries: int = 40,
    seed: int = 11,
    cost_model: "CostModel | None" = None,
) -> ResultTable:
    """NN-cell vs X-tree on (synthetic) Fourier data, over database size.

    Paper shape: the NN-cell approach beats the X-tree on *both* page
    accesses and CPU time on real data — the clustered distribution makes
    the cell approximations tighter than in the uniform case.
    """
    model = cost_model or CostModel()
    table = ResultTable(
        "Figures 11-12: NN-cell vs X-tree on Fourier data",
        [
            "n_points",
            "nncell_total_s", "xtree_total_s", "speedup_vs_xtree",
            "nncell_pages", "xtree_pages",
            "nncell_cpu_ms", "xtree_cpu_ms",
        ],
    )
    for n_points in sizes:
        points = fourier_points(n_points, dim=dim, seed=seed)
        rng = np.random.default_rng(seed + 1)
        # Query near the data distribution: perturbed database points.
        base = points[rng.integers(points.shape[0], size=n_queries)]
        queries = np.clip(
            base + rng.normal(scale=0.05, size=base.shape), 0.0, 1.0
        )
        run = compare_methods(points, queries, methods=("nn-cell", "xtree"))
        per = {m: run.measurements[m].per_query() for m in run.measurements}
        totals = {
            m: run.total_seconds(m, model) / n_queries
            for m in run.measurements
        }
        table.add_row(
            n_points=n_points,
            nncell_total_s=totals["nn-cell"],
            xtree_total_s=totals["xtree"],
            speedup_vs_xtree=speedup_percent(
                totals["xtree"], totals["nn-cell"]
            ),
            nncell_pages=per["nn-cell"]["pages"],
            xtree_pages=per["xtree"]["pages"],
            nncell_cpu_ms=per["nn-cell"]["cpu_ms"],
            xtree_cpu_ms=per["xtree"]["cpu_ms"],
        )
    table.notes.append(
        "paper shape: NN-cell wins both pages and CPU on real data"
        " (speed-up up to ~250%)"
    )
    return table


# ======================================================================
# Figure 13 — effect of decomposing the approximations
# ======================================================================

def figure13_decomposition(
    dims: "Sequence[int]" = (4, 8, 12),
    n_points: int = 120,
    seed: int = 13,
    k_max: int = 16,
    heuristic: str = "extent",
) -> ResultTable:
    """Overlap of exact vs decomposed approximations (Correct selector).

    Paper shape: decomposition reduces overlap at every dimension, with
    the improvement growing in the dimensionality.
    """
    table = ResultTable(
        "Figure 13: overlap of exact vs decomposed approximations",
        ["dim", "overlap_exact", "overlap_decomposed", "improvement"],
    )
    for dim in dims:
        points = uniform_points(n_points, dim, seed=seed)
        box = MBR.unit_cube(dim)
        exact_index, __ = _cells_for(points, SelectorKind.CORRECT)
        exact_rects = [r for __, r in exact_index.all_cell_rectangles()]
        overlap_exact = average_overlap(exact_rects, box)
        dec_index, __ = _cells_for(
            points,
            SelectorKind.CORRECT,
            decompose=True,
            k_max=k_max,
            heuristic=heuristic,
        )
        dec_rects = [r for __, r in dec_index.all_cell_rectangles()]
        overlap_dec = average_overlap(dec_rects, box)
        table.add_row(
            dim=dim,
            overlap_exact=overlap_exact,
            overlap_decomposed=overlap_dec,
            improvement=(
                overlap_exact / overlap_dec if overlap_dec > 0 else np.inf
            ),
        )
    table.notes.append(
        "paper shape: decomposed overlap strictly below exact overlap,"
        " improvement growing with dim"
    )
    return table
