"""Measurement harness for the paper's experiments.

The paper reports *total search time*, decomposed into CPU time and page
accesses (Figure 9/12).  On the 1998 testbed total time was wall-clock on
a real disk; our storage layer is simulated, so total time is modelled as

    ``total = cpu_seconds + page_accesses * io_seconds_per_block``

with a configurable per-block I/O cost (default 10 ms — a late-1990s disk
seek+transfer, the regime the paper was measured in).  CPU time is real
measured wall-clock of the in-process query code.  Both components are
reported separately so the *shape* comparisons (who wins where) do not
depend on the I/O constant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence

import numpy as np

from ..core.nncell_index import NNCellIndex
from ..index.linear_scan import LinearScan
from ..index.nnsearch import hs_nearest, rkv_nearest
from ..index.rstar import RStarTree
from ..obs import metrics as obs_metrics
from .reporting import ResultTable

__all__ = [
    "CostModel",
    "QueryMeasurement",
    "batch_throughput_table",
    "measure_nncell_batch_queries",
    "measure_nncell_queries",
    "measure_tree_queries",
    "measure_scan_queries",
    "Timer",
]

DEFAULT_IO_SECONDS = 0.010  # 10 ms per block: a 1998-era disk access


@dataclass(frozen=True)
class CostModel:
    """Translates (cpu seconds, page accesses) into total search time."""

    io_seconds_per_block: float = DEFAULT_IO_SECONDS

    def total_seconds(self, cpu_seconds: float, pages: int) -> float:
        """Modelled wall-clock: CPU plus per-block I/O cost."""
        return cpu_seconds + pages * self.io_seconds_per_block


@dataclass
class QueryMeasurement:
    """Aggregated measurements over a query workload."""

    method: str
    n_queries: int = 0
    cpu_seconds: float = 0.0
    pages: int = 0
    distance_computations: int = 0
    candidates: int = 0
    extra: "Dict[str, float]" = field(default_factory=dict)
    #: counter increments observed during the workload (empty unless
    #: :mod:`repro.obs.metrics` was enabled while measuring)
    metrics: "Dict[str, float]" = field(default_factory=dict)

    def total_seconds(self, cost_model: "CostModel | None" = None) -> float:
        """Modelled total time of the whole workload."""
        model = cost_model or CostModel()
        return model.total_seconds(self.cpu_seconds, self.pages)

    def per_query(self) -> "Dict[str, float]":
        """Per-query averages of every counter."""
        n = max(self.n_queries, 1)
        return {
            "cpu_ms": 1e3 * self.cpu_seconds / n,
            "pages": self.pages / n,
            "distance_computations": self.distance_computations / n,
            "candidates": self.candidates / n,
        }

    def throughput_qps(
        self, cost_model: "CostModel | None" = None
    ) -> float:
        """Modelled queries per second over the whole workload."""
        total = self.total_seconds(cost_model)
        if total <= 0.0:
            return float("inf") if self.n_queries else 0.0
        return self.n_queries / total


class Timer:
    """Minimal context-manager stopwatch."""

    def __enter__(self) -> "Timer":
        self.seconds = 0.0
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._start


def measure_nncell_queries(
    index: NNCellIndex, queries: np.ndarray
) -> QueryMeasurement:
    """Run a workload through :meth:`NNCellIndex.nearest`.  The index
    reads packed snapshots, not a buffer pool, so every query runs
    cold."""
    meas = QueryMeasurement("nn-cell")
    fallbacks = 0
    before = obs_metrics.snapshot() if obs_metrics.enabled() else None
    for q in np.atleast_2d(queries):
        with Timer() as timer:
            __, __, info = index.nearest(q)
        meas.n_queries += 1
        meas.cpu_seconds += timer.seconds
        meas.pages += info.pages
        meas.distance_computations += info.distance_computations
        meas.candidates += info.n_candidates
        fallbacks += int(info.fallback)
    meas.extra["fallbacks"] = float(fallbacks)
    if before is not None:
        meas.metrics = obs_metrics.delta_since(before)
    return meas


def measure_tree_queries(
    tree: RStarTree,
    queries: np.ndarray,
    method: str = "rkv",
    drop_cache: bool = True,
) -> QueryMeasurement:
    """Run a workload through branch-and-bound NN search on a tree."""
    algorithms: "Dict[str, Callable]" = {"rkv": rkv_nearest, "hs": hs_nearest}
    if method not in algorithms:
        raise ValueError(f"method must be one of {sorted(algorithms)}")
    search = algorithms[method]
    meas = QueryMeasurement(method)
    before = obs_metrics.snapshot() if obs_metrics.enabled() else None
    for q in np.atleast_2d(queries):
        if drop_cache:
            tree.pages.drop_cache()
        with Timer() as timer:
            result = search(tree, q)
        meas.n_queries += 1
        meas.cpu_seconds += timer.seconds
        meas.pages += result.pages
        meas.distance_computations += result.distance_computations
    if before is not None:
        meas.metrics = obs_metrics.delta_since(before)
    return meas


def measure_nncell_batch_queries(
    index: NNCellIndex,
    queries: np.ndarray,
    batch_size: "int | None" = None,
) -> QueryMeasurement:
    """Run a workload through :meth:`NNCellIndex.query_batch`.

    The batched counterpart of :func:`measure_nncell_queries`: the walk
    amortises page reads across the whole workload — the regime a
    high-traffic serving deployment runs in.
    """
    qs = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    meas = QueryMeasurement("nn-cell-batch")
    before = obs_metrics.snapshot() if obs_metrics.enabled() else None
    with Timer() as timer:
        __, __, info = index.query_batch(qs, batch_size=batch_size)
    meas.n_queries = info.n_queries
    meas.cpu_seconds = timer.seconds
    meas.pages = info.pages
    meas.distance_computations = info.distance_computations
    meas.candidates = info.n_candidates
    meas.extra["fallbacks"] = float(info.fallbacks)
    meas.extra["batches"] = float(info.n_batches)
    if before is not None:
        meas.metrics = obs_metrics.delta_since(before)
    return meas


def batch_throughput_table(
    index: NNCellIndex,
    queries: np.ndarray,
    batch_sizes: "Sequence[int | None]" = (16, 64, None),
    cost_model: "CostModel | None" = None,
) -> ResultTable:
    """Serial vs batched throughput of one index over one workload.

    One row per mode: the serial per-query loop first (the baseline the
    speedup column is relative to), then :meth:`NNCellIndex.query_batch`
    at each requested ``batch_size`` (``None`` = the whole workload in
    one walk).  Throughput is modelled via ``cost_model`` so the I/O
    amortisation is visible alongside CPU vectorisation gains.
    """
    qs = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    table = ResultTable(
        "Query throughput: serial vs batched",
        ["mode", "batch_size", "cpu_ms_per_query", "pages_per_query",
         "throughput_qps", "speedup_over_serial"],
    )
    serial = measure_nncell_queries(index, qs)
    serial_qps = serial.throughput_qps(cost_model)
    table.add_row(
        mode="serial",
        batch_size=1,
        cpu_ms_per_query=serial.per_query()["cpu_ms"],
        pages_per_query=serial.per_query()["pages"],
        throughput_qps=serial_qps,
        speedup_over_serial=1.0,
    )
    for batch_size in batch_sizes:
        meas = measure_nncell_batch_queries(index, qs, batch_size=batch_size)
        qps = meas.throughput_qps(cost_model)
        table.add_row(
            mode="batch",
            batch_size=qs.shape[0] if batch_size is None else batch_size,
            cpu_ms_per_query=meas.per_query()["cpu_ms"],
            pages_per_query=meas.per_query()["pages"],
            throughput_qps=qps,
            speedup_over_serial=qps / serial_qps if serial_qps else float("inf"),
        )
    return table


def measure_scan_queries(
    scan: LinearScan, queries: np.ndarray, drop_cache: bool = True
) -> QueryMeasurement:
    """Run a workload through the sequential-scan baseline."""
    meas = QueryMeasurement("linear-scan")
    before = obs_metrics.snapshot() if obs_metrics.enabled() else None
    for q in np.atleast_2d(queries):
        if drop_cache:
            scan.pages.drop_cache()
        with Timer() as timer:
            result = scan.nearest(q)
        meas.n_queries += 1
        meas.cpu_seconds += timer.seconds
        meas.pages += result.pages
        meas.distance_computations += result.distance_computations
    if before is not None:
        meas.metrics = obs_metrics.delta_since(before)
    return meas
