"""Parallel cell construction: the ``2d``-LP workload across processes.

Precomputation is the expensive half of the paper's trade (Section 4
reports build times in minutes); each point's cell is computed from
read-only state — the point set, its data snapshot, the selector — so
the work chunks cleanly.  This module fans the per-point pipeline of
:mod:`repro.core.nncell_index` (``compute_cell``: candidate selection →
constraint system → ``2d`` LPs → optional decomposition) out over a
:class:`~concurrent.futures.ProcessPoolExecutor`.  The simplex is Python
over tiny numpy tableaux, so an LP holds the GIL for nearly all of its
time: only separate processes solve two LPs at once.  A worker sends
back each cell as its runs of the index's cell columns (``b``, the
opponents' ids and the rectangles), not as a constraint system: the
normals follow from the ids, so the parent never needs them.

**Determinism.**  Every worker rebuilds the same state from the same
inputs with the same code (:class:`CellWorkshop` calls the very
functions the serial build uses), LP solves are deterministic, and chunk
results are merged in submission order — so the cells, and therefore the
cell snapshot, are *bit-identical* to a serial build for any worker
count.  ``tests/engine/test_parallel_build.py`` asserts this.

Worker observability: worker processes run with instrumentation turned
off (a forked worker's metrics, spans and events would land in copies of
the parent's sinks that nobody reads), so each chunk result carries its
own wall time and LP-call count; the parent re-emits them as
``build.worker_chunk`` spans and ``build.parallel.*`` metrics.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..core.approximation import lp_call_count
from ..core.candidates import CandidateSelector
from ..core.nncell_index import (
    BuildConfig,
    _cell_runs,
    compute_cell,
    data_snapshot,
)
from ..geometry.halfspace import HalfspaceSystem
from ..geometry.mbr import MBR
from ..obs import analytics, events, metrics, tracing
from ..obs.tracing import span

__all__ = [
    "CellWorkshop",
    "ChunkResult",
    "chunk_ids",
    "parallel_cells",
    "resolve_workers",
]

#: Chunks per worker: >1 so a fast worker can steal the tail of the
#: workload instead of idling behind the slowest chunk.
CHUNKS_PER_WORKER = 4


def resolve_workers(workers: int) -> int:
    """Map the ``BuildConfig.workers`` convention to a concrete count
    (``0`` means one worker per CPU core)."""
    if workers < 0:
        raise ValueError("workers must be >= 0 (0 means all CPU cores)")
    if workers == 0:
        return max(1, os.cpu_count() or 1)
    return workers


def chunk_ids(n: int, workers: int) -> "List[np.ndarray]":
    """Contiguous point-id chunks covering ``range(n)`` in order, about
    :data:`CHUNKS_PER_WORKER` per worker.

    Chunk *boundaries* depend on the worker count; the merged result
    never does, because chunks are consumed in submission order.
    """
    if n <= 0:
        return []
    size = -(-n // (workers * CHUNKS_PER_WORKER))
    return [
        np.arange(start, min(start + size, n)) for start in range(0, n, size)
    ]


@dataclass
class ChunkResult:
    """One chunk's cells, as their column runs, plus the worker-side cost
    accounting."""

    cells: "List[Tuple[np.ndarray, ...]]"
    worker: str
    cpu_seconds: float
    lp_calls: int


class CellWorkshop:
    """Self-contained rebuild of the read-only build state.

    One lives in every worker process.  It lays out the data snapshot
    and makes the candidate selector exactly as ``NNCellIndex._build``
    does — same layout function, same parameters — which is the
    determinism guarantee: ``compute(i)`` here returns byte-for-byte
    what the serial build computes for point ``i``.
    """

    def __init__(self, points: np.ndarray, config: BuildConfig):
        self.points = np.asarray(points, dtype=np.float64)
        self.config = config
        n, dim = self.points.shape
        self.box = config.data_space or MBR.unit_cube(dim)
        self.data_snapshot = data_snapshot(self.points, np.arange(n), config)
        self.selector = CandidateSelector(
            self.points,
            self.data_snapshot,
            config.selector,
            config.selector_params,
        )

    def compute(
        self, point_id: int
    ) -> "Tuple[HalfspaceSystem, List[MBR]]":
        return compute_cell(
            self.points, self.selector, self.box, self.config, int(point_id)
        )

    def compute_chunk(self, ids: Sequence[int]) -> ChunkResult:
        started = time.perf_counter()
        lp_before = lp_call_count()
        cells = [_cell_runs(*self.compute(int(i))) for i in ids]
        return ChunkResult(
            cells=cells,
            worker=f"pid-{os.getpid()}",
            cpu_seconds=time.perf_counter() - started,
            lp_calls=lp_call_count() - lp_before,
        )


# ----------------------------------------------------------------------
# Pool plumbing.  Worker entry points must be module-level for pickling;
# each worker process keeps its workshop in a process global.
# ----------------------------------------------------------------------

_PROCESS_WORKSHOP: "CellWorkshop | None" = None


def _init_process_worker(points: np.ndarray, config: BuildConfig) -> None:
    """Pool initializer.  A fork copies the parent's instrumentation
    switches, and with them the sinks' locks in whatever state another
    parent thread held them; nothing a worker records reaches the
    parent, so turn it all off before any LP runs."""
    global _PROCESS_WORKSHOP
    metrics.disable()
    tracing.disable()
    events.disable()
    analytics.uninstall()
    _PROCESS_WORKSHOP = CellWorkshop(points, config)


def _process_chunk(ids: np.ndarray) -> ChunkResult:
    return _PROCESS_WORKSHOP.compute_chunk(ids)


def _mp_context():
    """Prefer fork (cheap, inherits PYTHONPATH implicitly); fall back to
    the platform default where fork is unavailable.  There each worker
    imports the caller's main module afresh, so a script that builds
    with ``workers > 1`` must keep its top-level code under an
    ``if __name__ == "__main__":`` guard."""
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def parallel_cells(
    points: np.ndarray, config: BuildConfig, workers: int
) -> "List[Tuple[np.ndarray, ...]]":
    """All cells of ``points`` computed by a worker-process pool, in
    point-id order, each as its runs of the cell columns — the parallel
    counterpart of the serial loop in ``NNCellIndex._build``."""
    # Imported here, so that a process that never builds in parallel
    # never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    workers = resolve_workers(workers)
    chunks = chunk_ids(n, workers)
    metrics.inc("build.parallel.builds")
    with span(
        "build.cells.parallel", workers=workers, chunks=len(chunks)
    ) as root:
        cells: "List[Tuple[np.ndarray, ...]]" = []
        total_lp_calls = 0
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_mp_context(),
            initializer=_init_process_worker,
            initargs=(pts, config),
        ) as pool:
            for chunk, result in zip(chunks, pool.map(_process_chunk, chunks)):
                # Worker-side instrumentation is off; re-emit the chunk's
                # accounting here.
                with span("build.worker_chunk", worker=result.worker) as ws:
                    ws.set("n_points", int(chunk.shape[0]))
                    ws.set("lp_calls", result.lp_calls)
                    ws.set("worker_cpu_seconds", result.cpu_seconds)
                metrics.inc("build.parallel.chunks")
                metrics.observe("build.chunk_points", int(chunk.shape[0]))
                if events.enabled():
                    events.emit(
                        "build_chunk",
                        worker=result.worker,
                        n_points=int(chunk.shape[0]),
                        lp_calls=result.lp_calls,
                        duration_ms=1e3 * result.cpu_seconds,
                    )
                total_lp_calls += result.lp_calls
                cells.extend(result.cells)
        metrics.inc("build.parallel.lp_calls", total_lp_calls)
        root.set("lp_calls", total_lp_calls)
    return cells
