"""Parallel cell construction: the ``2d``-LP workload across a pool.

Precomputation is the expensive half of the paper's trade (Section 4
reports build times in minutes); each point's cell is computed from
read-only state — the point set, the data tree, the selector — so the
work chunks cleanly.  This module fans the per-point pipeline of
:mod:`repro.core.nncell_index` (``compute_cell``: candidate selection →
constraint system → ``2d`` LPs → optional decomposition) out over a
:class:`~concurrent.futures.ProcessPoolExecutor` by default.  The simplex
is Python over tiny numpy tableaux, so an LP holds the GIL for nearly all
of its time and threads cannot solve two at once; the thread pool is kept
for platforms without ``fork`` and for builds whose worker spans must
join the caller's trace.

**Determinism.**  Every worker rebuilds the same state from the same
inputs with the same code (:class:`CellWorkshop` calls the very
functions the serial build uses), LP solves are deterministic, and chunk
results are merged in submission order — so the cells, and therefore the
bulk-loaded tree, are *bit-identical* to a serial build for any worker
count, executor, or chunk size.  ``tests/engine/test_parallel_build.py``
asserts this.

Worker observability: child processes run with instrumentation disabled
(metrics registries are per-process), so each chunk result carries its
own CPU time and LP-call count; the parent re-emits them as
``build.worker_chunk`` spans and ``build.parallel.*`` metrics.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..core.approximation import lp_call_count
from ..core.candidates import CandidateSelector
from ..core.nncell_index import (
    BuildConfig,
    compute_cell,
    load_data_tree,
    make_tree,
)
from ..geometry.halfspace import HalfspaceSystem
from ..geometry.mbr import MBR
from ..obs import events, metrics
from ..obs.tracing import carrier, span

__all__ = [
    "CellWorkshop",
    "ChunkResult",
    "chunk_ids",
    "parallel_cells",
    "resolve_workers",
]

#: Chunks per worker: >1 so a fast worker can steal the tail of the
#: workload instead of idling behind the slowest chunk.
DEFAULT_CHUNKS_PER_WORKER = 4


def resolve_workers(workers: int) -> int:
    """Map the ``BuildConfig.workers`` convention to a concrete count
    (``0`` means one worker per CPU core)."""
    if workers < 0:
        raise ValueError("workers must be >= 0 (0 means all CPU cores)")
    if workers == 0:
        return max(1, os.cpu_count() or 1)
    return workers


def chunk_ids(
    n: int, workers: int, chunk_size: "int | None" = None
) -> "List[np.ndarray]":
    """Contiguous point-id chunks covering ``range(n)`` in order.

    Chunk *boundaries* depend on the worker count; the merged result
    never does, because chunks are consumed in submission order.
    """
    if n <= 0:
        return []
    if chunk_size is None:
        chunk_size = -(-n // (workers * DEFAULT_CHUNKS_PER_WORKER))
    chunk_size = max(1, int(chunk_size))
    return [
        np.arange(start, min(start + chunk_size, n))
        for start in range(0, n, chunk_size)
    ]


@dataclass
class ChunkResult:
    """One chunk's cells plus the worker-side cost accounting."""

    cells: "List[Tuple[HalfspaceSystem, List[MBR]]]"
    worker: str
    cpu_seconds: float
    lp_calls: int


class CellWorkshop:
    """Self-contained rebuild of the read-only build state.

    One lives in every worker (process or thread).  It reconstructs the
    data tree and candidate selector exactly as ``NNCellIndex._build``
    does — same bulk loader, same parameters — which is the determinism
    guarantee: ``compute(i)`` here returns byte-for-byte what the serial
    build computes for point ``i``.
    """

    def __init__(self, points: np.ndarray, config: BuildConfig):
        self.points = np.asarray(points, dtype=np.float64)
        self.config = config
        dim = self.points.shape[1]
        self.box = config.data_space or MBR.unit_cube(dim)
        self.data_tree = make_tree(
            dim, config, leaf_entry_bytes=8 * dim + 8
        )
        load_data_tree(self.data_tree, self.points, config)
        self.selector = CandidateSelector(
            self.points,
            self.data_tree,
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
        # Worker-side span: a no-op in process workers (tracing is per
        # process and off there), but thread workers run under the
        # submitter's carried context, so this nests beneath
        # `build.cells.parallel` and inherits its trace id.
        with span(
            "build.chunk.compute",
            worker=_worker_label(),
            n_points=len(ids),
        ):
            cells = [self.compute(int(i)) for i in ids]
        return ChunkResult(
            cells=cells,
            worker=_worker_label(),
            cpu_seconds=time.perf_counter() - started,
            lp_calls=lp_call_count() - lp_before,
        )


def _worker_label() -> str:
    return f"pid-{os.getpid()}/t-{threading.get_ident()}"


# ----------------------------------------------------------------------
# Pool plumbing.  Worker entry points must be module-level for pickling;
# per-worker state lives in a process global (process pool) or
# thread-local storage (thread pool).
# ----------------------------------------------------------------------

_PROCESS_WORKSHOP: "CellWorkshop | None" = None
_THREAD_LOCAL = threading.local()


def _init_process_worker(points: np.ndarray, config: BuildConfig) -> None:
    global _PROCESS_WORKSHOP
    _PROCESS_WORKSHOP = CellWorkshop(points, config)


def _process_chunk(ids: np.ndarray) -> ChunkResult:
    return _PROCESS_WORKSHOP.compute_chunk(ids)


def _thread_chunk(ids: np.ndarray) -> ChunkResult:
    return _THREAD_LOCAL.workshop.compute_chunk(ids)


def _mp_context():
    """Prefer fork (cheap, inherits PYTHONPATH implicitly); fall back to
    the platform default where fork is unavailable."""
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def parallel_cells(
    points: np.ndarray,
    config: BuildConfig,
    workers: int,
    chunk_size: "int | None" = None,
) -> "List[Tuple[HalfspaceSystem, List[MBR]]]":
    """All cells of ``points`` computed by a worker pool, in point-id
    order — the parallel counterpart of the serial loop in
    ``NNCellIndex._build``."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    workers = resolve_workers(workers)
    chunks = chunk_ids(n, workers, chunk_size or config.build_chunk_size)
    metrics.inc("build.parallel.builds")
    with span(
        "build.cells.parallel",
        workers=workers,
        executor=config.executor,
        chunks=len(chunks),
    ) as root:
        if config.executor == "thread":
            def _init_thread_worker() -> None:
                _THREAD_LOCAL.workshop = CellWorkshop(pts, config)

            pool = ThreadPoolExecutor(
                max_workers=workers, initializer=_init_thread_worker
            )
            # Thread workers run in their own contextvars context, so
            # spans they open would detach from this build (and from any
            # enclosing request's trace id).  Capture the submitting
            # context once and re-enter it around every chunk: worker
            # spans parent under `build.cells.parallel` and carry the
            # submitter's trace id, matching the serial span tree.
            # (Process workers cannot share a span tree; the parent
            # re-emits their accounting as `build.worker_chunk` below.)
            submit_ctx = carrier()

            def run_chunk(ids: np.ndarray) -> ChunkResult:
                return submit_ctx.call(_thread_chunk, ids)
        else:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=_mp_context(),
                initializer=_init_process_worker,
                initargs=(pts, config),
            )
            run_chunk = _process_chunk

        cells: "List[Tuple[HalfspaceSystem, List[MBR]]]" = []
        total_lp_calls = 0
        lp_before = lp_call_count()
        with pool:
            for chunk, result in zip(chunks, pool.map(run_chunk, chunks)):
                # Worker-side instrumentation cannot reach this process's
                # registry; re-emit the chunk's accounting here.  (Thread
                # workers share one process-global LP counter, so their
                # per-chunk deltas overlap — chunk lp_calls are exact for
                # processes, indicative for threads; the total below is
                # exact for both.)
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
        if config.executor == "thread":
            total_lp_calls = lp_call_count() - lp_before
        metrics.inc("build.parallel.lp_calls", total_lp_calls)
        root.set("lp_calls", total_lp_calls)
    return cells
