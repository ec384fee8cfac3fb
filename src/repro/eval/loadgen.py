"""Load generator for the serving layer: concurrent clients, tail latency.

Andoni/Indyk/Razenshteyn (2018) frame ANN as an online query service
where *tail* latency, not average cost, is the number that matters — so
this harness drives a :class:`~repro.serve.QueryService` with ``N``
closed-loop client threads and reports p50/p95/p99 latency alongside
throughput, against the one-query-at-a-time baseline (the same threads
calling ``index.nearest`` directly, no batching).

Throughput is real queries per second of the in-process run (``wall``,
including GIL effects and the hand-off to the service's flush thread).
Page reads are reported per query: the service amortises one tree walk
(and its page reads) across every coalesced batch, while the baseline
pays a full walk per query.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..serve.config import ServeConfig
from ..serve.errors import ServeError
from ..serve.service import QueryService
from .reporting import ResultTable

__all__ = [
    "LoadReport",
    "run_direct_load",
    "run_service_load",
    "serving_throughput_table",
]


@dataclass
class LoadReport:
    """Outcome of one concurrent load run (service or direct baseline)."""

    mode: str
    n_threads: int
    n_queries: int = 0
    #: Typed serving errors observed (overload, deadline); never raised.
    errors: int = 0
    wall_seconds: float = 0.0
    pages: int = 0
    #: Mean coalesced batch size (1.0 for the direct baseline).
    mean_batch_size: float = 1.0
    latencies_ms: "List[float]" = field(default_factory=list)
    #: First error message per error class, for diagnostics.
    error_samples: "Dict[str, str]" = field(default_factory=dict)

    def percentile(self, q: float) -> float:
        """Latency percentile in milliseconds (0 when nothing completed)."""
        if not self.latencies_ms:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_ms), q))

    def throughput_qps(self) -> float:
        """Completed queries per wall-clock second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return len(self.latencies_ms) / self.wall_seconds

    def summary(self) -> "Dict[str, float]":
        return {
            "n_queries": float(self.n_queries),
            "errors": float(self.errors),
            "p50_ms": self.percentile(50),
            "p95_ms": self.percentile(95),
            "p99_ms": self.percentile(99),
            "wall_qps": self.throughput_qps(),
            "pages": float(self.pages),
            "mean_batch_size": self.mean_batch_size,
        }


def _drive(n_threads: int, n_queries: int, worker) -> float:
    """Run ``worker(thread_idx)`` on ``n_threads`` threads; wall seconds."""
    threads = [
        threading.Thread(target=worker, args=(t,), name=f"loadgen-{t}")
        for t in range(n_threads)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started


def run_direct_load(
    index, queries: np.ndarray, n_threads: int = 4
) -> LoadReport:
    """Baseline: ``n_threads`` closed-loop clients calling ``nearest``.

    One query at a time per thread, no batching — the throughput floor
    the serving layer has to beat.  Queries are striped across threads.
    """
    qs = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    report = LoadReport("direct", n_threads, n_queries=qs.shape[0])
    lock = threading.Lock()

    def worker(t: int) -> None:
        latencies: "List[float]" = []
        pages = 0
        for i in range(t, qs.shape[0], n_threads):
            started = time.perf_counter()
            __, __, info = index.nearest(qs[i])
            latencies.append(1e3 * (time.perf_counter() - started))
            pages += info.pages
        with lock:
            report.latencies_ms.extend(latencies)
            report.pages += pages

    report.wall_seconds = _drive(n_threads, qs.shape[0], worker)
    return report


def run_service_load(
    index,
    queries: np.ndarray,
    n_threads: int = 4,
    config: "ServeConfig | None" = None,
    timeout_ms: "float | None" = None,
    service: "Optional[QueryService]" = None,
) -> LoadReport:
    """Drive a :class:`QueryService` with ``n_threads`` closed-loop clients.

    Typed serving errors (overload rejections, missed deadlines) are
    *counted*, not raised — a load test measures degradation, it does
    not crash on it.  Pass ``service`` to drive an existing instance
    (its lifetime stays with the caller); otherwise one is created from
    ``config`` and closed before the report is returned.
    """
    qs = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    report = LoadReport("service", n_threads, n_queries=qs.shape[0])
    lock = threading.Lock()
    own_service = service is None
    svc = service or QueryService(index, config)
    pages_before = svc.stats()["pages"]

    def worker(t: int) -> None:
        latencies: "List[float]" = []
        errors = 0
        samples: "Dict[str, str]" = {}
        for i in range(t, qs.shape[0], n_threads):
            started = time.perf_counter()
            try:
                svc.submit(qs[i], timeout_ms=timeout_ms)
            except ServeError as err:
                errors += 1
                samples.setdefault(type(err).__name__, str(err))
                continue
            latencies.append(1e3 * (time.perf_counter() - started))
        with lock:
            report.latencies_ms.extend(latencies)
            report.errors += errors
            for name, message in samples.items():
                report.error_samples.setdefault(name, message)

    try:
        report.wall_seconds = _drive(n_threads, qs.shape[0], worker)
        stats = svc.stats()
    finally:
        if own_service:
            svc.close()
    report.pages = int(stats["pages"] - pages_before)
    report.mean_batch_size = stats["mean_batch_size"]
    return report


def serving_throughput_table(
    index,
    queries: np.ndarray,
    n_threads: int = 4,
    config: "ServeConfig | None" = None,
) -> ResultTable:
    """Service vs. unbatched baseline under identical concurrent load.

    One row per mode; ``pages_per_query`` shows the page amortisation of
    the batched walk, which is deterministic where wall-clock on a
    loaded box is not.
    """
    table = ResultTable(
        f"Serving throughput ({n_threads} client threads)",
        ["mode", "errors", "p50_ms", "p95_ms", "p99_ms", "wall_qps",
         "pages_per_query", "mean_batch_size"],
    )
    baseline = run_direct_load(index, queries, n_threads)
    served = run_service_load(index, queries, n_threads, config=config)
    for report in (baseline, served):
        n = max(1, len(report.latencies_ms))
        table.add_row(
            mode=report.mode,
            errors=report.errors,
            p50_ms=report.percentile(50),
            p95_ms=report.percentile(95),
            p99_ms=report.percentile(99),
            wall_qps=report.throughput_qps(),
            pages_per_query=report.pages / n,
            mean_batch_size=report.mean_batch_size,
        )
    return table
