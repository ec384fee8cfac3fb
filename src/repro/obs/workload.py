"""Workload capture: a versioned log of sampled queries and outcomes.

A captured workload is the input half of an A/B experiment: re-run the
*same* query stream against a different index, shard count, partitioner
or cache size and diff the answers and page costs
(:mod:`repro.eval.replay` does the re-running).  The capture format is
deliberately tiny and versioned:

* **JSONL** — a header line ``{"format": "repro.workload",
  "version": 1, "dim": D}`` followed by one record per sampled query:
  ``{"q": [...], "id": ..., "d": ..., "pages": ..., "source": ...}``
  (plus ``trace_id`` when one is bound).  Append-friendly: the live
  ``serve --capture PATH`` sink;
* **NPZ** — the same content column-wise (``queries``, ``ids``,
  ``distances``, ``pages``) for bulk handling, written by
  :func:`save_workload_npz`.

:func:`load_workload` reads either by extension.  The recorder is an
:class:`repro.obs.events.EventLog` with the capture's header and record
shape.

This module also *publishes* each answered query: the query paths fill
their ``QueryInfo``/``BatchQueryInfo`` and make one call,
:func:`record_query` or :func:`record_batch`, which feeds every sink
that is on — the ``query.*``/``shard.*`` metrics and windows (one
registry lock acquisition), the cell heatmap (one analytics lock
acquisition), the ``query``/``batch`` event and the capture.  A query
run inside a shard probe (:func:`repro.obs.analytics.shard_scope`)
counts its cells against that shard and is not captured: the outer
sharded query is the workload, not its per-shard fan-out.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from . import analytics, events, metrics
from .events import EventLog

__all__ = [
    "WORKLOAD_FORMAT",
    "WORKLOAD_VERSION",
    "Workload",
    "WorkloadFormatError",
    "WorkloadRecorder",
    "capturing",
    "get_recorder",
    "install",
    "load_workload",
    "record_batch",
    "record_query",
    "save_workload_npz",
    "uninstall",
]

WORKLOAD_FORMAT = "repro.workload"
WORKLOAD_VERSION = 1

#: In-memory retention bound for a live recorder.
DEFAULT_CAPACITY = 100_000


class WorkloadFormatError(ValueError):
    """A workload file that cannot be read (wrong format or version)."""


class Workload:
    """A loaded capture: query matrix plus per-query outcomes."""

    def __init__(
        self,
        queries: "np.ndarray",
        point_ids: "np.ndarray",
        distances: "np.ndarray",
        pages: "Optional[np.ndarray]" = None,
        version: int = WORKLOAD_VERSION,
    ):
        self.queries = np.atleast_2d(
            np.asarray(queries, dtype=np.float64)
        )
        self.point_ids = np.asarray(point_ids, dtype=np.int64)
        self.distances = np.asarray(distances, dtype=np.float64)
        n = self.queries.shape[0]
        if self.point_ids.shape[0] != n or self.distances.shape[0] != n:
            raise WorkloadFormatError(
                "queries, ids and distances disagree on length"
            )
        self.pages = (
            np.asarray(pages, dtype=np.int64)
            if pages is not None
            else np.zeros(n, dtype=np.int64)
        )
        self.version = int(version)

    @property
    def dim(self) -> int:
        return int(self.queries.shape[1]) if self.queries.size else 0

    def __len__(self) -> int:
        return int(self.queries.shape[0])


def _workload(
    queries: "List[List[float]]",
    ids: "List[int]",
    distances: "List[float]",
    pages: "List[int]",
    dim: int,
) -> Workload:
    """A :class:`Workload` from per-query columns (``dim`` if empty)."""
    if not queries:
        return Workload(
            np.empty((0, dim)), np.empty(0, np.int64), np.empty(0)
        )
    return Workload(
        np.asarray(queries, dtype=np.float64),
        np.asarray(ids, dtype=np.int64),
        np.asarray(distances, dtype=np.float64),
        np.asarray(pages, dtype=np.int64),
    )


def _capture_record(
    query: "np.ndarray",
    point_id: int,
    distance: float,
    pages: int,
    source: str,
) -> "Dict[str, Any]":
    record: "Dict[str, Any]" = {
        "q": np.asarray(query, dtype=np.float64).tolist(),
        "id": int(point_id),
        "d": float(distance),
        "pages": int(pages),
    }
    if source:
        record["source"] = source
    return record


class WorkloadRecorder(EventLog):
    """The workload capture: an :class:`~repro.obs.events.EventLog` of
    answered queries.

    Records are ``{"q", "id", "d", "pages", "source"?, "trace_id"?}``;
    a new sink starts with the ``{"format", "version", "dim"}`` header,
    ``dim`` taken from the first record.  ``sink`` may be a path
    (owned: opened for append, closed by :meth:`close`; an existing
    non-empty file keeps its header) or a file-like object (borrowed).
    ``sample=0.1`` keeps ~10% of queries, decided by the log's seeded
    RNG so a capture is reproducible for a given traffic order.
    """

    capacity = DEFAULT_CAPACITY

    def __init__(self, sample: float = 1.0, sink: "Any | None" = None):
        if sample == 0.0:  # a capture that keeps nothing is a mistake
            raise ValueError("sample must be in (0, 1]")
        super().__init__(sample=sample, sink=sink, clock=None)

    def header(self, record: "Dict[str, Any]") -> "Dict[str, Any]":
        return {
            "format": WORKLOAD_FORMAT,
            "version": WORKLOAD_VERSION,
            "dim": len(record["q"]),
        }

    def record(
        self,
        query: "np.ndarray",
        point_id: int,
        distance: float,
        pages: int = 0,
        source: str = "",
    ) -> bool:
        """Capture one answered query; returns whether it survived
        sampling."""
        record = _capture_record(query, point_id, distance, pages, source)
        return self.extend((record,)) == 1

    def workload(self) -> Workload:
        """The retained capture as a :class:`Workload` (copy)."""
        records = self.records()
        columns = [[r[key] for r in records] for key in ("q", "id", "d", "pages")]
        return _workload(*columns, dim=0)


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------

def save_workload_npz(workload: Workload, path: "str | Path") -> Path:
    """Write a workload column-wise to ``path`` (``.npz``)."""
    path = Path(path)
    np.savez_compressed(
        path,
        format=np.array(WORKLOAD_FORMAT),
        version=np.array(WORKLOAD_VERSION, dtype=np.int64),
        queries=workload.queries,
        ids=workload.point_ids,
        distances=workload.distances,
        pages=workload.pages,
    )
    return path


def _load_jsonl(path: Path) -> Workload:
    queries: "List[List[float]]" = []
    ids: "List[int]" = []
    distances: "List[float]" = []
    pages: "List[int]" = []
    header: "Optional[Dict[str, Any]]" = None
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise WorkloadFormatError(
                    f"{path}:{lineno}: not JSON: {err}"
                ) from err
            if header is None:
                if record.get("format") != WORKLOAD_FORMAT:
                    raise WorkloadFormatError(
                        f"{path}: missing workload header (format"
                        f" {record.get('format')!r})"
                    )
                if record.get("version") != WORKLOAD_VERSION:
                    raise WorkloadFormatError(
                        f"{path}: unsupported workload version"
                        f" {record.get('version')!r}"
                    )
                header = record
                continue
            try:
                queries.append([float(x) for x in record["q"]])
                ids.append(int(record["id"]))
                distances.append(float(record["d"]))
                pages.append(int(record.get("pages", 0)))
            except (KeyError, TypeError, ValueError) as err:
                raise WorkloadFormatError(
                    f"{path}:{lineno}: malformed record: {err}"
                ) from err
    if header is None:
        raise WorkloadFormatError(f"{path}: empty workload file")
    return _workload(
        queries, ids, distances, pages, dim=int(header.get("dim", 0))
    )


def _load_npz(path: Path) -> Workload:
    with np.load(path, allow_pickle=False) as data:
        if "format" not in data or str(data["format"]) != WORKLOAD_FORMAT:
            raise WorkloadFormatError(
                f"{path}: not a workload archive"
            )
        version = int(data["version"])
        if version != WORKLOAD_VERSION:
            raise WorkloadFormatError(
                f"{path}: unsupported workload version {version}"
            )
        return Workload(
            data["queries"],
            data["ids"],
            data["distances"],
            data["pages"],
            version=version,
        )


def load_workload(path: "str | Path") -> Workload:
    """Read a captured workload — ``.npz`` archives by signature,
    anything else as JSONL.  Raises :class:`WorkloadFormatError`."""
    path = Path(path)
    if not path.exists():
        raise WorkloadFormatError(f"{path}: no such workload file")
    if path.suffix == ".npz":
        return _load_npz(path)
    return _load_jsonl(path)


# ======================================================================
# Module-level fast path (mirrors repro.obs.events)
# ======================================================================

_recorder: "Optional[WorkloadRecorder]" = None


def install(
    recorder: "Optional[WorkloadRecorder]" = None, **kwargs: Any
) -> WorkloadRecorder:
    """Install (and return) the process-wide workload recorder."""
    global _recorder
    if recorder is not None and kwargs:
        raise ValueError(
            "pass a WorkloadRecorder or constructor kwargs, not both"
        )
    _recorder = (
        recorder if recorder is not None else WorkloadRecorder(**kwargs)
    )
    return _recorder


def uninstall() -> None:
    """Remove the workload recorder (the caller closes it)."""
    global _recorder
    _recorder = None


def get_recorder() -> "Optional[WorkloadRecorder]":
    """The installed recorder, or ``None``."""
    return _recorder


def record_query(
    query: "np.ndarray",
    point_id: int,
    distance: float,
    info,
    cells: "Optional[np.ndarray]" = None,
    started: float = 0.0,
) -> None:
    """Publish one answered query to every sink that is on.

    ``info`` is its :class:`~repro.core.nncell_index.QueryInfo`.  A
    sharded query (``info.shards_answered`` set) updates
    ``shard.query.*``.  An unsharded one updates the ``query.*``
    metrics, counts ``cells`` (its candidate cells) on the heatmap and
    emits a ``query`` event timed from ``started`` (a
    :func:`time.perf_counter` reading).  Either is captured unless it
    runs inside a shard probe.
    """
    shard = analytics.current_shard()
    registry = metrics.get_registry() if metrics.enabled() else None
    if info.shards_answered is not None:
        source = "sharded"
        if registry is not None:
            registry.apply(
                [("shard.query.count", 1.0)],
                [("shard.query.pages", info.pages)],
            )
    else:
        source = "fallback" if info.fallback else "cell"
        if registry is not None:
            counters = [("query.atol_retries", 1.0)] if info.retried_atol else []
            if info.fallback:
                registry.apply(counters + [("query.fallbacks", 1.0)])
            else:
                registry.apply(
                    counters + [("query.count", 1.0)],
                    [
                        ("query.candidates", info.n_candidates),
                        ("query.pages", info.pages),
                    ],
                )
        access = analytics.get_recorder()
        if access is not None and cells is not None:
            access.record_cells(cells, shard)
        if events.enabled():
            # Imported here: repro.core imports this module.
            from ..core.nncell_index import fallback_reason

            events.emit(
                "query",
                outcome=source,
                point_id=int(point_id),
                candidates=info.n_candidates,
                pages=info.pages,
                retried_atol=info.retried_atol,
                fallback_reason=fallback_reason(info),
                duration_ms=1e3 * (time.perf_counter() - started),
            )
    recorder = _recorder
    if recorder is not None and shard is None:
        recorder.record(query, point_id, distance, info.pages, source)


def record_batch(
    queries: "np.ndarray",
    point_ids: "np.ndarray",
    distances: "np.ndarray",
    info,
    cells: "Optional[np.ndarray]" = None,
    candidates: "Optional[np.ndarray]" = None,
    started: float = 0.0,
) -> None:
    """Publish one answered batch to every sink that is on.

    ``info`` is its :class:`~repro.engine.batch.BatchQueryInfo`.  A
    sharded batch updates ``shard.batch.*`` and ``shard.query.pages``.
    An unsharded one updates the ``query.*`` metrics — one
    ``query.fallbacks`` per fallback and one ``query.candidates`` per
    query with candidates (``candidates`` holds the per-query counts) —
    counts ``cells`` on the heatmap and emits a ``batch`` event timed
    from ``started``.  Outside a shard probe every query is captured,
    the first ``pages % n`` with one page more than ``pages // n``, so
    the captured pages add up to the batch's pages.
    """
    shard = analytics.current_shard()
    registry = metrics.get_registry() if metrics.enabled() else None
    m = int(queries.shape[0])
    if info.shards_answered is not None:
        if registry is not None:
            registry.apply(
                [("shard.batch.count", 1.0), ("shard.batch.queries", m)],
                [("shard.query.pages", info.pages)],
            )
    else:
        if registry is not None:
            counters = [("query.batch.count", 1.0), ("query.batch.queries", m)]
            if info.retried_atol:
                counters.append(("query.atol_retries", info.retried_atol))
            histograms = [("query.batch_size", m)]
            if candidates is not None:
                histograms += [
                    ("query.candidates", count)
                    for count in candidates[candidates > 0].tolist()
                ]
            registry.apply(
                counters + [("query.fallbacks", 1.0)] * info.fallbacks,
                histograms + [("query.batch.pages", info.pages)],
            )
        access = analytics.get_recorder()
        if access is not None and cells is not None:
            access.record_cells(cells, shard)
        if events.enabled():
            events.emit(
                "batch",
                n_queries=m,
                candidates=info.n_candidates,
                pages=info.pages,
                fallbacks=info.fallbacks,
                retried_atol=info.retried_atol,
                duration_ms=1e3 * (time.perf_counter() - started),
            )
    recorder = _recorder
    if recorder is None or shard is not None or m == 0:
        return
    per_query, extra = divmod(int(info.pages), m)
    recorder.extend(
        _capture_record(
            queries[i], point_ids[i], distances[i],
            per_query + (i < extra), "batch",
        )
        for i in range(m)
    )


@contextmanager
def capturing(**kwargs: Any) -> "Iterator[WorkloadRecorder]":
    """Capture queries for a ``with`` block onto a fresh recorder."""
    global _recorder
    previous = _recorder
    fresh = WorkloadRecorder(**kwargs)
    _recorder = fresh
    try:
        yield fresh
    finally:
        _recorder = previous
        fresh.close()
