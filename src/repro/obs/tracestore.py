"""Tail-sampled trace store: keep the traces worth looking at.

Recording *every* request's span tree in a serving process is an
unbounded-memory bug; recording a uniform sample misses exactly the
requests an operator cares about.  This module keeps the useful tail:

* the **slowest** ``capacity`` traces within a sliding horizon (a
  min-heap by duration — a new trace slower than the fastest retained
  one displaces it, anything faster is dropped on arrival);
* **all** error / fallback traces within the horizon (bounded
  separately, oldest evicted first) — a degraded answer is always worth
  explaining, however fast it was.

A :class:`TraceStore` plugs straight into :mod:`repro.obs.tracing` as
the root-span sink (:func:`repro.obs.tracing.set_tracer`), so enabling
tracing in a serving process stays O(capacity) memory for any uptime.
The serving layer also adds assembled per-request traces directly
(:meth:`TraceStore.add_trace`).

Two consumers sit on top:

* :func:`critical_path` attributes one traced request's wall time to
  pipeline stages — queue-wait, tree-walk, candidate-scan, LP,
  fallback, delivery — following the request's link to its micro-batch
  flush trace for the compute breakdown;
* :func:`to_chrome_trace` renders stored traces as Chrome trace-event
  JSON (load the file in Perfetto / ``chrome://tracing``).

See ``docs/tracing.md`` for the trace lifecycle and the exemplar
linking that connects ``/telemetry`` percentiles to stored trace ids.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from .tracing import Span

__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_ERROR_CAPACITY",
    "DEFAULT_HORIZON_SECONDS",
    "CriticalPath",
    "StoredTrace",
    "TraceStore",
    "critical_path",
    "get_store",
    "install",
    "to_chrome_trace",
    "trace_kind",
    "uninstall",
]

#: Slowest-traces retention bound (per store, within the horizon).
DEFAULT_CAPACITY = 256

#: Error/fallback-traces retention bound (kept regardless of speed).
DEFAULT_ERROR_CAPACITY = 128

#: Sliding retention horizon.  Must cover the longest telemetry window
#: (60s) with slack, so every tail exemplar still resolves to a trace.
DEFAULT_HORIZON_SECONDS = 120


def trace_kind(name: str) -> str:
    """Coarse trace classification from the root span's name."""
    if name == "serve.request":
        return "request"
    if name == "serve.flush":
        return "flush"
    if name.startswith(("query.", "search.")):
        return "query"
    if name.startswith("build."):
        return "build"
    return "span"


@dataclass
class StoredTrace:
    """One retained root span tree plus its retention metadata."""

    trace_id: str
    root: Span
    kind: str
    #: Wall-clock time the trace was stored (``time.time``).
    ts: float
    duration_ms: float
    error: bool = False
    fallback: bool = False
    #: The response was explicitly degraded — a sharded scatter answered
    #: without every shard (``allow_partial``).  Degraded traces are
    #: retained like error/fallback traces: they are exactly the ones a
    #: post-incident analysis needs.
    degraded: bool = False
    #: Trace ids this trace is causally linked to (a request links its
    #: flush; a flush links every member request).
    links: "List[str]" = field(default_factory=list)
    #: Store-monotonic admission time, used for horizon pruning.
    added: float = 0.0

    def as_dict(self) -> "Dict[str, Any]":
        """JSON-ready summary (the span tree itself stays separate)."""
        return {
            "trace_id": self.trace_id,
            "kind": self.kind,
            "name": self.root.name,
            "ts": self.ts,
            "duration_ms": self.duration_ms,
            "error": self.error,
            "fallback": self.fallback,
            "degraded": self.degraded,
            "links": list(self.links),
        }


def _tree_has_fallback(root: Span) -> bool:
    stack = [root]
    while stack:
        node = stack.pop()
        if node.name in ("query.fallback", "search.rkv", "search.hs"):
            return True
        stack.extend(node.children)
    return False


class TraceStore:
    """Bounded, tail-sampling retention of finished traces.

    Thread-safe: the serve flush loop, query threads and HTTP scrape
    handlers share one lock.  ``clock`` must be monotonic seconds
    (injectable for tests).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        error_capacity: int = DEFAULT_ERROR_CAPACITY,
        horizon_seconds: float = DEFAULT_HORIZON_SECONDS,
        clock: "Callable[[], float]" = time.monotonic,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if error_capacity < 1:
            raise ValueError("error_capacity must be >= 1")
        if horizon_seconds <= 0:
            raise ValueError("horizon_seconds must be > 0")
        import threading

        self._lock = threading.Lock()
        self.capacity = capacity
        self.error_capacity = error_capacity
        self.horizon_seconds = float(horizon_seconds)
        self._clock = clock
        self._by_id: "Dict[str, StoredTrace]" = {}
        #: Min-heap of (duration_ms, seq, trace_id) over retained
        #: *normal* traces — the root of the heap is the next eviction.
        self._slow: "List[tuple]" = []
        self._errors: "deque[str]" = deque()
        self._seq = 0
        #: Earliest ``added`` stamp among retained traces — lets the
        #: per-add horizon check stay O(1) until something actually
        #: ages out (the full prune scan is O(retained)).
        self._oldest_added = float("inf")
        #: Traces offered / traces dropped by sampling (auditability).
        self.added = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def add(self, span: Span) -> None:
        """Root-span sink: wrap and tail-sample one finished span tree.

        This is the :class:`~repro.obs.tracing.Tracer` duck-type entry —
        install the store with ``tracing.set_tracer(store)`` (or let
        :class:`~repro.serve.TelemetrySession` do it).
        """
        attrs = span.attributes
        trace_id = str(attrs.get("trace_id") or f"span-{id(span):x}")
        self.add_trace(
            StoredTrace(
                trace_id=trace_id,
                root=span,
                kind=trace_kind(span.name),
                ts=time.time(),
                duration_ms=1e3 * span.duration_seconds,
                error=bool(attrs.get("error", False)),
                fallback=_tree_has_fallback(span),
                degraded=bool(attrs.get("degraded", False)),
                links=list(attrs.get("links", ())),
            )
        )

    def add_trace(self, trace: StoredTrace) -> bool:
        """Offer one trace; returns whether it was retained."""
        with self._lock:
            now = self._clock()
            trace.added = now
            self._prune(now)
            self.added += 1
            if now < self._oldest_added:
                self._oldest_added = now
            if trace.error or trace.fallback or trace.degraded:
                self._errors.append(trace.trace_id)
                self._by_id[trace.trace_id] = trace
                while len(self._errors) > self.error_capacity:
                    evicted = self._errors.popleft()
                    self._by_id.pop(evicted, None)
                return True
            if (
                len(self._slow) >= self.capacity
                and self._slow[0][0] >= trace.duration_ms
            ):
                self.dropped += 1  # faster than everything retained
                return False
            self._seq += 1
            heapq.heappush(
                self._slow, (trace.duration_ms, self._seq, trace.trace_id)
            )
            self._by_id[trace.trace_id] = trace
            while len(self._slow) > self.capacity:
                __, __, evicted = heapq.heappop(self._slow)
                self._by_id.pop(evicted, None)
                self.dropped += 1
            return True

    def _prune(self, now: float) -> None:
        """Drop traces older than the horizon (caller holds the lock).

        The common case — nothing stale yet — is a single float compare
        against the oldest retained stamp; the linear scan only runs
        when at least one trace has actually aged out.
        """
        cutoff = now - self.horizon_seconds
        if self._oldest_added >= cutoff:
            return
        stale = [
            tid for tid, trace in self._by_id.items()
            if trace.added < cutoff
        ]
        for tid in stale:
            self._by_id.pop(tid, None)
        self._slow = [
            entry for entry in self._slow if entry[2] in self._by_id
        ]
        heapq.heapify(self._slow)
        self._errors = deque(
            tid for tid in self._errors if tid in self._by_id
        )
        self._oldest_added = min(
            (t.added for t in self._by_id.values()), default=float("inf")
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, trace_id: str) -> "Optional[StoredTrace]":
        with self._lock:
            return self._by_id.get(trace_id)

    def traces(self, kind: "Optional[str]" = None) -> "List[StoredTrace]":
        """Retained traces, newest first, optionally one kind."""
        with self._lock:
            out = sorted(
                self._by_id.values(), key=lambda t: t.added, reverse=True
            )
        if kind is not None:
            out = [t for t in out if t.kind == kind]
        return out

    def slowest(
        self, n: int = 10, kind: "Optional[str]" = None
    ) -> "List[StoredTrace]":
        """The ``n`` slowest retained traces, slowest first."""
        with self._lock:
            out = list(self._by_id.values())
        if kind is not None:
            out = [t for t in out if t.kind == kind]
        out.sort(key=lambda t: t.duration_ms, reverse=True)
        return out[:n]

    def clear(self) -> None:
        with self._lock:
            self._by_id.clear()
            self._slow.clear()
            self._errors.clear()
            self._oldest_added = float("inf")

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_id)

    def __bool__(self) -> bool:
        # An empty store is still a real sink; never decay to len().
        return True

    # Tracer-compatibility shims (`tracing.get_tracer()` callers).
    @property
    def spans(self) -> "List[Span]":
        return [t.root for t in self.traces()]


# ======================================================================
# Module-level installation (mirrors metrics.install_timeseries)
# ======================================================================

_store: "Optional[TraceStore]" = None


def install(store: "Optional[TraceStore]" = None) -> TraceStore:
    """Install ``store`` (a fresh one by default) as the process store.

    The serving layer checks :func:`get_store` to decide whether to
    assemble per-request traces and pass exemplar trace ids to the
    latency histograms — installation is the one switch for both.
    """
    global _store
    _store = store or TraceStore()
    return _store


def uninstall() -> None:
    global _store
    _store = None


def get_store() -> "Optional[TraceStore]":
    """The installed process-wide store, or ``None``."""
    return _store


# ======================================================================
# Critical-path analysis
# ======================================================================

#: Exact span-name -> stage mapping; unmapped spans are descended into.
_STAGE_BY_NAME = {
    "serve.queue_wait": "queue_wait",
    "serve.deliver": "deliver",
    "query.point_query": "tree_walk",
    "query.candidate_scan": "candidate_scan",
    "query.sphere_refinement": "candidate_scan",
    "query.fallback": "fallback",
    "search.rkv": "fallback",
    "search.hs": "fallback",
    # Sharded scatter-gather: the k-merge is candidate post-processing;
    # `shard.probe`/`shard.nearest`/`shard.query_batch` stay unmapped on
    # purpose so the walk/scan spans inside each shard claim their own
    # stages (concurrent shard claims are clamped like any child claim).
    "shard.merge": "candidate_scan",
}

#: Stages in display order (``compute_other`` is flush time not claimed
#: by a mapped descendant; ``other`` is wall time outside any segment).
STAGES = (
    "queue_wait", "tree_walk", "candidate_scan", "lp", "fallback",
    "compute_other", "deliver", "other",
)


def _stage_of(name: str) -> "Optional[str]":
    stage = _STAGE_BY_NAME.get(name)
    if stage is not None:
        return stage
    if name.startswith("lp."):
        return "lp"
    return None


def _stage_seconds(root: Span) -> "Dict[str, float]":
    """Per-stage seconds over ``root``'s subtree.

    A span that maps to a stage contributes its whole duration and is
    not descended into (children refine, they do not add); unmapped
    spans contribute via their children only.
    """
    stages: "Dict[str, float]" = {}
    stack = list(root.children)
    while stack:
        node = stack.pop()
        stage = _stage_of(node.name)
        if stage is not None:
            stages[stage] = stages.get(stage, 0.0) + node.duration_seconds
        else:
            stack.extend(node.children)
    return stages


@dataclass
class CriticalPath:
    """Stage attribution of one trace's wall time."""

    trace_id: str
    total_ms: float
    #: Stage -> milliseconds, only stages that occurred.
    stages: "Dict[str, float]"
    #: Fraction of the wall time the attribution accounts for.
    coverage: float

    def as_dict(self) -> "Dict[str, Any]":
        return {
            "trace_id": self.trace_id,
            "total_ms": self.total_ms,
            "coverage": self.coverage,
            "stages": {
                name: self.stages[name]
                for name in STAGES if name in self.stages
            },
        }


def critical_path(
    trace: StoredTrace, store: "Optional[TraceStore]" = None
) -> CriticalPath:
    """Attribute ``trace``'s wall time to pipeline stages.

    For a ``request`` trace the direct children are contiguous measured
    segments (queue-wait -> compute -> deliver), so coverage is ~1.0 by
    construction; the compute segment is sub-attributed by following the
    request's link to its flush trace in ``store`` (tree walk, candidate
    scan, LP, fallback — the remainder is ``compute_other``).  For any
    other trace kind, stages come from the mapped descendants directly.
    """
    root = trace.root
    total = root.duration_seconds
    stages: "Dict[str, float]" = {}

    def bump(stage: str, seconds: float) -> None:
        if seconds > 0.0:
            stages[stage] = stages.get(stage, 0.0) + seconds

    if trace.kind == "request":
        for child in root.children:
            if child.name == "serve.compute":
                flush = None
                if store is not None:
                    flush_id = child.attributes.get("flush")
                    if flush_id:
                        flush = store.get(str(flush_id))
                sub = (
                    _stage_seconds(flush.root) if flush is not None
                    else _stage_seconds(child)
                )
                accounted = 0.0
                for stage, seconds in sub.items():
                    claim = min(seconds, child.duration_seconds - accounted)
                    bump(stage, claim)
                    accounted += claim
                bump(
                    "compute_other",
                    child.duration_seconds - accounted,
                )
            else:
                stage = _stage_of(child.name)
                bump(stage or "other", child.duration_seconds)
    else:
        for stage, seconds in _stage_seconds(root).items():
            bump(stage, seconds)

    covered = sum(stages.values())
    coverage = covered / total if total > 0.0 else 1.0
    return CriticalPath(
        trace_id=trace.trace_id,
        total_ms=1e3 * total,
        stages={name: 1e3 * sec for name, sec in stages.items()},
        coverage=min(1.0, coverage),
    )


# ======================================================================
# Chrome trace-event export (Perfetto / chrome://tracing)
# ======================================================================

def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def to_chrome_trace(
    traces: "Iterable[StoredTrace]",
) -> "Dict[str, Any]":
    """Stored traces as a Chrome trace-event JSON document.

    Every span becomes one complete (``"ph": "X"``) event; each trace
    gets its own ``tid`` row so Perfetto renders the flush and its
    member requests as parallel tracks.  Timestamps are microseconds
    relative to the earliest span start across the exported set (the
    spans' ``perf_counter`` clocks share an epoch within one process).
    """
    ordered = sorted(traces, key=lambda t: t.root.start)
    events: "List[Dict[str, Any]]" = []
    if not ordered:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    base = min(t.root.start for t in ordered)
    for row, trace in enumerate(ordered, start=1):
        events.append({
            "ph": "M", "pid": 1, "tid": row, "name": "thread_name",
            "args": {"name": f"{trace.kind} {trace.trace_id}"},
        })
        stack = [trace.root]
        while stack:
            node = stack.pop()
            events.append({
                "ph": "X",
                "name": node.name,
                "cat": trace.kind,
                "ts": 1e6 * (node.start - base),
                "dur": 1e6 * node.duration_seconds,
                "pid": 1,
                "tid": row,
                "args": _jsonable(node.attributes),
            })
            stack.extend(node.children)
    return {"traceEvents": events, "displayTimeUnit": "ms"}
