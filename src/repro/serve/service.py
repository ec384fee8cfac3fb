"""In-process concurrent query service with micro-batching.

The paper's argument makes NN search a natural serving workload: once
the solution space is precomputed, a query is a cheap point query — and
:func:`repro.engine.batch.query_batch` already amortises one tree walk
across a whole workload.  What is missing between "many concurrent
callers" and that batched primitive is an *operational* layer, and that
is this module:

* **Micro-batching** — a single flush loop drains the submission queue:
  whenever it is free it takes up to ``max_batch_size`` of the requests
  that queued while the previous flush ran, and answers them through one
  ``query_batch`` walk.  It never waits for company, so a lone caller is
  not delayed and batches form only from concurrent demand.
* **Admission control** — the queue is bounded; a submission that finds
  it full is either rejected with
  :class:`~repro.serve.errors.ServiceOverloaded` or blocks until space
  frees up (``ServeConfig.admission``), so a load spike degrades into
  explicit backpressure instead of unbounded memory growth.
* **Deadlines** — each request may carry a timeout; requests whose
  deadline passes while they are still queued are cancelled (their work
  is never performed) and both sides observe a typed
  :class:`~repro.serve.errors.DeadlineExceeded`.
* **Graceful degradation** — a failure inside the batched walk (an LP
  backend error, a tolerance corner) falls back to answering each
  request with the serial ``index.nearest``; a request that fails even
  serially is answered by an exact linear scan.  Engine exceptions never
  propagate to a caller — the ladder is
  ``batch -> serial -> linear scan``, and every rung is counted.

Every decision is measured: ``serve.*`` counters/histograms in
:mod:`repro.obs.metrics` and one ``serve.flush`` span per flush (the
nested ``query.batch`` span comes from the engine).  The full metric
taxonomy is documented in ``docs/observability.md``; operational
guidance lives in ``docs/serving.md``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from ..core.nncell_index import as_query
from ..index.linear_scan import LinearScan
from ..obs import events, metrics, tracectx, tracestore, tracing
from ..obs.metrics import labeled
from ..obs.tracing import Span, span
from .config import ServeConfig, check_timeout_ms
from .errors import DeadlineExceeded, ServiceClosed, ServiceOverloaded

__all__ = ["PendingResult", "QueryResult", "QueryService"]

# Dimensional fallback counters: one base name, the rung as a label.
# Precomputed once so the hot path pays no label escaping.
_FALLBACK_BATCH = labeled("serve.fallback", stage="batch")
_FALLBACK_SERIAL = labeled("serve.fallback", stage="serial")
_FALLBACK_SCAN = labeled("serve.fallback", stage="scan")


@dataclass(frozen=True)
class QueryResult:
    """One answered nearest-neighbor request.

    ``source`` records which rung of the fallback ladder produced the
    answer: ``"batch"`` (the normal micro-batched walk), ``"serial"``
    (per-query fallback after a batch failure) or ``"scan"`` (linear
    scan, the ladder's last rung).  All three sources return the same
    exact nearest neighbor — the ladder trades throughput, never
    correctness.
    """

    point_id: int
    distance: float
    source: str = "batch"
    #: Submission-to-completion latency, milliseconds.
    latency_ms: float = 0.0
    #: Request-scoped trace id, minted at admission
    #: (:mod:`repro.obs.tracectx`); resolvable against the trace store
    #: (``repro trace show``, ``GET /trace/<id>``) while tracing is on.
    trace_id: str = ""
    #: Sharded serving under ``allow_partial`` only: the answer was
    #: computed without every shard and may be farther than the true
    #: nearest.  Degradation is always explicit — ``failed_shards``
    #: names the missing shards and ``shards_answered`` counts the
    #: survivors (``None`` when the index is not sharded or the scatter
    #: was complete).  See ``docs/resilience.md``.
    degraded: bool = False
    failed_shards: "tuple" = ()
    shards_answered: "Optional[int]" = None


# Request lifecycle: transitions happen under the service lock only.
_PENDING = 0  # queued, not yet picked up by the flush loop
_INFLIGHT = 1  # part of a batch being computed
_DONE = 2  # result delivered
_FAILED = 3  # typed error delivered (deadline, shutdown)


class _Request:
    """Internal per-submission record shared by caller and flush loop."""

    __slots__ = (
        "point", "deadline", "enqueued_pc", "event",
        "result", "error", "state", "trace_id",
    )

    def __init__(self, point: np.ndarray, deadline: "float | None"):
        self.point = point
        # Deadlines, the enqueue stamp, latency and spans all read the
        # perf_counter clock.
        self.deadline = deadline
        self.enqueued_pc = time.perf_counter()
        self.event = threading.Event()
        self.result: "Optional[QueryResult]" = None
        self.error: "Optional[Exception]" = None
        self.state = _PENDING
        # Admission mints the identity: reuse the caller's bound trace
        # id if one exists (CLI workflows bind one around a whole run),
        # else mint fresh.  Minting is unconditional — an id costs one
        # locked RNG read, and every response/error must carry one even
        # with tracing off.
        self.trace_id = tracectx.current_trace_id() or tracectx.new_trace_id()


class PendingResult:
    """Caller-side handle of one submitted query (a narrow future).

    Returned by :meth:`QueryService.submit_async`; :meth:`result` blocks
    until the flush loop answers, the request's deadline passes, or an
    explicit ``timeout_ms`` runs out — whichever comes first.
    """

    __slots__ = ("_service", "_request")

    def __init__(self, service: "QueryService", request: _Request):
        self._service = service
        self._request = request

    def done(self) -> bool:
        """Whether a result or error is already available."""
        return self._request.event.is_set()

    def result(self, timeout_ms: "float | None" = None) -> QueryResult:
        """The answer, or a typed :class:`ServeError` subclass raised.

        ``timeout_ms`` bounds only this wait; the request's own deadline
        (if any) still applies and the earlier of the two wins.  A wait
        that times out *cancels* the request: a late answer from the
        flush loop is discarded, so one submission never yields two
        outcomes.  A ``timeout_ms`` that is not a finite number > 0
        raises ``ValueError``.
        """
        req = self._request
        budget = _remaining(req.deadline)
        if timeout_ms is not None:
            wait = _capped(check_timeout_ms(timeout_ms) / 1000.0)
            budget = wait if budget is None else min(budget, wait)
        if not req.event.wait(budget):
            self._service._expire(req)
        if req.error is not None:
            raise req.error
        assert req.result is not None
        return req.result


def _capped(seconds: float) -> float:
    """``seconds`` clipped to the longest wait ``threading`` accepts, so
    a finite but huge timeout waits instead of overflowing."""
    return min(seconds, threading.TIMEOUT_MAX)


def _remaining(deadline: "float | None") -> "float | None":
    """Seconds until ``deadline`` (perf_counter), in [0, TIMEOUT_MAX]."""
    if deadline is None:
        return None
    return _capped(max(0.0, deadline - time.perf_counter()))


def _failure(error: Exception, request: _Request) -> Exception:
    """Stamp ``request``'s trace id onto a typed serve error."""
    error.trace_id = request.trace_id
    return error


def _request_trace(
    request: _Request,
    pickup_pc: float,
    flush_end_pc: float,
    flush_tid: "Optional[str]",
    source: str = "",
    error: str = "",
    degraded: bool = False,
    failed_shards: "Sequence[int]" = (),
) -> "tracestore.StoredTrace":
    """Assemble one request's trace from the flush loop's time marks.

    The root ``serve.request`` span covers enqueue -> now; its children
    are the three contiguous segments the request actually spent time in
    (queue wait, the shared flush compute, delivery), so critical-path
    coverage is ~1.0 by construction.  The compute segment records the
    flush trace id — the per-stage breakdown (tree walk, candidate scan,
    LP, fallback) lives in the flush's own span tree and is joined at
    analysis time (:func:`repro.obs.tracestore.critical_path`).
    """
    done_pc = time.perf_counter()
    attrs: "Dict[str, object]" = {"trace_id": request.trace_id}
    if source:
        attrs["source"] = source
    if error:
        attrs["error"] = error
    if degraded:
        attrs["degraded"] = True
        attrs["failed_shards"] = [int(s) for s in failed_shards]
    links = [flush_tid] if flush_tid else []
    if links:
        attrs["links"] = links
    root = Span("serve.request", attrs)
    root.start = request.enqueued_pc
    root.end = done_pc
    queue_wait = Span("serve.queue_wait")
    queue_wait.start = request.enqueued_pc
    queue_wait.end = pickup_pc
    root.children.append(queue_wait)
    if not error:
        compute = Span(
            "serve.compute", {"flush": flush_tid} if flush_tid else None
        )
        compute.start = pickup_pc
        compute.end = flush_end_pc
        deliver = Span("serve.deliver")
        deliver.start = flush_end_pc
        deliver.end = done_pc
        root.children.append(compute)
        root.children.append(deliver)
    return tracestore.StoredTrace(
        trace_id=request.trace_id,
        root=root,
        kind="request",
        ts=time.time(),
        duration_ms=1e3 * root.duration_seconds,
        error=bool(error),
        fallback=source in ("serial", "scan"),
        degraded=bool(degraded),
        links=links,
    )


class QueryService:
    """Concurrent nearest-neighbor serving on top of one built index.

    Threads submit single queries; a dedicated flush loop coalesces them
    into :meth:`NNCellIndex.query_batch` calls.  Usable as a context
    manager::

        with QueryService(index, ServeConfig(max_batch_size=64)) as svc:
            result = svc.submit([0.5, 0.5, 0.5])

    The service assumes the index is not mutated while serving (run
    dynamic updates through a swap of service instances).  ``close()``
    drains the queue — every accepted request is answered — and a
    submission after close raises :class:`ServiceClosed`.
    """

    def __init__(
        self,
        index,
        config: "ServeConfig | None" = None,
        batch_fn: "Callable | None" = None,
    ):
        """``batch_fn`` overrides the batched query primitive (testing /
        failure injection); it must match ``index.query_batch``'s
        signature and contract."""
        self.index = index
        self.config = config or ServeConfig()
        self._batch_fn = batch_fn or index.query_batch
        self._cond = threading.Condition()
        self._queue: "deque[_Request]" = deque()
        self._closed = False
        self._scan: "Optional[LinearScan]" = None
        self._scan_ids: "Optional[np.ndarray]" = None
        self._stats: "Dict[str, float]" = {
            "submitted": 0,
            "completed": 0,
            "rejected": 0,
            "deadline_missed": 0,
            "flushes": 0,
            "batched_requests": 0,
            "pages": 0,
            "fallback_batch": 0,
            "fallback_serial": 0,
            "fallback_scan": 0,
            "degraded_answers": 0,
        }
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-flush", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Submission side
    # ------------------------------------------------------------------
    def submit(
        self,
        point: Sequence[float],
        timeout_ms: "float | None" = None,
    ) -> QueryResult:
        """Answer one query, blocking until the result is available.

        Raises :class:`ServiceOverloaded`, :class:`DeadlineExceeded` or
        :class:`ServiceClosed`; engine failures are absorbed by the
        fallback ladder and still produce a :class:`QueryResult`.
        """
        return self.submit_async(point, timeout_ms=timeout_ms).result()

    def submit_async(
        self,
        point: Sequence[float],
        timeout_ms: "float | None" = None,
    ) -> PendingResult:
        """Enqueue one query; returns a :class:`PendingResult` handle.

        Admission control runs here: a point of the wrong shape or with
        a non-finite coordinate, or a ``timeout_ms`` that is not a finite
        number > 0, raises ``ValueError``, so it never rides (and fails)
        a flush; with a full queue, policy ``"reject"`` raises
        :class:`ServiceOverloaded` immediately and ``"block"`` waits for
        space (bounded by the request deadline).
        """
        q = as_query(point, self.index.dim)
        if timeout_ms is None:
            timeout_ms = self.config.default_timeout_ms
        else:
            timeout_ms = check_timeout_ms(timeout_ms)
        deadline = (
            None if timeout_ms is None
            else time.perf_counter() + timeout_ms / 1000.0
        )
        request = _Request(q, deadline)
        depth_cap = self.config.max_queue_depth
        with self._cond:
            if self._closed:
                raise _failure(ServiceClosed("service is closed"), request)
            if depth_cap is not None and len(self._queue) >= depth_cap:
                if self.config.admission == "reject":
                    self._stats["rejected"] += 1
                    metrics.inc("serve.rejected")
                    raise _failure(
                        ServiceOverloaded(
                            f"queue depth {depth_cap} exceeded"
                        ),
                        request,
                    )
                while (
                    not self._closed
                    and len(self._queue) >= depth_cap
                ):
                    if not self._cond.wait(_remaining(deadline)):
                        self._stats["deadline_missed"] += 1
                        metrics.inc("serve.deadline_missed")
                        raise _failure(
                            DeadlineExceeded(
                                "deadline passed while blocked on admission"
                            ),
                            request,
                        )
                if self._closed:
                    raise _failure(
                        ServiceClosed("service is closed"), request
                    )
            request.enqueued_pc = time.perf_counter()
            self._queue.append(request)
            self._stats["submitted"] += 1
            depth = len(self._queue)
            self._cond.notify_all()
        metrics.inc("serve.submitted")
        metrics.set_gauge("serve.queue.depth", depth)
        return PendingResult(self, request)

    def _expire(self, request: _Request) -> None:
        """Caller-side cancellation: the wait for ``request`` timed out."""
        with self._cond:
            if request.event.is_set():
                return  # answer raced in while we were acquiring the lock
            request.state = _FAILED
            request.error = _failure(
                DeadlineExceeded("result not produced within the deadline"),
                request,
            )
            self._stats["deadline_missed"] += 1
            request.event.set()
        metrics.inc("serve.deadline_missed")
        # An error trace is always worth keeping; cancellation happens on
        # the caller's thread, so store it here — the flush loop will
        # skip the cancelled request entirely.
        if tracing.enabled():
            store = tracestore.get_store()
            if store is not None:
                now_pc = time.perf_counter()
                store.add_trace(
                    _request_trace(
                        request, now_pc, now_pc, None,
                        error="deadline_exceeded",
                    )
                )

    # ------------------------------------------------------------------
    # Flush loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._process(batch)

    def _next_batch(self) -> "Optional[list]":
        """Pop the next batch; ``None`` once closed and drained.

        Work-conserving: block only while the queue is empty, then take
        up to ``max_batch_size`` of what is queued.  Requests that
        arrive during a flush ride the next one.
        """
        with self._cond:
            while not self._queue:
                if self._closed:
                    return None
                self._cond.wait()
            take = min(len(self._queue), self.config.max_batch_size)
            batch = [self._queue.popleft() for __ in range(take)]
            depth = len(self._queue)
            self._cond.notify_all()  # admission waiters: space freed
        metrics.set_gauge("serve.queue.depth", depth)
        return batch

    def _process(self, batch: "list[_Request]") -> None:
        """Answer one popped batch through the fallback ladder."""
        pickup_pc = time.perf_counter()
        # Trace capture is on when spans are recorded *and* a store is
        # installed to keep them; identity (trace ids) flows regardless.
        store = tracestore.get_store() if tracing.enabled() else None
        live: "list[_Request]" = []
        expired_requests: "list[_Request]" = []
        expired = 0
        with self._cond:
            for request in batch:
                if request.state != _PENDING:
                    continue  # caller already timed out and cancelled
                if (
                    request.deadline is not None
                    and pickup_pc > request.deadline
                ):
                    request.state = _FAILED
                    request.error = _failure(
                        DeadlineExceeded(
                            "deadline passed while queued; work cancelled"
                        ),
                        request,
                    )
                    self._stats["deadline_missed"] += 1
                    expired += 1
                    request.event.set()
                    expired_requests.append(request)
                    continue
                request.state = _INFLIGHT
                live.append(request)
        if expired:
            metrics.inc("serve.deadline_missed", expired)
            if store is not None:
                for request in expired_requests:
                    store.add_trace(
                        _request_trace(
                            request, pickup_pc, pickup_pc, None,
                            error="deadline_exceeded",
                        )
                    )
        if not live:
            return
        metrics.inc("serve.flush.count")
        metrics.observe("serve.batch.size", len(live))
        # The flush gets its own trace identity; the flush span links to
        # every member request and each request trace links back (the
        # bidirectional causality ISSUE 6 asks for).  As a root span in
        # this thread it flows into the store via the tracer sink.
        flush_tid = tracectx.new_trace_id() if store is not None else None
        with tracectx.bind(flush_tid):
            with span("serve.flush", n_requests=len(live)) as flush:
                if flush_tid is not None:
                    flush.set(
                        "links", [request.trace_id for request in live]
                    )
                results, pages = self._answer(live)
                flush.set("pages", pages)
                flush.set("sources", sorted({r.source for r in results}))
        flush_end_pc = time.perf_counter()
        delivered = 0
        degraded_delivered = 0
        with self._cond:
            self._stats["flushes"] += 1
            self._stats["batched_requests"] += len(live)
            self._stats["pages"] += pages
            for request, result in zip(live, results):
                if request.state != _INFLIGHT:
                    continue  # cancelled mid-flight; drop the late answer
                request.state = _DONE
                request.result = QueryResult(
                    result.point_id,
                    result.distance,
                    result.source,
                    latency_ms=1e3 * (flush_end_pc - request.enqueued_pc),
                    trace_id=request.trace_id,
                    degraded=result.degraded,
                    failed_shards=result.failed_shards,
                    shards_answered=result.shards_answered,
                )
                self._stats["completed"] += 1
                delivered += 1
                if result.degraded:
                    self._stats["degraded_answers"] += 1
                    degraded_delivered += 1
                request.event.set()
        if delivered:
            metrics.inc("serve.completed", delivered)
        if degraded_delivered:
            metrics.inc("serve.degraded_answers", degraded_delivered)
        for request in live:
            if request.result is None:
                continue
            if store is not None:
                # Store the trace *before* the exemplar-tagged latency
                # observation, so a scraped exemplar always resolves.
                store.add_trace(
                    _request_trace(
                        request, pickup_pc, flush_end_pc, flush_tid,
                        source=request.result.source,
                        degraded=request.result.degraded,
                        failed_shards=request.result.failed_shards,
                    )
                )
            metrics.observe(
                "serve.latency_ms",
                request.result.latency_ms,
                trace_id=request.trace_id if store is not None else None,
            )
        if events.enabled():
            sources = sorted({r.source for r in results})
            fields = dict(
                outcome="ok" if sources == ["batch"] else "degraded",
                n_requests=len(live),
                delivered=delivered,
                expired=expired,
                pages=pages,
                sources=sources,
                duration_ms=1e3 * (flush_end_pc - pickup_pc),
            )
            if degraded_delivered:
                fields["degraded_answers"] = degraded_delivered
            if flush_tid is not None:
                fields["trace_id"] = flush_tid
            events.emit("flush", **fields)

    # ------------------------------------------------------------------
    # Fallback ladder
    # ------------------------------------------------------------------
    def _answer(
        self, live: "list[_Request]"
    ) -> "tuple[list[QueryResult], int]":
        """Results for ``live``, surviving any engine failure.

        Rung 1: one batched walk.  Rung 2 (batch raised): per-request
        serial ``nearest``.  Rung 3 (serial raised too): exact linear
        scan over the active points.  Returns ``(results, pages)``.
        """
        points = np.stack([request.point for request in live])
        try:
            ids, dists, info = self._batch_fn(points)
            return (
                [
                    QueryResult(
                        int(i),
                        float(d),
                        "batch",
                        degraded=getattr(info, "degraded", False),
                        failed_shards=tuple(
                            getattr(info, "failed_shards", ())
                        ),
                        shards_answered=getattr(
                            info, "shards_answered", None
                        ),
                    )
                    for i, d in zip(ids, dists)
                ],
                int(info.pages),
            )
        except Exception:
            with self._cond:
                self._stats["fallback_batch"] += 1
            metrics.inc(_FALLBACK_BATCH)
        results = []
        pages = 0
        for request in live:
            try:
                point_id, distance, info = self.index.nearest(request.point)
                results.append(
                    QueryResult(
                        int(point_id),
                        float(distance),
                        "serial",
                        degraded=getattr(info, "degraded", False),
                        failed_shards=tuple(
                            getattr(info, "failed_shards", ())
                        ),
                        shards_answered=getattr(
                            info, "shards_answered", None
                        ),
                    )
                )
                pages += int(info.pages)
                with self._cond:
                    self._stats["fallback_serial"] += 1
                metrics.inc(_FALLBACK_SERIAL)
            except Exception:
                point_id, distance, scanned = self._scan_nearest(request.point)
                results.append(QueryResult(point_id, distance, "scan"))
                pages += scanned
                with self._cond:
                    self._stats["fallback_scan"] += 1
                metrics.inc(_FALLBACK_SCAN)
        return results, pages

    def _scan_nearest(self, q: np.ndarray) -> "tuple[int, float, int]":
        """Last rung: exact nearest by linear scan; ``(id, dist, pages)``.

        The scan is built lazily over the index's active points and maps
        its row ids back to index point ids.
        """
        if self._scan is None:
            active = self.index.active_ids
            self._scan = LinearScan(self.index.points[active])
            self._scan_ids = active
        result = self._scan.nearest(q)
        return (
            int(self._scan_ids[result.nearest_id]),
            float(result.nearest_distance),
            int(result.pages),
        )

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop the service.  Idempotent.

        ``drain=True`` (default) answers every already-accepted request
        before the flush loop exits; ``drain=False`` fails pending
        requests with :class:`ServiceClosed` immediately.
        """
        with self._cond:
            if not self._closed:
                self._closed = True
                if not drain:
                    while self._queue:
                        request = self._queue.popleft()
                        request.state = _FAILED
                        request.error = _failure(
                            ServiceClosed(
                                "service closed before the request was served"
                            ),
                            request,
                        )
                        request.event.set()
                self._cond.notify_all()
        self._thread.join()

    @property
    def closed(self) -> bool:
        return self._closed

    def queue_depth(self) -> int:
        """Current number of pending (not yet flushed) requests."""
        with self._cond:
            return len(self._queue)

    def stats(self) -> "Dict[str, float]":
        """Cumulative serving counters (kept even with metrics disabled).

        Includes the derived ``mean_batch_size`` — the quantity the
        acceptance harness checks — alongside the raw counts.
        """
        with self._cond:
            out = dict(self._stats)
        flushes = max(1.0, out["flushes"])
        out["mean_batch_size"] = out["batched_requests"] / flushes
        return out

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
