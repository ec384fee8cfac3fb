"""Span-based tracing of builds and queries.

A *span* is one named, timed region of work — ``lp.solve``,
``query.point_query`` — with attributes and child spans.  Spans nest via
:mod:`contextvars`, so the tree mirrors the dynamic call structure even
across worker threads (each thread sees its own current-span context):

    with span("query.nearest", dim=8):
        with span("query.point_query") as s:
            ...
            s.set("pages", pages)
        with span("query.candidate_scan"):
            ...

Like :mod:`repro.obs.metrics`, tracing is off by default and the
:func:`span` helper returns a shared no-op object after one boolean
check, so instrumented hot paths stay cheap.  When enabled, finished
root spans accumulate on the installed :class:`Tracer`; exporters in
:mod:`repro.obs.export` turn them into nested JSON.

Timing uses :func:`time.perf_counter` — monotonic, so a child span's
measured duration can never exceed its parent's beyond timer resolution.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from typing import Any, Callable, Dict, List, Optional

from . import tracectx

__all__ = [
    "Span",
    "TraceCarrier",
    "Tracer",
    "span",
    "carrier",
    "current_span",
    "enabled",
    "enable",
    "disable",
    "get_tracer",
    "set_tracer",
    "collecting",
]


class Span:
    """One timed region: name, wall-clock window, attributes, children."""

    __slots__ = ("name", "attributes", "children", "start", "end", "_token")

    def __init__(self, name: str, attributes: "Optional[Dict[str, Any]]" = None):
        self.name = name
        # Takes ownership of `attributes` (span() hands over the fresh
        # kwargs dict) — one less per-span allocation on hot paths.
        self.attributes: "Dict[str, Any]" = (
            attributes if attributes is not None else {}
        )
        self.children: "List[Span]" = []
        self.start: float = 0.0
        self.end: float = 0.0
        self._token = None

    @property
    def duration_seconds(self) -> float:
        return max(0.0, self.end - self.start)

    def set(self, key: str, value: Any) -> None:
        """Attach or overwrite one attribute."""
        self.attributes[key] = value

    # ------------------------------------------------------------------
    # Context-manager protocol
    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        # Spans opened while a request trace id is bound carry it, so a
        # stored trace (and its Chrome export) is self-identifying even
        # after the span tree leaves the context it was recorded in.
        if "trace_id" not in self.attributes:
            trace_id = tracectx.current_trace_id()
            if trace_id is not None:
                self.attributes["trace_id"] = trace_id
        self._token = _current.set(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = time.perf_counter()
        _current.reset(self._token)
        self._token = None
        # Attach to the enclosing span, current again after the reset;
        # root spans go to the installed tracer.
        enclosing = _current.get()
        if enclosing is not None:
            enclosing.children.append(self)
        elif _tracer is not None:
            _tracer.add(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration_seconds * 1e3:.3f} ms,"
            f" {len(self.children)} children)"
        )


class _NoopSpan:
    """Shared do-nothing stand-in returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, key: str, value: Any) -> None:
        return None


_NOOP = _NoopSpan()


class Tracer:
    """Collects finished root spans for one enablement scope."""

    def __init__(self):
        self.spans: "List[Span]" = []

    def add(self, finished: Span) -> None:
        self.spans.append(finished)

    def clear(self) -> None:
        self.spans.clear()

    def find(self, name: str) -> "List[Span]":
        """All spans with ``name`` anywhere in the collected trees."""
        found: "List[Span]" = []
        stack = list(self.spans)
        while stack:
            node = stack.pop()
            if node.name == name:
                found.append(node)
            stack.extend(node.children)
        return found


# ======================================================================
# Module state
# ======================================================================

_current: "ContextVar[Optional[Span]]" = ContextVar(
    "repro_current_span", default=None
)
_enabled = False
_tracer: "Optional[Tracer]" = None


def enabled() -> bool:
    """Whether spans are currently being recorded."""
    return _enabled


def enable(tracer: "Optional[Tracer]" = None) -> Tracer:
    """Start recording spans onto ``tracer`` (a fresh one by default).

    The identity check matters: an *empty* sink (a fresh
    :class:`~repro.obs.tracestore.TraceStore` has ``len() == 0`` and is
    falsy) must still be installed.
    """
    global _enabled, _tracer
    if tracer is not None:
        _tracer = tracer
    elif _tracer is None:
        _tracer = Tracer()
    _enabled = True
    return _tracer


def disable() -> None:
    """Stop recording; the installed tracer keeps its collected spans."""
    global _enabled
    _enabled = False


def get_tracer() -> "Optional[Tracer]":
    """The installed tracer, or ``None`` if tracing never started."""
    return _tracer


def set_tracer(tracer: "Optional[Tracer]") -> None:
    """Install (or clear) the root-span sink without touching enablement.

    Any object with an ``add(span)`` method works — the serving layer
    installs a :class:`~repro.obs.tracestore.TraceStore` here so root
    spans flow into the tail-sampled store instead of an unbounded list.
    """
    global _tracer
    _tracer = tracer


def span(name: str, **attributes: Any):
    """Open a traced region; usable as a context manager.

    Returns the shared no-op span when tracing is disabled, so call
    sites never need their own enablement checks.
    """
    if not _enabled:
        return _NOOP
    return Span(name, attributes)


def current_span():
    """The innermost open span, or a no-op stand-in when disabled."""
    if not _enabled:
        return _NOOP
    active = _current.get()
    return active if active is not None else _NOOP


class TraceCarrier:
    """Captured span/trace context, re-enterable on another thread.

    Executor workers run in their own :mod:`contextvars` context, so
    spans they open would become unrelated roots (see
    ``test_threads_get_independent_span_stacks``).  A carrier captures
    the *submitting* side's current span and trace id; the worker wraps
    its work in :meth:`attached` and everything it opens nests under the
    submitting span and carries the submitting request's trace id —
    parity with the serial span tree.

    Child-list appends from several workers interleave safely
    (``list.append`` is atomic under the GIL); ordering among sibling
    worker spans is completion order, as with any concurrent trace.
    """

    __slots__ = ("parent", "trace_id")

    def __init__(self):
        self.parent: "Optional[Span]" = _current.get() if _enabled else None
        self.trace_id = tracectx.current_trace_id()

    def attached(self):
        """Context manager binding the captured context on this thread."""
        return _CarrierScope(self)

    def call(self, fn: "Callable", *args: Any, **kwargs: Any):
        """Run ``fn`` under the captured context (executor-friendly)."""
        with self.attached():
            return fn(*args, **kwargs)


class _CarrierScope:
    __slots__ = ("_carrier", "_span_token", "_ctx")

    def __init__(self, carrier: TraceCarrier):
        self._carrier = carrier
        self._span_token = None
        self._ctx = None

    def __enter__(self) -> None:
        if self._carrier.parent is not None:
            self._span_token = _current.set(self._carrier.parent)
        self._ctx = tracectx.bind(self._carrier.trace_id)
        self._ctx.__enter__()

    def __exit__(self, *exc_info) -> None:
        self._ctx.__exit__(*exc_info)
        if self._span_token is not None:
            _current.reset(self._span_token)
            self._span_token = None


def carrier() -> TraceCarrier:
    """Capture the calling context for re-entry on a worker thread."""
    return TraceCarrier()


class collecting:
    """Context manager: record spans for a block onto a fresh tracer.

    Restores the previous enablement state and tracer on exit::

        with tracing.collecting() as tracer:
            index.nearest(q)
        root = tracer.spans[0]
    """

    def __init__(self):
        self.tracer = Tracer()
        self._prev_enabled = False
        self._prev_tracer: "Optional[Tracer]" = None

    def __enter__(self) -> Tracer:
        global _enabled, _tracer
        self._prev_enabled = _enabled
        self._prev_tracer = _tracer
        _tracer = self.tracer
        _enabled = True
        return self.tracer

    def __exit__(self, *exc_info) -> None:
        global _enabled, _tracer
        _enabled = self._prev_enabled
        _tracer = self._prev_tracer
