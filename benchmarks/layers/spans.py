"""Spans around the layers' public functions, installed from outside.

The benchmark never edits the program to time it.  :class:`Tracer`
replaces a function or method *where its callers look it up* (a module
global such as ``nncell_index.distances_to_points``, or a class
attribute such as ``RStarTree.point_query``) with a wrapper that opens a
span, calls the original and closes the span; :meth:`Tracer.uninstall`
puts every original back.

Each thread keeps its own stack of open spans, so a span's parent is the
innermost span open on the same thread.  A shard probe runs on a pool
thread whose stack is empty; it adopts the span the flush thread
published through :meth:`Tracer.adopting`.  Spans close child-first, so
the closed-span list is a post-order of every span tree, which lets the
reduction fold children into parents in one pass.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "fold", "write_spans"]

_clock = time.perf_counter


class Span:
    """One timed call of one layer."""

    __slots__ = (
        "id", "name", "start", "end", "parent", "root", "thread", "attrs",
        "pages", "sub_pages", "child_time", "children",
    )

    def __init__(self, name: str, parent: "Optional[Span]", span_id: int):
        self.id = span_id
        self.name = name
        self.parent = parent
        #: Outermost span of this causal chain: the flush, the serial
        #: query or the build the span belongs to.
        self.root = parent.root if parent is not None else self
        self.thread = threading.get_ident()
        self.attrs: "Optional[Dict[str, Any]]" = None
        self.pages = 0  # page reads counted while this span was innermost
        self.sub_pages = 0  # pages of the whole subtree (after fold)
        self.child_time = 0.0  # union of child intervals (after fold)
        self.children: "Optional[List[Span]]" = None
        self.start = _clock()
        self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part of it that child spans cover."""
        return self.duration - self.child_time


class Tracer:
    """Installs span wrappers and keeps the closed spans in memory."""

    def __init__(self):
        self.spans: "List[Span]" = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopt: "Optional[Span]" = None
        self._patches: "List[tuple]" = []

    # -- span lifecycle ------------------------------------------------
    def _stack(self) -> "List[Span]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._adopt
            if parent is not None and not threading.current_thread().name.startswith(
                "repro-shard"
            ):
                parent = None
        span = Span(name, parent, next(self._ids))
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = _clock()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str) -> "Iterator[Span]":
        """A span opened by the benchmark itself (``bench.*`` roots)."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    @contextlib.contextmanager
    def adopting(self, span: Span) -> "Iterator[None]":
        """Parent spans opened on shard pool threads under ``span``."""
        self._adopt = span
        try:
            yield
        finally:
            self._adopt = None

    def take(self) -> "List[Span]":
        """Hand over the closed spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    # -- wrappers ------------------------------------------------------
    def timed(
        self,
        fn: Callable,
        name: str,
        note: "Optional[Callable[[Span, tuple, Any], None]]" = None,
        adopt: bool = False,
    ) -> Callable:
        """``fn`` wrapped in a span; ``note(span, args, result)`` may
        attach attributes after the call returns.  With ``adopt``, spans
        opened on shard pool threads during the call become children."""
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            span = open_(name)
            try:
                if adopt:
                    with self.adopting(span):
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                close(span)
            if note is not None:
                note(span, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        note: "Optional[Callable[[Span, tuple, Any], None]]" = None,
    ) -> None:
        """Replace ``owner.attr`` with a spanned wrapper."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.timed(original, name, note))

    def count_pages(self, owner: Any, attr: str) -> None:
        """Count calls of ``owner.attr`` on the innermost open span.

        Page reads are too frequent to give each its own span; counting
        them where they happen keeps the ratios measured at the layer.
        """
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        local = self._local

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack:
                stack[-1].pages += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def fold(spans: "List[Span]") -> None:
    """Fill ``child_time``, ``sub_pages`` and ``children`` in one pass.

    ``spans`` is in close order, so every child precedes its parent.  A
    parent's covered time is the union of its children's intervals
    clipped to its own, which stays correct when probes on pool threads
    overlap each other.
    """
    for span in spans:
        span.sub_pages += span.pages
        kids = span.children
        if kids:
            intervals = sorted(
                (max(k.start, span.start), min(k.end, span.end)) for k in kids
            )
            covered, cur_lo, cur_hi = 0.0, None, None
            for lo, hi in intervals:
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            span.child_time = covered
        parent = span.parent
        if parent is not None:
            parent.sub_pages += span.sub_pages
            if parent.children is None:
                parent.children = []
            parent.children.append(span)


def write_spans(spans: "List[Span]", path: Path) -> None:
    """Write spans as columns: one list per field, ids link parents."""
    names = sorted({s.name for s in spans})
    code = {name: i for i, name in enumerate(names)}
    t0 = min((s.start for s in spans), default=0.0)
    doc = {
        "names": names,
        "name": [code[s.name] for s in spans],
        "id": [s.id for s in spans],
        "parent": [s.parent.id if s.parent is not None else 0 for s in spans],
        "root": [s.root.id for s in spans],
        "thread": [s.thread for s in spans],
        "start_us": [round(1e6 * (s.start - t0), 3) for s in spans],
        "end_us": [round(1e6 * (s.end - t0), 3) for s in spans],
        "self_us": [round(1e6 * s.self_time, 3) for s in spans],
        "pages": [s.pages for s in spans],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
