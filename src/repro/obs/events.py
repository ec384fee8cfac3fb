"""Structured event log: one sampled record per pipeline lifecycle.

Metrics answer *aggregate* questions; an event log answers "what did
**this** query / flush / build chunk do".  Each record is one flat,
JSON-ready dict with a ``kind``, a wall-clock ``ts``, a process-unique
``seq``, and the lifecycle's outcome fields (timing, candidate count,
pages, fallback reason).  The kinds emitted by the pipeline, with
their payload beyond ``kind``/``ts``/``seq``:

* ``query`` — ``NNCellIndex.nearest`` (through ``workload.record_query``):
  outcome, point_id, candidates, pages, retried_atol, fallback_reason,
  duration_ms;
* ``batch`` — ``engine.batch.query_batch`` (through
  ``workload.record_batch``): n_queries, candidates, pages, fallbacks,
  retried_atol, duration_ms;
* ``flush`` — ``serve.QueryService``: outcome, n_requests, pages,
  sources, expired, duration_ms;
* ``build_chunk`` — ``engine.parallel``: worker, n_points, lp_calls,
  duration_ms;
* ``slo`` — ``obs.slo.SLOWatchdog``: objective, previous, state,
  burn_short, burn_long, bad_fraction.

Like :mod:`repro.obs.metrics`, the log is **off by default** and every
hot-path emission site guards with one module-level boolean
(:func:`enabled`), so a disabled process pays a single check — the same
< 3% overhead contract, enforced by ``tests/obs/test_events.py``.

:class:`EventLog` is the one sampled log of ``repro.obs``: a seeded
sample of JSON records kept in a bounded ring (oldest evicted first)
and, optionally, written to a JSONL sink — one ``json.dumps`` line per
record, the format ``python -m repro serve --events PATH`` writes.  The
workload capture (:class:`repro.obs.workload.WorkloadRecorder`) is the
other instance.  Sampling (``sample=0.1`` keeps ~10%) uses an RNG seeded
with :data:`SAMPLE_SEED`, so runs are reproducible; the ``seen`` and
``recorded`` counters make the sampling rate auditable.
"""

from __future__ import annotations

import json
import random
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from . import tracectx

__all__ = [
    "DEFAULT_CAPACITY",
    "SAMPLE_SEED",
    "EventLog",
    "collecting",
    "disable",
    "emit",
    "enable",
    "enabled",
    "get_log",
]

#: Ring-buffer bound: how many recent records the event log retains.
DEFAULT_CAPACITY = 1024

#: Seed of every log's sampling RNG: a run's sample is reproducible.
SAMPLE_SEED = 0


class EventLog:
    """A seeded sample of JSON records: bounded ring plus optional sink.

    Each offered record survives sampling with probability ``sample``;
    a kept record is stamped with the trace id bound to the calling
    context (:mod:`repro.obs.tracectx`) unless it names one, so the log
    joins against the trace store on ``trace_id``.  With a ``clock``
    (the event log) a record is also stamped with ``seq`` — how many
    records were offered so far — and ``ts``.

    ``sink`` may be a file-like object (borrowed: not closed) or a path
    (owned: opened for append, closed by :meth:`close`).  A new sink
    starts with the :meth:`header` line, if the log has one.  All
    mutation is serialised by one lock, so worker threads and the
    serve flush loop can share a log.
    """

    #: Ring bound: how many recent records the log retains.
    capacity = DEFAULT_CAPACITY

    def __init__(
        self,
        sample: float = 1.0,
        sink: "Any | None" = None,
        clock: "Optional[Callable[[], float]]" = time.time,
    ):
        if not 0.0 <= sample <= 1.0:
            raise ValueError("sample must be in [0, 1]")
        self.sample = sample
        self._clock = clock
        self._rng = random.Random(SAMPLE_SEED)
        self._lock = threading.Lock()
        self._ring: "deque[Dict[str, Any]]" = deque(maxlen=self.capacity)
        #: Records offered (including ones dropped by sampling).
        self.seen = 0
        #: Records kept: retained and written.
        self.recorded = 0
        #: Kept records since evicted from the full ring.
        self.dropped = 0
        self._own_sink = isinstance(sink, (str, Path))
        self._sink = (
            open(sink, "a", encoding="utf-8") if self._own_sink else sink
        )
        # Appending to an existing owned file continues its header.
        self._header_due = self._sink is not None and not (
            self._own_sink and self._sink.tell() > 0
        )

    def header(self, record: "Dict[str, Any]") -> "Optional[Dict[str, Any]]":
        """The line a new sink starts with, given its first record;
        ``None`` (the event log) for none."""
        return None

    def emit(self, kind: str, **fields: Any) -> bool:
        """Record one lifecycle; returns whether it survived sampling."""
        fields["kind"] = kind
        return self.extend((fields,)) == 1

    def extend(self, records: "Iterable[Dict[str, Any]]") -> int:
        """Offer ``records`` in order under one lock acquisition; returns
        how many survived sampling."""
        trace_id = tracectx.current_trace_id()
        kept = 0
        with self._lock:
            for record in records:
                self.seen += 1
                if self.sample < 1.0 and self._rng.random() >= self.sample:
                    continue
                if self._clock is not None:
                    record = {"seq": self.seen, "ts": self._clock(), **record}
                if trace_id is not None and "trace_id" not in record:
                    record["trace_id"] = trace_id
                if len(self._ring) == self.capacity:
                    self.dropped += 1
                self._ring.append(record)
                self.recorded += 1
                kept += 1
                if self._sink is not None:
                    if self._header_due:
                        self._header_due = False
                        header = self.header(record)
                        if header is not None:
                            self._write(header)
                    self._write(record)
            if kept and self._sink is not None:
                self._sink.flush()
        return kept

    def _write(self, record: "Dict[str, Any]") -> None:
        self._sink.write(json.dumps(record, sort_keys=True) + "\n")

    def records(self, kind: "str | None" = None) -> "List[Dict[str, Any]]":
        """A snapshot of the retained records, optionally one kind."""
        with self._lock:
            records = list(self._ring)
        if kind is None:
            return records
        return [r for r in records if r.get("kind") == kind]

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def close(self) -> None:
        """Close an owned (path-opened) sink; borrowed sinks are kept."""
        with self._lock:
            if self._own_sink and self._sink is not None:
                self._sink.close()
            self._sink = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


# ======================================================================
# Module-level fast path (mirrors repro.obs.metrics)
# ======================================================================

_enabled = False
_log: "Optional[EventLog]" = None


def enabled() -> bool:
    """Whether lifecycle events are currently being recorded."""
    return _enabled


def enable(log: "Optional[EventLog]" = None, **kwargs: Any) -> EventLog:
    """Turn event recording on.

    Pass an existing :class:`EventLog`, or constructor ``kwargs``
    (``sample``, ``sink``) for a fresh one; with neither, the previous
    log is reused (a fresh default one on first use).
    """
    global _enabled, _log
    if log is not None and kwargs:
        raise ValueError("pass an EventLog or constructor kwargs, not both")
    if log is not None:
        _log = log
    elif kwargs or _log is None:
        _log = EventLog(**kwargs)
    _enabled = True
    return _log


def disable() -> None:
    """Turn event recording off (the log keeps its retained records)."""
    global _enabled
    _enabled = False


def get_log() -> "Optional[EventLog]":
    """The installed log, or ``None`` if events never started."""
    return _log


def emit(kind: str, **fields: Any) -> None:
    """Hot-path emission; no-op (one boolean check) unless enabled."""
    if not _enabled:
        return
    _log.emit(kind, **fields)


@contextmanager
def collecting(**kwargs: Any) -> "Iterator[EventLog]":
    """Record events for a ``with`` block onto a fresh log.

    Restores the previous enablement state and log on exit::

        with events.collecting() as log:
            index.nearest(q)
        log.records("query")
    """
    global _enabled, _log
    prev_enabled, prev_log = _enabled, _log
    fresh = EventLog(**kwargs)
    _log = fresh
    _enabled = True
    try:
        yield fresh
    finally:
        _enabled = prev_enabled
        _log = prev_log
        fresh.close()
