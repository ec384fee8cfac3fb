"""Load for the served workloads: open-loop steps and a saturation loop.

Open loop: the calling thread is the generator.  Request ``i`` is due at
``start + i / rate`` whatever the service is doing, and the generator
calls ``submit_async`` as soon as the request is due.  One collector
thread waits on the handles in submission order.  A request's latency
runs from when it was due to when the collector holds its answer, so a
stall also charges the requests that queued behind it.  How late the
generator ran is kept per request (``lag_ms``).

Saturation is a closed loop: one thread keeps ``outstanding`` requests
in flight and submits a new one each time the oldest is answered.

A request the service accepted but then failed with a typed
:class:`ServeError` is left unanswered (``done`` stays nan) and counted
in ``errors``.  Any other exception ends the step: the collector keeps
it, and :func:`open_loop` raises it once the collector has stopped.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.serve.errors import ServeError

__all__ = ["Step", "open_loop", "saturate"]

_clock = time.perf_counter


@dataclass
class Step:
    """What one load step sent and got back (arrays indexed by request)."""

    pool_index: np.ndarray  # row of the query pool each request asked
    due: np.ndarray  # when each request was due (perf_counter seconds)
    submitted: np.ndarray  # when submit_async was called
    done: np.ndarray  # when the answer was held (nan: no answer)
    ids: np.ndarray
    dists: np.ndarray
    rejected: int
    started: float
    ended: float
    errors: int = 0  # accepted, then failed with a ServeError
    completed_in_window: int = 0  # saturation only

    @property
    def latency_ms(self) -> np.ndarray:
        ok = ~np.isnan(self.done)
        return 1e3 * (self.done[ok] - self.due[ok])

    @property
    def lag_ms(self) -> np.ndarray:
        return 1e3 * (self.submitted - self.due)


def _empty_step(n: int, offset: int, pool_size: int) -> Step:
    return Step(
        pool_index=(offset + np.arange(n)) % pool_size,
        due=np.full(n, np.nan),
        submitted=np.full(n, np.nan),
        done=np.full(n, np.nan),
        ids=np.full(n, -1, dtype=np.int64),
        dists=np.full(n, np.nan),
        rejected=0,
        started=0.0,
        ended=0.0,
    )


def _settle(step: Step, i: int, handle) -> None:
    """Wait for request ``i`` and hold its answer, or count its error."""
    try:
        result = handle.result()
    except ServeError:
        step.errors += 1
        return
    step.done[i] = _clock()
    step.ids[i] = result.point_id
    step.dists[i] = result.distance


def open_loop(
    service, pool: np.ndarray, rate: float, seconds: float, offset: int = 0
) -> Step:
    """Send ``rate`` requests per second for ``seconds``; wait for all."""
    n = max(1, int(rate * seconds))
    step = _empty_step(n, offset, pool.shape[0])
    handles: "queue.SimpleQueue" = queue.SimpleQueue()
    crashed: "List[BaseException]" = []

    def collect() -> None:
        try:
            while True:
                item = handles.get()
                if item is None:
                    return
                _settle(step, *item)
        except BaseException as exc:  # raised again on the calling thread
            crashed.append(exc)

    collector = threading.Thread(target=collect, name="bench-collector")
    collector.start()
    start = _clock() + 0.001
    step.due[:] = start + np.arange(n) / rate
    step.started = start
    try:
        for i in range(n):
            wait = step.due[i] - _clock()
            if wait > 0:
                time.sleep(wait)
            step.submitted[i] = _clock()
            try:
                handle = service.submit_async(pool[step.pool_index[i]])
            except ServeError:
                step.rejected += 1
                continue
            handles.put((i, handle))
    finally:
        handles.put(None)
        collector.join()
    if crashed:
        raise crashed[0]
    step.ended = _clock()
    return step


def saturate(
    service, pool: np.ndarray, outstanding: int, seconds: float, offset: int = 0
) -> Step:
    """Keep ``outstanding`` requests in flight for ``seconds``.

    ``completed_in_window`` counts answers collected before the window
    closed; the requests still in flight then are drained and checked
    but not counted.
    """
    capacity = int(outstanding + 100_000 * seconds)
    step = _empty_step(capacity, offset, pool.shape[0])
    pending: "deque" = deque()
    sent = 0

    def send() -> None:
        nonlocal sent
        i = sent
        sent += 1
        step.due[i] = step.submitted[i] = _clock()
        pending.append((i, service.submit_async(pool[step.pool_index[i]])))

    step.started = _clock()
    window_end = step.started + seconds
    for __ in range(outstanding):
        send()
    while True:
        i, handle = pending.popleft()
        _settle(step, i, handle)
        now = _clock()
        if now >= window_end or sent == capacity:
            break
        step.completed_in_window += not math.isnan(step.done[i])
        send()
    step.ended = now
    while pending:
        _settle(step, *pending.popleft())
    for name in ("pool_index", "due", "submitted", "done", "ids", "dists"):
        setattr(step, name, getattr(step, name)[:sent].copy())
    return step
