"""One record per answered query: lock acquisitions per query path.

With the serving telemetry on (metrics, windows, analytics), each
``nearest``, each ``k_nearest`` and each ``query_batch`` — whatever its
batch size — takes
the registry lock at most once and the analytics lock at most once for
its query-level work.  A sharded call adds, per shard probe, one
registry and two analytics acquisitions (the probe count and the
cells), and itself at most two registry acquisitions (``shard.fanout``
and its record).  Page reads and the branch-and-bound fallback keep
their own hooks; they are counted apart, and page-level acquisitions
stay at one per ``storage.*`` counter plus one heatmap update per read.
"""

import threading
from collections import Counter

import numpy as np
import pytest

from repro.core import nncell_index as nncell_module
from repro.core.nncell_index import NNCellIndex
from repro.engine import batch as batch_module
from repro.obs import analytics, metrics
from repro.serve import TelemetryConfig, TelemetrySession
from repro.shard import ShardConfig, ShardedNNCellIndex
from repro.storage.page import PageManager

N_SHARDS = 4


class _Tally(threading.local):
    def __init__(self):
        self.depth = {"page": 0, "fallback": 0}
        self.reads = 0
        self.counts = {}

    def hit(self, lock: str) -> None:
        scope = "query"
        if self.depth["page"]:
            scope = "page"
        elif self.depth["fallback"]:
            scope = "fallback"
        key = (lock, scope)
        self.counts[key] = self.counts.get(key, 0) + 1


class _CountingLock:
    """A lock proxy that tallies each acquisition."""

    def __init__(self, inner, name: str, tally: _Tally):
        self._inner, self._name, self._tally = inner, name, tally

    def __enter__(self):
        self._tally.hit(self._name)
        return self._inner.__enter__()

    def __exit__(self, *exc):
        return self._inner.__exit__(*exc)


def _excluded(fn, tally: _Tally, scope: str):
    def wrapper(*args, **kwargs):
        tally.depth[scope] += 1
        tally.reads += scope == "page"
        try:
            return fn(*args, **kwargs)
        finally:
            tally.depth[scope] -= 1

    return wrapper


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    points = rng.uniform(size=(60, 4))
    queries = np.vstack([rng.uniform(size=(30, 4)), [[2.0, 2.0, 2.0, 2.0]]])
    return points, queries


@pytest.fixture(scope="module")
def index(data):
    return NNCellIndex.build(data[0])


@pytest.fixture(scope="module")
def sharded(data):
    with ShardedNNCellIndex.build(
        data[0],
        shard_config=ShardConfig(n_shards=N_SHARDS, partitioner="hilbert"),
    ) as built:
        yield built


@pytest.fixture
def tally(monkeypatch):
    tally = _Tally()
    monkeypatch.setattr(
        PageManager, "read", _excluded(PageManager.read, tally, "page")
    )
    for module in (nncell_module, batch_module):
        monkeypatch.setattr(
            module,
            "rkv_nearest",
            _excluded(module.rkv_nearest, tally, "fallback"),
        )
    was_enabled = metrics.enabled()
    config = TelemetryConfig(metrics_port=0, analytics=True)
    with TelemetrySession(config) as session:
        registry = session.registry
        monkeypatch.setattr(
            registry, "_lock", _CountingLock(registry._lock, "registry", tally)
        )
        recorder = session.analytics
        monkeypatch.setattr(
            recorder, "_lock", _CountingLock(recorder._lock, "analytics", tally)
        )
        yield tally
    metrics.get_registry().reset()
    assert metrics.enabled() == was_enabled


def _run(tally: _Tally, call) -> dict:
    tally.counts.clear()
    tally.reads = 0
    call()
    counts = dict(tally.counts)
    # Page reads take one registry acquisition per storage counter
    # (logical and physical, no cache) and one heatmap update each.
    assert counts.get(("registry", "page"), 0) == 2 * tally.reads
    assert counts.get(("analytics", "page"), 0) == tally.reads
    return counts


def test_nearest_takes_each_lock_at_most_once(index, data, tally):
    for q in data[1]:
        counts = _run(tally, lambda: index.nearest(q))
        assert counts.get(("registry", "query"), 0) == 1
        assert counts.get(("analytics", "query"), 0) <= 1


@pytest.mark.parametrize("batch_size", [None, 1, 7, 32])
def test_query_batch_takes_each_lock_at_most_once(
    index, data, tally, batch_size
):
    counts = _run(
        tally, lambda: index.query_batch(data[1], batch_size=batch_size)
    )
    assert counts.get(("registry", "query"), 0) == 1
    assert counts.get(("analytics", "query"), 0) == 1


def test_sharded_calls_add_one_record_per_probe(
    sharded, data, tally, monkeypatch
):
    """The shards' ``k_nearest`` refinement searches are counted apart,
    as in :func:`test_k_nearest_takes_each_lock_at_most_once`."""
    for name in ("sphere_query", "hs_k_nearest"):
        monkeypatch.setattr(
            nncell_module, name,
            _excluded(getattr(nncell_module, name), tally, "fallback"),
        )
    for call in (
        lambda: sharded.nearest(data[1][0]),
        lambda: sharded.nearest(data[1][-1]),  # outside: fallbacks
        lambda: sharded.k_nearest(data[1][0], 3),
        lambda: sharded.k_nearest(data[1][-1], 3),
        lambda: sharded.query_batch(data[1]),
        lambda: sharded.query_batch(data[1], batch_size=7),
    ):
        counts = _run(tally, call)
        assert counts.get(("registry", "query"), 0) <= N_SHARDS + 2
        assert counts.get(("analytics", "query"), 0) <= 2 * N_SHARDS


def test_batch_record_matches_serial_metrics(index, data, tally):
    """The batch's one record observes the same per-query candidate
    counts as the serial path, in query order."""
    registry = metrics.get_registry()
    registry.reset()
    for q in data[1]:
        index.nearest(q)
    serial = registry.histogram("query.candidates")._samples[:]
    registry.reset()
    index.query_batch(data[1], batch_size=7)
    assert registry.histogram("query.candidates")._samples == serial
    assert registry.counter("query.fallbacks").value == 1


def test_k_nearest_takes_each_lock_at_most_once(
    index, data, tally, monkeypatch
):
    """``k_nearest`` publishes its walk pages, cells and metrics in one
    record; the data pages of its sphere refinement and of its
    best-first fallback are counted apart, as the nearest fallback's
    are."""
    for name in ("sphere_query", "hs_k_nearest"):
        monkeypatch.setattr(
            nncell_module, name,
            _excluded(getattr(nncell_module, name), tally, "fallback"),
        )
    for q in data[1]:
        for k in (1, 3, 8):
            counts = _run(tally, lambda: index.k_nearest(q, k))
            assert counts.get(("registry", "query"), 0) == 1
            assert counts.get(("analytics", "query"), 0) <= 1


class _PageLog:
    def __init__(self):
        self.pages = []

    def page_read(self, page_id):
        self.pages.append(page_id)


def test_k_nearest_record_publishes_what_it_read(index, data):
    """After a fixed ``k_nearest`` traffic the registry and the heatmaps
    hold what the queries read and found: each page read once in
    ``storage.*`` and on the page heatmap, the order-1 cells of each
    query the cells answered, its candidates and pages, and one
    ``query.count`` or ``query.fallbacks`` per query."""
    traffic = [(q, k) for q in data[1] for k in (1, 3, 8)]
    log = _PageLog()
    index.set_page_chaos(log)
    try:
        with metrics.collecting(fresh=True) as registry, \
                analytics.recording() as recorder:
            infos = [index.k_nearest(q, k)[2] for q, k in traffic]
    finally:
        index.set_page_chaos(None)
    answered = [info for info in infos if not info.fallback]
    assert 0 < len(answered) < len(infos)
    cells = Counter()
    for (q, __), info in zip(traffic, infos):
        if not info.fallback:
            cells.update(pid for pid, __ in index.explain(q).candidates)
    assert recorder.cells._counts == {
        cell: float(count) for cell, count in cells.items()
    }
    assert recorder.pages._counts == {
        page: float(count) for page, count in Counter(log.pages).items()
    }
    snap = registry.snapshot()
    assert snap["storage.logical_reads"] == len(log.pages)
    assert snap["storage.physical_reads"] == len(log.pages)
    assert snap["query.count"] == len(answered)
    assert snap["query.fallbacks"] == len(infos) - len(answered)
    assert registry.histogram("query.candidates")._samples == [
        info.n_candidates for info in answered
    ]
    assert registry.histogram("query.pages")._samples == [
        info.pages for info in answered
    ]
