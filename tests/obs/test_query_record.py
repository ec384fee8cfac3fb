"""One record per answered query: lock acquisitions per query path.

With the serving telemetry on (metrics, windows, analytics), each
``nearest`` and each ``query_batch`` — whatever its batch size — takes
the registry lock at most once and the analytics lock at most once for
its query-level work.  A sharded call adds, per shard probe, one
registry and two analytics acquisitions (the probe count and the
cells), and itself at most two registry acquisitions (``shard.fanout``
and its record).  Page reads and the branch-and-bound fallback keep
their own hooks; they are counted apart, and page-level acquisitions
stay at one per ``storage.*`` counter plus one heatmap update per read.
"""

import threading

import numpy as np
import pytest

from repro.core import nncell_index as nncell_module
from repro.core.nncell_index import NNCellIndex
from repro.engine import batch as batch_module
from repro.obs import metrics
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
        shard_config=ShardConfig(
            n_shards=N_SHARDS, partitioner="hilbert", query_workers=1
        ),
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


def test_sharded_calls_add_one_record_per_probe(sharded, data, tally):
    for call in (
        lambda: sharded.nearest(data[1][0]),
        lambda: sharded.nearest(data[1][-1]),  # outside: fallbacks
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
