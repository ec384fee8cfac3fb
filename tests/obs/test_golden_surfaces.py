"""Golden surfaces: one seeded traffic with every sink on, byte for byte.

Drives a fixed traffic through an unsharded and a 4-shard index with
metrics, windows (fixed clock), analytics, the event log and the
workload capture all recording, then compares what an operator reads
against ``golden_surfaces.json``:

* the Prometheus exposition (``/metrics``);
* the ``/telemetry`` document (windows plus the analytics report);
* the event-log lines, with only ``ts`` and ``duration_ms`` masked;
* the capture file.

The golden file is the reference; it is not regenerated.
"""

import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.nncell_index import NNCellIndex
from repro.obs import analytics, events, metrics, workload
from repro.obs.promexport import MetricsServer, render_prometheus
from repro.shard import ShardConfig, ShardedNNCellIndex

GOLDEN = Path(__file__).with_name("golden_surfaces.json")

#: Event fields that carry wall-clock readings.
_MASKED = ("ts", "duration_ms")


@pytest.fixture(scope="module")
def traffic():
    rng = np.random.default_rng(2026)
    points = rng.uniform(size=(80, 4))
    inside = rng.uniform(size=(40, 4))
    outside = np.array([[2.0, 2.0, 2.0, 2.0], [-1.0, 0.5, 0.5, 0.5]])
    queries = np.vstack([inside, outside])
    index = NNCellIndex.build(points)
    sharded = ShardedNNCellIndex.build(
        points,
        shard_config=ShardConfig(n_shards=4, partitioner="hilbert"),
    )
    yield index, sharded, queries
    sharded.close()


def _drive(index, sharded, queries) -> None:
    for q in queries:
        index.nearest(q)
    index.query_batch(queries)
    index.query_batch(queries, batch_size=7)
    for q in queries[-20:]:
        sharded.nearest(q)
    sharded.query_batch(queries)


def _mask(line: str) -> str:
    record = json.loads(line)
    for key in _MASKED:
        if key in record:
            record[key] = "*"
    return json.dumps(record, sort_keys=True)


def _surfaces(traffic) -> "dict":
    """Run the traffic with every sink on; the four surfaces as text."""
    event_sink, capture_sink = io.StringIO(), io.StringIO()
    was_enabled = metrics.enabled()
    try:
        with metrics.collecting(fresh=True) as registry, \
                analytics.recording() as recorder, \
                events.collecting(sink=event_sink), \
                workload.capturing(sink=capture_sink):
            registry.enable_windows(clock=lambda: 1000.0)
            _drive(*traffic)
            server = MetricsServer(analytics=recorder)
            try:
                telemetry = json.dumps(
                    server.telemetry_document(), sort_keys=True
                )
            finally:
                server.close()
            exposition = render_prometheus()
    finally:
        metrics.get_registry().disable_windows()
        metrics.get_registry().reset()
        if not was_enabled:
            metrics.disable()
    return {
        "metrics": exposition,
        "telemetry": telemetry,
        "events": [_mask(line) for line in event_sink.getvalue().splitlines()],
        "capture": capture_sink.getvalue(),
    }


def test_surfaces_match_golden(traffic):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    surfaces = _surfaces(traffic)
    assert surfaces["metrics"] == golden["metrics"]
    assert surfaces["telemetry"] == golden["telemetry"]
    assert surfaces["events"] == golden["events"]
    assert surfaces["capture"] == golden["capture"]


def test_traffic_covers_every_record_kind(traffic):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    kinds = [json.loads(line)["kind"] for line in golden["events"]]
    assert kinds.count("query") == 42 + 20 * 4
    assert kinds.count("batch") == 2 + 4
    capture = golden["capture"].splitlines()
    assert len(capture) == 1 + 42 * 3 + 20 + 42
    sources = [json.loads(line).get("source") for line in capture[1:]]
    assert sources.count("fallback") == 2
    assert sources.count("sharded") == 20
