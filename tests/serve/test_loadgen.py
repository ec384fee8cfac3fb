"""Tests of the concurrent load-generator harness (`repro.eval.loadgen`)."""

import time

import pytest

from repro.core.nncell_index import NNCellIndex
from repro.data import query_points, uniform_points
from repro.eval.loadgen import (
    run_direct_load,
    run_service_load,
    serving_throughput_table,
)
from repro.serve import QueryService, ServeConfig


@pytest.fixture(scope="module")
def index():
    return NNCellIndex.build(uniform_points(80, 4, seed=53))


@pytest.fixture(scope="module")
def queries():
    return query_points(60, 4, seed=54)


class TestDirectBaseline:
    def test_report_accounts_every_query(self, index, queries):
        report = run_direct_load(index, queries, n_threads=3)
        assert report.mode == "direct"
        assert report.n_queries == 60
        assert len(report.latencies_ms) == 60
        assert report.errors == 0
        assert report.pages > 0
        assert report.mean_batch_size == 1.0
        assert report.wall_seconds > 0.0

    def test_percentiles_monotone(self, index, queries):
        report = run_direct_load(index, queries, n_threads=2)
        assert (
            0.0
            <= report.percentile(50)
            <= report.percentile(95)
            <= report.percentile(99)
        )
        summary = report.summary()
        assert summary["p50_ms"] == report.percentile(50)


class TestServiceLoad:
    def test_zero_errors_and_batching_observed(self, index, queries):
        config = ServeConfig(max_batch_size=32)
        report = run_service_load(
            index, queries, n_threads=4, config=config
        )
        assert report.errors == 0
        assert len(report.latencies_ms) == 60
        assert report.mean_batch_size > 1.0

    def test_serving_errors_are_counted_not_raised(self, index, queries):
        # A flush holds until the service has rejected a submission:
        # behind the held first flush, a depth-1 queue under 4 threads
        # overflows, and the report must absorb the rejections.
        def hold_until_rejected(points, batch_size=None):
            give_up = time.monotonic() + 10.0
            while (
                not service.stats()["rejected"]
                and time.monotonic() < give_up
            ):
                time.sleep(0.001)
            return index.query_batch(points, batch_size=batch_size)

        service = QueryService(
            index,
            ServeConfig(max_queue_depth=1, admission="reject"),
            batch_fn=hold_until_rejected,
        )
        try:
            report = run_service_load(
                index, queries, n_threads=4, service=service
            )
        finally:
            service.close()
        assert report.errors + len(report.latencies_ms) == 60
        assert report.errors > 0
        assert "ServiceOverloaded" in report.error_samples


class TestThroughputTable:
    def test_service_beats_unbatched_baseline(self, index, queries):
        """Batching amortises page reads: the service reads fewer pages
        per query than the one-at-a-time baseline."""
        table = serving_throughput_table(
            index, queries, n_threads=4,
            config=ServeConfig(max_batch_size=64),
        )
        rows = {row["mode"]: row for row in table.rows}
        assert set(rows) == {"direct", "service"}
        assert rows["direct"]["errors"] == 0
        assert rows["service"]["errors"] == 0
        assert rows["service"]["mean_batch_size"] > 1.0
        assert rows["service"]["pages_per_query"] < (
            rows["direct"]["pages_per_query"]
        )

    def test_table_renders(self, index):
        table = serving_throughput_table(
            index, query_points(10, 4, seed=55), n_threads=2
        )
        text = table.render()
        assert "Serving throughput" in text
        assert "pages_per_query" in text
