"""Unit tests for the measurement harness."""

import numpy as np
import pytest

from repro.core.nncell_index import BuildConfig, NNCellIndex
from repro.core.candidates import SelectorKind
from repro.data import uniform_points
from repro.eval.harness import (
    CostModel,
    QueryMeasurement,
    Timer,
    measure_nncell_queries,
    measure_scan_queries,
    measure_tree_queries,
)
from repro.index.bulk import bulk_load
from repro.index.linear_scan import LinearScan
from repro.index.rstar import RStarTree


@pytest.fixture(scope="module")
def setup():
    points = uniform_points(120, 3, seed=91)
    queries = uniform_points(10, 3, seed=92)
    tree = bulk_load(
        RStarTree(3, cache_pages=8), points, points, np.arange(120)
    )
    index = NNCellIndex.build(
        points,
        BuildConfig(selector=SelectorKind.NN_DIRECTION),
    )
    scan = LinearScan(points, cache_pages=8)
    return points, queries, tree, index, scan


class TestCostModel:
    def test_total_seconds(self):
        model = CostModel(io_seconds_per_block=0.01)
        assert model.total_seconds(0.5, 100) == pytest.approx(1.5)

    def test_default_is_ten_ms(self):
        assert CostModel().io_seconds_per_block == pytest.approx(0.010)


class TestTimer:
    def test_measures_positive_time(self):
        with Timer() as t:
            sum(range(10000))
        assert t.seconds > 0.0


class TestMeasurements:
    def test_nncell_measurement(self, setup):
        __, queries, __, index, __ = setup
        meas = measure_nncell_queries(index, queries)
        assert meas.n_queries == 10
        assert meas.pages > 0
        assert meas.candidates >= 10  # at least one per query
        assert meas.extra["fallbacks"] == 0.0
        per = meas.per_query()
        assert per["pages"] == pytest.approx(meas.pages / 10)

    def test_tree_measurement_rkv_and_hs(self, setup):
        __, queries, tree, __, __ = setup
        rkv = measure_tree_queries(tree, queries, method="rkv")
        hs = measure_tree_queries(tree, queries, method="hs")
        assert rkv.n_queries == hs.n_queries == 10
        assert rkv.pages > 0 and hs.pages > 0
        assert rkv.method == "rkv" and hs.method == "hs"

    def test_tree_measurement_rejects_unknown_method(self, setup):
        __, queries, tree, __, __ = setup
        with pytest.raises(ValueError):
            measure_tree_queries(tree, queries, method="dijkstra")

    def test_scan_measurement_reads_everything(self, setup):
        points, queries, __, __, scan = setup
        meas = measure_scan_queries(scan, queries)
        assert meas.distance_computations == 10 * len(points)

    def test_total_seconds_combines_cpu_and_io(self, setup):
        __, queries, tree, __, __ = setup
        meas = measure_tree_queries(tree, queries)
        model = CostModel(io_seconds_per_block=1.0)
        assert meas.total_seconds(model) == pytest.approx(
            meas.cpu_seconds + meas.pages
        )

    def test_warm_cache_reduces_physical_reads(self, setup):
        """With drop_cache=False repeated queries hit the buffer pool."""
        __, queries, tree, __, __ = setup
        tree.pages.drop_cache()
        tree.pages.reset_stats()
        measure_tree_queries(tree, np.tile(queries[:1], (5, 1)),
                             drop_cache=False)
        stats = tree.pages.stats
        assert stats.physical_reads < stats.logical_reads

    def test_query_measurement_defaults(self):
        meas = QueryMeasurement("m")
        assert meas.per_query()["cpu_ms"] == 0.0
