"""Micro-benchmarks of the hot operations (pytest-benchmark proper).

These measure steady-state per-operation latency — the quantities the
figure benches aggregate — and guard against performance regressions in
the LP solver, the cell approximation, the solution-space point query
and the branch-and-bound baselines.
"""

import numpy as np
import pytest

from bench_common import scaled

from repro.core.approximation import approximate_cell
from repro.core.candidates import SelectorKind
from repro.core.constraints import cell_system
from repro.core.nncell_index import BuildConfig, NNCellIndex
from repro.data import uniform_points
from repro.index.bulk import bulk_load
from repro.index.nnsearch import rkv_nearest
from repro.index.rstar import RStarTree
from repro.lp.interface import maximize


@pytest.fixture(scope="module")
def workload():
    n = scaled(400)
    points = uniform_points(n, 6, seed=105)
    tree = bulk_load(RStarTree(6), points, points, np.arange(n))
    index = NNCellIndex.build(
        points, BuildConfig(selector=SelectorKind.NN_DIRECTION)
    )
    queries = uniform_points(64, 6, seed=106)
    return points, tree, index, queries


def bench_lp_simplex_small(benchmark):
    rng = np.random.default_rng(107)
    a = rng.normal(size=(24, 6))
    x0 = rng.uniform(0.3, 0.7, size=6)
    b = a @ x0 + rng.uniform(0.0, 0.3, size=24)
    c = np.eye(6)[0]
    lb, ub = np.zeros(6), np.ones(6)
    benchmark(lambda: maximize(c, a, b, lb, ub))


def bench_cell_approximation(benchmark, workload):
    points, __, __, __ = workload
    n = points.shape[0]
    system = cell_system(points, 0, np.arange(n))

    benchmark(lambda: approximate_cell(system, center=points[0]))


def bench_nncell_point_query(benchmark, workload):
    __, __, index, queries = workload
    state = {"i": 0}

    def one_query():
        q = queries[state["i"] % len(queries)]
        state["i"] += 1
        return index.nearest(q)

    benchmark(one_query)


def bench_rkv_query(benchmark, workload):
    __, tree, __, queries = workload
    state = {"i": 0}

    def one_query():
        q = queries[state["i"] % len(queries)]
        state["i"] += 1
        return rkv_nearest(tree, q)

    benchmark(one_query)


def bench_rstar_insert(benchmark):
    rng = np.random.default_rng(108)
    tree = RStarTree(6)
    state = {"i": 0}

    def one_insert():
        tree.insert_point(rng.uniform(size=6), state["i"])
        state["i"] += 1

    benchmark(one_insert)


def bench_dynamic_cell_insert(benchmark):
    # Own small index: inserts touch every cell the new point's bisector
    # cuts, so the cost scales with the cell overlap of the workload.
    points = uniform_points(scaled(120, minimum=30), 4, seed=110)
    index = NNCellIndex.build(
        points, BuildConfig(selector=SelectorKind.NN_DIRECTION)
    )
    rng = np.random.default_rng(109)
    benchmark.pedantic(
        lambda: index.insert(rng.uniform(size=4)), rounds=5, iterations=1
    )
