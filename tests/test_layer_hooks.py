"""The layer benchmark's hooks still find every name they wrap.

``benchmarks/layers/layers.py::install`` looks up each layer boundary it
times by name (``RStarTree.point_query``,
``engine.batch.batched_point_query``, ``nncell_index.bulk_load``,
``PageManager.read`` and the rest).  Renaming or moving one breaks every
traced benchmark run, and the benchmark's own tests are outside
``testpaths``; this guard is not.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

LAYERS = Path(__file__).resolve().parents[1] / "benchmarks" / "layers"


@pytest.fixture()
def bench_modules():
    sys.path.insert(0, str(LAYERS))
    try:
        import layers
        import spans

        yield layers, spans
    finally:
        sys.path.remove(str(LAYERS))


def test_install_wraps_and_uninstall_restores(bench_modules):
    layers, spans = bench_modules
    from repro.core.nncell_index import NNCellIndex
    from repro.data import uniform_points
    from repro.engine import batch
    from repro.index.rstar import RStarTree
    from repro.storage.page import PageManager

    originals = (
        batch.batched_point_query, RStarTree.point_query, PageManager.read,
        NNCellIndex.nearest,
    )
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        assert batch.batched_point_query is not originals[0]
        assert RStarTree.point_query is not originals[1]
        index = NNCellIndex.build(uniform_points(20, 2, seed=5))
        index.nearest([0.5, 0.5])
        index.query_batch(np.full((3, 2), 0.25))
    finally:
        tracer.uninstall()
    assert (
        batch.batched_point_query, RStarTree.point_query, PageManager.read,
        NNCellIndex.nearest,
    ) == originals
    names = {span.name for span in tracer.spans}
    assert {"core.nearest", "core.query_batch", "batch.walk"} <= names
