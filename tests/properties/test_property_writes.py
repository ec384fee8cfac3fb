"""Property-based tests for the write path.

Mixed insert/delete sequences on indexes with small pages, so that the
data snapshot has many leaves and the Point and Sphere selectors' leaf
queries see where each write put its point.  After every write the
index answers every query surface as a linear scan does, and holds the
data snapshot its reload lays out, array for array.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import snapshots_equal
from repro.core.candidates import SelectorKind
from repro.core.decomposition import DecompositionConfig
from repro.core.nncell_index import BuildConfig, NNCellIndex
from repro.core.persistence import load_index, save_index
from repro.geometry.distance import distances_to_points
from repro.index.linear_scan import LinearScan


def check_answers(index, rng):
    """Every query surface against a linear scan over the live points."""
    live = index.active_ids
    pts = index.points[live]
    scan = LinearScan(pts)
    queries = np.vstack([
        rng.uniform(size=(6, index.dim)),
        rng.uniform(1.2, 2.0, size=(2, index.dim)),  # the fallbacks
    ])
    ids, dists, __ = index.query_batch(queries)
    for q, pid, dist in zip(queries, ids, dists):
        assert (pid, dist) == index.nearest(q)[:2]
        assert dist == scan.nearest(q).nearest_distance
        dist_sq = distances_to_points(q, pts)
        for k in (1, 3):
            order = np.lexsort((live, dist_sq))[:k]
            got, got_dists, __ = index.k_nearest(q, k)
            assert got == live[order].tolist()
            assert got_dists == np.sqrt(dist_sq[order]).tolist()
        for r in (0.1, 0.35):
            expected = sorted(live[scan.within_radius(q, r)].tolist())
            assert index.within_radius(q, r).tolist() == expected


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2 ** 31),
    n=st.integers(12, 40),
    dim=st.integers(2, 3),
    selector=st.sampled_from(list(SelectorKind)),
    decompose=st.booleans(),
    writes=st.lists(st.booleans(), min_size=1, max_size=6),
)
def test_writes_stay_exact_and_equal_their_reload(
    seed, n, dim, selector, decompose, writes
):
    rng = np.random.default_rng(seed)
    config = BuildConfig(
        selector=selector,
        page_size=256,
        decompose=decompose,
        decomposition=DecompositionConfig(k_max=6, strategy="grid"),
    )
    index = NNCellIndex.build(rng.uniform(size=(n, dim)), config)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.nnc"
        for insert in writes:
            if insert or len(index) <= 2:
                index.insert(rng.uniform(size=dim))
            else:
                index.delete(int(rng.choice(index.active_ids)))
            check_answers(index, rng)
            save_index(index, path)
            reloaded = load_index(path)
            assert snapshots_equal(index.data_snapshot, reloaded.data_snapshot)
            assert snapshots_equal(index.snapshot, reloaded.snapshot)
