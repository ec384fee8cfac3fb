"""Concurrent queries on one index each report their own page counts.

Every query path counts the pages it reads itself — the cell-tree walk,
the branch-and-bound fallbacks and the k-NN sphere refinement — instead
of taking a delta of the tree's shared access counters, which another
thread's reads move in between.  Threads switching as often as the
interpreter allows must see exactly the serial page counts, and a loaded
index's lazily made cell state must be made once.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.nncell_index import NNCellIndex
from repro.core.persistence import load_index, save_index
from repro.data import uniform_points


@pytest.fixture(scope="module")
def index():
    return NNCellIndex.build(uniform_points(100, 6, seed=41))


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(42)
    queries = rng.uniform(size=(240, 6))
    queries[::6] += 1.2  # outside the data space: the fallback paths
    return queries


def pages_of(index, queries):
    nearest = [index.nearest(q)[2].pages for q in queries]
    batches = [
        index.query_batch(queries[i:i + 32])[2].pages
        for i in range(0, len(queries), 32)
    ]
    k_nearest = [index.k_nearest(q, 5)[2].pages for q in queries[::2]]
    return nearest, batches, k_nearest


def run_threads(target, n_threads):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=target, args=(slot,))
            for slot in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_threads_see_the_serial_page_counts(index, queries):
    serial = pages_of(index, queries)
    results = [None] * 4

    def run(slot):
        results[slot] = pages_of(index, queries)

    run_threads(run, len(results))
    for result in results:
        assert result == serial


def test_lazy_cell_state_is_made_once(tmp_path, index):
    save_index(index, tmp_path / "index.npz")
    loaded = load_index(tmp_path / "index.npz")
    seen = [None] * 4

    def run(slot):
        seen[slot] = (loaded.cell_tree, loaded.constraint_system(0))

    run_threads(run, len(seen))
    assert all(tree is seen[0][0] for tree, __ in seen)
    assert all(system is seen[0][1] for __, system in seen)
