"""Exact distance ties in k-NN: unsharded and sharded answers agree.

On a regular grid, a query at the centre of a lattice cell is equally
far from the cell's eight corners, and further shells tie too.  Both
``k_nearest`` paths — the cell path (point query, then sphere
refinement) and the best-first fallback outside the data space — must
return the k smallest points by ``(distance, id)``, which is the order
the sharded merge uses.
"""

import itertools

import numpy as np
import pytest

from repro.core.nncell_index import NNCellIndex
from repro.data import grid_points
from repro.geometry.distance import distances_to_points
from repro.shard import ShardConfig, ShardedNNCellIndex

PER_AXIS = 6


@pytest.fixture(scope="module")
def indexes():
    points = grid_points(per_axis=PER_AXIS, dim=3)
    sharded = ShardedNNCellIndex.build(
        points, ShardConfig(n_shards=4, partitioner="hilbert")
    )
    yield points, NNCellIndex.build(points), sharded
    sharded.close()


def lattice_centres():
    """Centres of the lattice cells the grid points span."""
    steps = np.arange(1, PER_AXIS) / PER_AXIS
    return np.array(list(itertools.product(steps, repeat=3)))[::2]


def by_distance_then_id(points, q, k):
    dist = np.sqrt(distances_to_points(q, points))
    order = np.lexsort((np.arange(points.shape[0]), dist))[:k]
    return order.tolist(), dist[order].tolist()


@pytest.mark.parametrize(
    "shift, ks",
    [
        (0.0, (8, 16, 20, 32)),  # cell path: point query + refinement
        (-1.0, (4, 8, 16)),  # outside the data space: best-first fallback
    ],
)
def test_ties_break_by_id_on_both_paths(indexes, shift, ks):
    points, flat, sharded = indexes
    queries = lattice_centres()
    queries[:, 2] += shift
    paths = set()
    for q in queries:
        for k in ks:
            ids, dists, info = flat.k_nearest(q, k)
            paths.add(info.fallback)
            want_ids, want_dists = by_distance_then_id(points, q, k)
            assert ids == want_ids
            assert np.array_equal(dists, want_dists)
            s_ids, s_dists, __ = sharded.k_nearest(q, k)
            assert s_ids == ids
            assert np.array_equal(s_dists, dists)
    # In the box, queries with fewer candidates than k fall back too.
    assert (False in paths) == (shift == 0.0)
