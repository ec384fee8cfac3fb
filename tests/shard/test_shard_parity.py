"""Property-based proof of the sharding layer's exactness contract.

For *any* query workload, partitioner, and shard count — and any
interleaved insert/delete sequence — every answer a
:class:`ShardedNNCellIndex` returns must be identical (same global ids,
bit-identical float64 distances) to an unsharded :class:`NNCellIndex`
over the same points.  Hypothesis drives the workload shapes; the
pre-built sharded fleet below keeps the (expensive) solution spaces the
constant.

Queries are drawn from continuous distributions, so exact distance ties
between *distinct* points have measure zero here; both paths order such
ties by ``(distance, id)``, and ``test_knn_ties.py`` checks that on a
grid, where ties are the rule.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nncell_index import NNCellIndex
from repro.data import uniform_points
from repro.shard import ShardConfig, ShardedNNCellIndex

_DIM = 3
_POINTS = uniform_points(40, _DIM, seed=101)
_FLAT = NNCellIndex.build(_POINTS)
#: The fleet under test: both partitioners, several shard counts,
#: including n_shards=1 (degenerate) and serial scatter (query_workers=1).
_SHARDED = [
    ShardedNNCellIndex.build(
        _POINTS,
        ShardConfig(n_shards=n, partitioner=kind, query_workers=workers),
    )
    for kind in ("hash", "hilbert")
    for n, workers in ((1, 0), (3, 0), (5, 1))
]


@st.composite
def query_arrays(draw):
    """A query batch straddling the data-space boundary (fallbacks too)."""
    n_queries = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2 ** 31))
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.1, 1.1, size=(n_queries, _DIM))


@settings(max_examples=20, deadline=None)
@given(queries=query_arrays())
def test_nearest_bit_identical_across_fleet(queries):
    for sharded in _SHARDED:
        for q in queries:
            expected = _FLAT.nearest(q)
            got = sharded.nearest(q)
            assert got[0] == expected[0]
            # Bit-identical, not approximately equal: per-shard scans run
            # the same float64 arithmetic on the same operands.
            assert got[1] == expected[1]


@settings(max_examples=20, deadline=None)
@given(queries=query_arrays(), k=st.integers(1, 8))
def test_k_nearest_bit_identical_across_fleet(queries, k):
    for sharded in _SHARDED:
        for q in queries:
            exp_ids, exp_dists, __ = _FLAT.k_nearest(q, k)
            got_ids, got_dists, __ = sharded.k_nearest(q, k)
            assert got_ids == exp_ids
            assert got_dists == exp_dists


@settings(max_examples=20, deadline=None)
@given(queries=query_arrays(), batch_size=st.sampled_from([None, 1, 7]))
def test_query_batch_bit_identical_across_fleet(queries, batch_size):
    exp_ids, exp_dists, __ = _FLAT.query_batch(queries, batch_size=batch_size)
    for sharded in _SHARDED:
        got_ids, got_dists, __ = sharded.query_batch(
            queries, batch_size=batch_size
        )
        assert np.array_equal(got_ids, exp_ids)
        assert np.array_equal(got_dists, exp_dists)


@st.composite
def dynamic_scenarios(draw):
    """A fresh small database plus an interleaved update/query script."""
    seed = draw(st.integers(0, 2 ** 31))
    rng = np.random.default_rng(seed)
    n_initial = draw(st.integers(4, 12))
    n_shards = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["hash", "hilbert"]))
    n_ops = draw(st.integers(1, 10))
    ops = []
    for __ in range(n_ops):
        ops.append(draw(st.sampled_from(["insert", "delete", "query"])))
    return rng, n_initial, n_shards, kind, ops


@settings(max_examples=15, deadline=None)
@given(scenario=dynamic_scenarios())
def test_dynamic_sequences_stay_bit_identical(scenario):
    rng, n_initial, n_shards, kind, ops = scenario
    points = rng.uniform(size=(n_initial, 2))
    flat = NNCellIndex.build(points)
    sharded = ShardedNNCellIndex.build(
        points, ShardConfig(n_shards=n_shards, partitioner=kind)
    )
    live = list(range(n_initial))
    for op in ops:
        if op == "insert" or len(live) <= 1:
            p = rng.uniform(size=2)
            fid = flat.insert(p)
            sid = sharded.insert(p)
            assert sid == fid  # same global id allocation
            live.append(fid)
        elif op == "delete":
            victim = int(rng.choice(live))
            flat.delete(victim)
            sharded.delete(victim)
            live.remove(victim)
        q = rng.uniform(-0.05, 1.05, size=2)
        assert sharded.nearest(q)[:2] == flat.nearest(q)[:2]
    assert np.array_equal(sharded.active_ids, flat.active_ids)
    queries = rng.uniform(size=(10, 2))
    exp = flat.query_batch(queries)
    got = sharded.query_batch(queries)
    assert np.array_equal(got[0], exp[0])
    assert np.array_equal(got[1], exp[1])
    sharded.close()
