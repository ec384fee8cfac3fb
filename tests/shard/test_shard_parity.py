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

A scatter probes its shards on the calling thread unless the batch is
above the break-even (``_INLINE_ROWS_PER_SHARD`` rows per live shard);
the drawn batches stay below it, so the pool path is checked apart:
forced by a zero break-even, and by batches above the real one.

The dynamic scripts also save and reload the fleet at a drawn step and
carry on with the reload, so deletes route through a loaded fleet's id
maps; a written fleet and its reload must then write the same files.
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.shard.sharded as sharded_module
from helpers import load_tool
from repro.core.nncell_index import NNCellIndex, QueryExplain
from repro.core.persistence import load_sharded_index, save_sharded_index
from repro.data import uniform_points
from repro.obs import analytics, tracing
from repro.shard import ShardConfig, ShardedNNCellIndex

_DIM = 3
_POINTS = uniform_points(40, _DIM, seed=101)
_FLAT = NNCellIndex.build(_POINTS)
#: The fleet under test: both partitioners, several shard counts,
#: including n_shards=1 (degenerate).
_SHARDED = [
    ShardedNNCellIndex.build(
        _POINTS, ShardConfig(n_shards=n, partitioner=kind)
    )
    for kind in ("hash", "hilbert")
    for n in (1, 3, 5)
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


def _pooled():
    """Every scatter with two or more live shards goes to the pool."""
    return mock.patch.object(sharded_module, "_INLINE_ROWS_PER_SHARD", 0)


def _span_shape(node):
    """A span tree without its times or trace ids.  Children are sorted:
    pool probes attach to their parent in the order they finish."""
    attrs = sorted(
        (key, repr(value))
        for key, value in node.attributes.items()
        if key != "trace_id"
    )
    children = sorted(_span_shape(child) for child in node.children)
    return node.name, tuple(attrs), tuple(children)


def _observed(call):
    """``call()``'s result, per-shard analytics tallies and span trees."""
    with analytics.recording() as recorder, tracing.collecting() as tracer:
        result = call()
    return result, recorder.report()["shards"], [
        _span_shape(root) for root in tracer.spans
    ]


def _pools(sharded):
    """Whether a scatter above the break-even uses the pool."""
    return sum(1 for size in sharded.shard_sizes() if size) > 1


def _fields(result):
    """A surface's answer as comparable values: ``explain``'s every
    field, or the ids, distances and info of the other surfaces."""
    if isinstance(result, QueryExplain):
        return result.as_dict()
    ids, dists, info = result
    return np.asarray(ids).tolist(), np.asarray(dists).tolist(), info


@settings(max_examples=10, deadline=None)
@given(queries=query_arrays(), batch_size=st.sampled_from([None, 7]))
def test_pool_and_calling_thread_agree_bit_for_bit(queries, batch_size):
    """Ids, float64 distances, infos (pages, candidates...), per-shard
    analytics tallies and span trees are the same on both paths."""
    q = queries[0]
    for sharded in _SHARDED:
        live = sum(1 for size in sharded.shard_sizes() if size)
        calls = {
            "query_batch": lambda: sharded.query_batch(
                queries, batch_size=batch_size
            ),
            "nearest": lambda: sharded.nearest(q),
            "k_nearest": lambda: sharded.k_nearest(q, 3),
            "explain": lambda: sharded.explain(q),
        }
        for name, call in calls.items():
            sharded.close()
            inline = _observed(call)
            assert sharded._pool is None, name
            with _pooled():
                pooled = _observed(call)
            assert (sharded._pool is not None) == _pools(sharded), name
            assert pooled[1] == inline[1], name  # analytics tallies
            assert pooled[2] == inline[2], name  # span trees
            ((root, __, children),) = inline[2]
            assert root == f"shard.{name}"
            assert sorted(c[0] for c in children) == (
                ["shard.merge"] + ["shard.probe"] * live
            ), name
            assert _fields(pooled[0]) == _fields(inline[0]), name
        ids, dists, __ = calls["query_batch"]()
        exp_ids, exp_dists, __ = _FLAT.query_batch(
            queries, batch_size=batch_size
        )
        assert np.array_equal(ids, exp_ids)
        assert np.array_equal(dists, exp_dists)


def test_batches_above_the_break_even_stay_bit_identical():
    # Above the cut of every fleet: none has more than 5 live shards.
    rows = 5 * sharded_module._INLINE_ROWS_PER_SHARD + 1
    queries = np.random.default_rng(7).uniform(-0.1, 1.1, size=(rows, _DIM))
    exp_ids, exp_dists, __ = _FLAT.query_batch(queries)
    for sharded in _SHARDED:
        sharded.close()
        got_ids, got_dists, __ = sharded.query_batch(queries)
        assert np.array_equal(got_ids, exp_ids)
        assert np.array_equal(got_dists, exp_dists)
        assert (sharded._pool is not None) == _pools(sharded)


@st.composite
def dynamic_scenarios(draw):
    """A fresh small database, an interleaved update/query script and
    the step after which the fleet is saved and reloaded."""
    seed = draw(st.integers(0, 2 ** 31))
    rng = np.random.default_rng(seed)
    n_initial = draw(st.integers(4, 12))
    n_shards = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["hash", "hilbert"]))
    n_ops = draw(st.integers(1, 10))
    ops = []
    for __ in range(n_ops):
        ops.append(draw(st.sampled_from(["insert", "delete", "query"])))
    reload_at = draw(st.integers(0, n_ops))
    return rng, n_initial, n_shards, kind, ops, reload_at


def _same_files(a: Path, b: Path) -> None:
    """Two fleet directories hold the same manifest bytes and archives."""
    compare = load_tool("compare_archives").compare_archives
    assert (a / "manifest.json").read_bytes() == (
        b / "manifest.json"
    ).read_bytes()
    names = sorted(path.name for path in a.glob("*.nnc"))
    assert names == sorted(path.name for path in b.glob("*.nnc"))
    for name in names:
        assert compare(a / name, b / name) == [], name


@settings(max_examples=15, deadline=None)
@given(scenario=dynamic_scenarios())
def test_dynamic_sequences_stay_bit_identical(scenario):
    rng, n_initial, n_shards, kind, ops, reload_at = scenario
    points = rng.uniform(size=(n_initial, 2))
    flat = NNCellIndex.build(points)
    sharded = ShardedNNCellIndex.build(
        points, ShardConfig(n_shards=n_shards, partitioner=kind)
    )
    live = list(range(n_initial))
    with tempfile.TemporaryDirectory() as workdir:
        workdir = Path(workdir)
        for step, op in enumerate([*ops, None]):
            if step == reload_at:
                # The rest of the script runs on the reload.
                save_sharded_index(sharded, workdir / "drawn")
                sharded = load_sharded_index(workdir / "drawn")
            if op is None:
                break
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
        # One more insert/delete pair on the fleet and on its reload:
        # both answer as the flat index does and write the same files.
        save_sharded_index(sharded, workdir / "written")
        reloaded = load_sharded_index(workdir / "written")
        p = rng.uniform(size=2)
        live.append(flat.insert(p))
        victim = int(rng.choice(live))
        flat.delete(victim)
        q = rng.uniform(-0.05, 1.05, size=2)
        for fleet, name in ((sharded, "written+1"), (reloaded, "reloaded+1")):
            assert fleet.insert(p) == live[-1]
            fleet.delete(victim)
            assert fleet.nearest(q)[:2] == flat.nearest(q)[:2]
            save_sharded_index(fleet, workdir / name)
        _same_files(workdir / "written+1", workdir / "reloaded+1")
