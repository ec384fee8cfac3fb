"""Tests for saving/loading NN-cell indexes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_nearest
from repro.core.candidates import SelectorKind
from repro.core.decomposition import DecompositionConfig
from repro.core.nncell_index import BuildConfig, NNCellIndex
from repro.core.persistence import (
    load_index,
    load_sharded_index,
    save_index,
    save_sharded_index,
)
from repro.data import uniform_points
from repro.shard import ShardConfig, ShardedNNCellIndex


@pytest.fixture
def archive_path(tmp_path):
    return tmp_path / "index.npz"


def assert_same_bytes(x, y):
    assert x.dtype == y.dtype
    assert x.shape == y.shape
    assert x.tobytes() == y.tobytes()


def assert_cells_identical(a, b):
    """Every cell's constraint system and rectangles, to the bit."""
    assert_same_bytes(a.active_ids, b.active_ids)
    for pid in a.active_ids.tolist():
        sys_a, sys_b = a.constraint_system(pid), b.constraint_system(pid)
        assert_same_bytes(sys_a.a, sys_b.a)
        assert_same_bytes(sys_a.b, sys_b.b)
        assert_same_bytes(sys_a.point_ids, sys_b.point_ids)
        rects_a, rects_b = a.cell_rectangles(pid), b.cell_rectangles(pid)
        assert len(rects_a) == len(rects_b)
        for ra, rb in zip(rects_a, rects_b):
            assert_same_bytes(ra.as_array(), rb.as_array())


def assert_answers_identical(a, b, queries):
    """Serial and batched answers: ids and float64 distance bits."""
    serial_a = [a.nearest(q)[:2] for q in queries]
    serial_b = [b.nearest(q)[:2] for q in queries]
    assert [pid for pid, __ in serial_a] == [pid for pid, __ in serial_b]
    assert_same_bytes(
        np.array([d for __, d in serial_a]), np.array([d for __, d in serial_b])
    )
    ids_a, dists_a, __ = a.query_batch(queries)
    ids_b, dists_b, __ = b.query_batch(queries)
    assert_same_bytes(ids_a, ids_b)
    assert_same_bytes(dists_a, dists_b)


def queries_for(rng, dim, n_queries=30):
    queries = rng.uniform(size=(n_queries, dim))
    queries[::10] += 1.05  # outside the data space: the fallback path
    return queries


def assert_equivalent(a, b, rng, dim):
    assert_cells_identical(a, b)
    assert_answers_identical(a, b, queries_for(rng, dim))


def rewrite(path, **changes):
    """Replace members of the archive at ``path``."""
    with np.load(path) as archive:
        data = dict(archive)
    data.update(changes)
    np.savez(path, **data)


class TestRoundtrip:
    def test_basic_roundtrip(self, archive_path, rng):
        points = uniform_points(50, 3, seed=111)
        index = NNCellIndex.build(points)
        save_index(index, archive_path)
        loaded = load_index(archive_path)
        assert len(loaded) == len(index)
        assert_equivalent(index, loaded, rng, 3)

    def test_roundtrip_with_decomposition(self, archive_path, rng):
        config = BuildConfig(
            selector=SelectorKind.NN_DIRECTION,
            decompose=True,
            decomposition=DecompositionConfig(k_max=4),
        )
        index = NNCellIndex.build(uniform_points(30, 3, seed=112), config)
        save_index(index, archive_path)
        loaded = load_index(archive_path)
        assert loaded.stats()["n_rectangles"] == index.stats()["n_rectangles"]
        assert_equivalent(index, loaded, rng, 3)

    def test_roundtrip_after_updates(self, archive_path, rng):
        index = NNCellIndex.build(uniform_points(30, 2, seed=113))
        for __ in range(5):
            index.insert(rng.uniform(size=2))
        index.delete(3)
        index.delete(17)
        save_index(index, archive_path)
        loaded = load_index(archive_path)
        assert len(loaded) == len(index)
        assert_equivalent(index, loaded, rng, 2)

    def test_sharded_roundtrip(self, tmp_path, rng):
        points = uniform_points(40, 3, seed=119)
        sharded = ShardedNNCellIndex.build(
            points, ShardConfig(n_shards=3, partitioner="hilbert")
        )
        sharded.delete(5)
        save_sharded_index(sharded, tmp_path / "fleet")
        loaded = load_sharded_index(tmp_path / "fleet")
        try:
            assert len(loaded._shards) == len(sharded._shards)
            for built, restored in zip(sharded._shards, loaded._shards):
                assert (built is None) == (restored is None)
                if built is not None:
                    assert_cells_identical(built, restored)
            assert_answers_identical(sharded, loaded, queries_for(rng, 3))
        finally:
            sharded.close()
            loaded.close()

    def test_loaded_index_stays_dynamic(self, archive_path, rng):
        index = NNCellIndex.build(uniform_points(25, 2, seed=114))
        save_index(index, archive_path)
        loaded = load_index(archive_path)
        loaded.insert(rng.uniform(size=2))
        loaded.delete(0)
        live = loaded.points[loaded.active_ids]
        for __ in range(20):
            q = rng.uniform(size=2)
            __, dist, __ = loaded.nearest(q)
            __, true_dist = brute_nearest(q, live)
            assert dist == pytest.approx(true_dist)

    def test_config_restored(self, archive_path):
        config = BuildConfig(selector=SelectorKind.POINT, cache_pages=16)
        index = NNCellIndex.build(uniform_points(20, 2, seed=115), config)
        save_index(index, archive_path)
        loaded = load_index(archive_path)
        assert loaded.config.selector is SelectorKind.POINT
        assert loaded.config.cache_pages == 16

    def test_version_guard(self, archive_path):
        index = NNCellIndex.build(uniform_points(10, 2, seed=116))
        for version in (1, 99):
            save_index(index, archive_path)
            rewrite(archive_path, format_version=np.int64(version))
            with pytest.raises(ValueError, match="repro build"):
                load_index(archive_path)

    def test_single_point_roundtrip(self, archive_path, rng):
        index = NNCellIndex.build(np.array([[0.4, 0.6]]))
        save_index(index, archive_path)
        loaded = load_index(archive_path)
        assert_equivalent(index, loaded, rng, 2)
        pid, __, __ = loaded.nearest(rng.uniform(size=2))
        assert pid == 0


class TestColumnarArchive:
    def test_member_count_does_not_grow_with_n(self, tmp_path):
        counts = []
        for n in (5, 40):
            path = tmp_path / f"index_{n}.npz"
            save_index(NNCellIndex.build(uniform_points(n, 2, seed=118)), path)
            with np.load(path) as archive:
                counts.append(len(archive.files))
        assert counts[0] == counts[1]

    def test_loaded_cells_are_read_only(self, archive_path):
        index = NNCellIndex.build(uniform_points(20, 2, seed=117))
        save_index(index, archive_path)
        loaded = load_index(archive_path)
        system = loaded.constraint_system(0)
        for column in (system.a, system.b, system.point_ids):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        assert_cells_identical(index, loaded)

    @pytest.mark.parametrize(
        "error, corrupt",
        [
            (
                "'sys_offsets' must start at 0",
                lambda d: {"sys_offsets": d["sys_offsets"] + 1},
            ),
            (
                "'rect_offsets' must start at 0 and never decrease",
                lambda d: {"rect_offsets": d["rect_offsets"][[0, 2, 1, 3, 4, 5]]},
            ),
            (
                "'sys_offsets' ends at .* 'sys_a'",
                lambda d: {"sys_a": d["sys_a"][:-1]},
            ),
            (
                "'sys_offsets' ends at .* 'sys_ids'",
                lambda d: {"sys_ids": d["sys_ids"][:-1]},
            ),
            (
                "'rect_offsets' ends at .* 'rect_highs'",
                lambda d: {"rect_highs": d["rect_highs"][:-1]},
            ),
            (
                "'rect_offsets' has shape",
                lambda d: {"rect_offsets": d["rect_offsets"][:-1]},
            ),
            (
                "'sys_offsets' has shape",
                lambda d: {"active": np.r_[d["active"][:-1], False]},
            ),
            (
                "'rect_offsets' gives a cell no rectangle",
                lambda d: {"rect_offsets": np.r_[0, 0, d["rect_offsets"][2:]]},
            ),
            (
                "'sys_ids' must lie in",
                lambda d: {"sys_ids": np.r_[5, d["sys_ids"][1:]]},
            ),
            (
                "'sys_ids' must lie in",
                lambda d: {"sys_ids": np.r_[-2, d["sys_ids"][1:]]},
            ),
        ],
    )
    def test_malformed_columns_rejected(self, archive_path, error, corrupt):
        index = NNCellIndex.build(uniform_points(5, 2, seed=120))
        save_index(index, archive_path)
        with np.load(archive_path) as archive:
            changes = corrupt(dict(archive))
        rewrite(archive_path, **changes)
        with pytest.raises(ValueError, match=error):
            load_index(archive_path)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    victims=st.lists(st.integers(0, 11), min_size=1, max_size=4, unique=True),
)
def test_delete_recomputes_same_cells_after_reload(tmp_path_factory, seed, victims):
    points = uniform_points(12, 2, seed=seed)
    built = NNCellIndex.build(points)
    path = tmp_path_factory.mktemp("delete") / "index.npz"
    save_index(built, path)
    loaded = load_index(path)
    for victim in victims:
        built.delete(victim)
        loaded.delete(victim)
    assert_cells_identical(built, loaded)

    survivors = built.active_ids
    fresh = NNCellIndex.build(points[survivors])
    rng = np.random.default_rng(seed)
    for q in rng.uniform(size=(10, 2)):
        expected_row, expected_dist = brute_nearest(q, points[survivors])
        fresh_id, fresh_dist, __ = fresh.nearest(q)
        assert fresh_id == expected_row
        assert fresh_dist == pytest.approx(expected_dist)
        for index in (built, loaded):
            pid, dist, __ = index.nearest(q)
            assert pid == survivors[expected_row]
            assert dist == pytest.approx(expected_dist)
