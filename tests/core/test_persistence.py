"""Tests for saving/loading NN-cell indexes."""

import dataclasses
import json
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_nearest
from repro.core.candidates import SelectorKind, SelectorParams
from repro.core.decomposition import DecompositionConfig
from repro.core.nncell_index import BuildConfig, NNCellIndex
from repro.core.persistence import (
    load_index,
    load_sharded_index,
    save_index,
    save_sharded_index,
)
from repro.data import uniform_points
from repro.geometry.mbr import MBR
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


def poisoned(column, value):
    """A copy of ``column`` with its first entry set to ``value``."""
    out = column.copy()
    out.flat[0] = value
    return out


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


def read_meta(path):
    with np.load(path) as archive:
        return json.loads(archive["meta"].item())


def rewrite_meta(path, drop=(), **changes):
    """Replace or ``drop`` keys of the archive's ``meta`` object; a
    dotted key names a key of a nested object."""
    meta = read_meta(path)

    def parent(key):
        *outer, last = key.split(".")
        doc = meta
        for name in outer:
            doc = doc[name]
        return doc, last

    for key, value in changes.items():
        doc, last = parent(key)
        doc[last] = value
    for key in drop:
        doc, last = parent(key)
        del doc[last]
    rewrite(path, meta=np.bytes_(json.dumps(meta).encode()))


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
        # Version 3 kept only part of the build config (no decomposition
        # budget or strategy), so it cannot say which cells it holds.
        index = NNCellIndex.build(uniform_points(10, 2, seed=116))
        for version in (1, 2, 3, 99, "4"):
            save_index(index, archive_path)
            rewrite_meta(archive_path, format_version=version)
            with pytest.raises(ValueError, match="repro build"):
                load_index(archive_path)

    def test_version_2_layout_refused(self, archive_path):
        # Version 2: the version, the box and each config key were
        # members of their own, deflated, and there was no `meta`.
        index = NNCellIndex.build(uniform_points(10, 2, seed=116))
        save_index(index, archive_path)
        with np.load(archive_path) as archive:
            data = dict(archive)
        meta = json.loads(data.pop("meta").item())
        meta["format_version"] = 2
        low, high = data.pop("box")
        data.update(box_low=low, box_high=high)
        for key, value in meta.items():
            data[key] = (
                np.bytes_(value.encode())
                if isinstance(value, str)
                else np.asarray(value)
            )
        assert len(data) == 19
        np.savez_compressed(archive_path, **data)
        with pytest.raises(ValueError, match="version 2 .*repro build"):
            load_index(archive_path)

    def test_foreign_archive_refused(self, archive_path):
        np.savez(archive_path, points=np.eye(2))
        with pytest.raises(ValueError, match="not an index archive"):
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

    def test_build_load_and_write_keep_read_only_columns(self, archive_path):
        built = NNCellIndex.build(uniform_points(20, 2, seed=117))
        save_index(built, archive_path)
        written = load_index(archive_path)
        written.insert([0.3, 0.6])
        written.delete(4)
        for index in (built, load_index(archive_path), written):
            assert list(index.cells) == [
                "sys_offsets", "sys_a", "sys_b", "sys_ids",
                "rect_offsets", "rect_lows", "rect_highs",
            ]
            for name, column in index.cells.items():
                assert not column.flags.writeable, name

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
            (
                "'points' .* 'active' .* bool mask of n entries",
                lambda d: {"active": d["active"][:-1]},
            ),
            (
                "'box' has shape",
                lambda d: {"box": d["box"][:1]},
            ),
            (
                "'points' must hold finite",
                lambda d: {"points": poisoned(d["points"], np.nan)},
            ),
            (
                "'box' must hold finite",
                lambda d: {"box": poisoned(d["box"], -np.inf)},
            ),
            (
                "'sys_a' must hold finite",
                lambda d: {"sys_a": poisoned(d["sys_a"], np.nan)},
            ),
            (
                "'sys_b' must hold finite",
                lambda d: {"sys_b": poisoned(d["sys_b"], np.inf)},
            ),
            (
                "'rect_lows' must hold finite",
                lambda d: {"rect_lows": poisoned(d["rect_lows"], np.nan)},
            ),
            (
                "'rect_highs' must hold finite",
                lambda d: {"rect_highs": poisoned(d["rect_highs"], np.inf)},
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

    @pytest.mark.parametrize("meta", [b"{not json", b"[3]", b"\xff"])
    def test_meta_not_an_object_rejected(self, archive_path, meta):
        save_index(NNCellIndex.build(uniform_points(5, 2, seed=120)), archive_path)
        rewrite(archive_path, meta=np.bytes_(meta))
        with pytest.raises(ValueError, match="'meta' is not a JSON object"):
            load_index(archive_path)

    @pytest.mark.parametrize(
        "error, changes",
        [
            ("no key 'selector'", {"drop": ("selector",)}),
            ("no key 'query_atol'", {"drop": ("query_atol",)}),
            ("'selector' is 'voronoi', not one of", {"selector": "voronoi"}),
            ("'page_size' is '4096', not int", {"page_size": "4096"}),
            ("'cache_pages' is True, not int", {"cache_pages": True}),
            ("'decompose' is 1, not bool", {"decompose": 1}),
            ("'query_atol' is nan, not finite", {"query_atol": float("nan")}),
            (
                "'sphere_radius_factor' is 2, not float",
                {"selector_params.sphere_radius_factor": 2},
            ),
            ("meta has unknown key 'bogus'", {"bogus": "xtree"}),
            ("meta has no key 'decomposition'", {"drop": ("decomposition",)}),
            (
                "meta.decomposition has no key 'k_max'",
                {"drop": ("decomposition.k_max",)},
            ),
            (
                "meta.decomposition has unknown key 'bogus'",
                {"decomposition.bogus": 1},
            ),
            (
                "meta.decomposition key 'k_max' is '8', not int",
                {"decomposition.k_max": "8"},
            ),
            (
                "meta.decomposition key 'min_extent' is inf, not finite",
                {"decomposition.min_extent": float("inf")},
            ),
            (
                "meta.selector_params key 'min_candidates' is 1.0, not int",
                {"selector_params.min_candidates": 1.0},
            ),
            ("meta.decomposition is not a JSON object", {"decomposition": 8}),
            ("strategy must be", {"decomposition.strategy": "spiral"}),
        ],
    )
    def test_malformed_meta_rejected(self, archive_path, error, changes):
        save_index(NNCellIndex.build(uniform_points(5, 2, seed=120)), archive_path)
        rewrite_meta(archive_path, **changes)
        with pytest.raises(ValueError, match=error):
            load_index(archive_path)

    def test_every_member_is_stored(self, tmp_path):
        # Stored members are read without inflating them: a return to
        # `savez_compressed` here, in a shard or in global.npz fails.
        points = uniform_points(30, 2, seed=121)
        save_index(NNCellIndex.build(points), tmp_path / "index.npz")
        with ShardedNNCellIndex.build(points, ShardConfig(n_shards=2)) as fleet:
            save_sharded_index(fleet, tmp_path / "fleet")
        archives = [tmp_path / "index.npz", *sorted((tmp_path / "fleet").glob("*.npz"))]
        assert [p.name for p in archives] == [
            "index.npz", "global.npz", "shard_0.npz", "shard_1.npz"
        ]
        for path in archives:
            with zipfile.ZipFile(path) as zipped:
                kinds = {info.compress_type for info in zipped.infolist()}
            assert kinds == {zipfile.ZIP_STORED}, path.name
        members = "meta points active box sys_offsets sys_a sys_b sys_ids"
        members += " rect_offsets rect_lows rect_highs"
        with np.load(archives[0]) as archive:
            assert sorted(archive.files) == sorted(members.split())


_CONFIGS = st.builds(
    BuildConfig,
    selector=st.sampled_from(SelectorKind),
    selector_params=st.builds(
        SelectorParams,
        sphere_radius_factor=st.floats(0.5, 4.0),
        min_candidates=st.integers(1, 4),
    ),
    decompose=st.booleans(),
    decomposition=st.builds(
        DecompositionConfig,
        k_max=st.integers(1, 8),
        max_dims=st.integers(1, 4),
        heuristic=st.sampled_from(["extent", "trial"]),
        strategy=st.sampled_from(["grid", "greedy"]),
        min_extent=st.floats(0.0, 1e-3),
    ),
    page_size=st.integers(256, 8192),
    cache_pages=st.integers(0, 32),
    query_atol=st.floats(0.0, 1e-6),
    data_space=st.sampled_from([None, MBR([-1.0, -0.5], [2.0, 1.5])]),
)


@settings(max_examples=12, deadline=None)
@given(config=_CONFIGS)
def test_reload_keeps_the_whole_build_config(tmp_path_factory, config):
    path = tmp_path_factory.mktemp("config") / "index.npz"
    save_index(NNCellIndex.build(uniform_points(6, 2, seed=3), config), path)
    loaded = load_index(path).config
    for name in (
        "selector", "selector_params", "decompose", "decomposition",
        "page_size", "cache_pages", "query_atol",
    ):
        assert getattr(loaded, name) == getattr(config, name), name
    with np.load(path) as archive:
        assert loaded.data_space == MBR(*archive["box"])
    assert loaded.workers == 1  # how a build ran is not stored


def test_reload_writes_the_cells_the_build_writes(archive_path):
    # A reload that fell back to the default decomposition budget gave a
    # written cell 100 rectangles where the built index gave it 4.
    config = BuildConfig(
        selector_params=SelectorParams(min_candidates=5),
        decompose=True,
        decomposition=DecompositionConfig(k_max=4, strategy="greedy"),
    )
    built = NNCellIndex.build(uniform_points(40, 3, seed=3), config)
    save_index(built, archive_path)
    loaded = load_index(archive_path)
    expected = dataclasses.replace(built.config, data_space=built.box)
    assert loaded.config == expected
    rng = np.random.default_rng(3)
    for index in (built, loaded):
        for point in rng.uniform(size=(2, 3)):
            index.insert(point)
        index.delete(7)
        index.delete(40)
        rng = np.random.default_rng(3)
    assert_cells_identical(built, loaded)
    for name, column in built.cells.items():
        assert_same_bytes(column, loaded.cells[name])


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
