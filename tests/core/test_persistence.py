"""Tests for saving/loading NN-cell indexes."""

import dataclasses
import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_nearest, write_format_5, write_format_6
from repro.core.candidates import SelectorKind, SelectorParams
from repro.core.decomposition import DecompositionConfig
from repro.core.nncell_index import BuildConfig, NNCellIndex
from repro.core.persistence import (
    _MAGIC,
    _PREAMBLE,
    _read_archive,
    _write_archive,
    load_index,
    load_sharded_index,
    save_index,
    save_sharded_index,
)
from repro.data import uniform_points
from repro.geometry.mbr import MBR
from repro.index.linear_scan import LinearScan
from repro.shard import ShardConfig, ShardedNNCellIndex


@pytest.fixture
def archive_path(tmp_path):
    return tmp_path / "index.nnc"


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


def rewrite(path, columns=(), meta=None, drop=(), **changes):
    """Rewrite the archive at ``path`` through the writer, so that its
    checksum stays valid.  ``columns`` replaces or adds columns, ``meta``
    replaces the whole ``meta`` object, and each of ``changes`` (``drop``)
    sets (deletes) one of its keys; a dotted key names a key of a nested
    object."""
    doc, fields = _read_archive(path)
    doc = doc if meta is None else meta

    def parent(key):
        *outer, last = key.split(".")
        inner = doc
        for name in outer:
            inner = inner[name]
        return inner, last

    for key, value in changes.items():
        inner, last = parent(key)
        inner[last] = value
    for key in drop:
        inner, last = parent(key)
        del inner[last]
    _write_archive(path, doc, {**fields, **dict(columns)})


def reseal(path, edit=None, header=None, tail=b""):
    """Rewrite the archive at ``path`` as no writer would, under a valid
    checksum: its header object passed through ``edit`` (or replaced by
    the raw bytes ``header``) and ``tail`` appended to its columns."""
    data = path.read_bytes()
    __, size, __ = _PREAMBLE.unpack_from(data)
    start = _PREAMBLE.size
    if header is None:
        doc = json.loads(data[start:start + size])
        edit(doc)
        header = json.dumps(doc).encode()
    header += b" " * (-len(header) % 8)
    payload = header + data[start + size:] + tail
    path.write_bytes(
        _PREAMBLE.pack(_MAGIC, len(header), zlib.crc32(payload)) + payload
    )


def column_entry(doc, name):
    """The column table entry ``[name, dtype, shape]`` of ``name``."""
    return next(entry for entry in doc["columns"] if entry[0] == name)


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
        config = BuildConfig(selector=SelectorKind.POINT, page_size=1024)
        index = NNCellIndex.build(uniform_points(20, 2, seed=115), config)
        save_index(index, archive_path)
        loaded = load_index(archive_path)
        assert loaded.config.selector is SelectorKind.POINT
        assert loaded.config.page_size == 1024

    def test_version_guard(self, archive_path):
        # Version 3 kept only part of the build config (no decomposition
        # budget or strategy), so it cannot say which cells it holds.
        index = NNCellIndex.build(uniform_points(10, 2, seed=116))
        for version in (1, 2, 3, 4, 5, 99, "6", None):
            save_index(index, archive_path)
            reseal(archive_path, lambda doc: doc.update(format_version=version))
            with pytest.raises(ValueError, match="version .*repro build"):
                load_index(archive_path)

    def test_version_2_layout_refused(self, archive_path):
        # Version 2 was a deflated .npz: the version, the box and each
        # config key were members of their own, and there was no `meta`.
        index = NNCellIndex.build(uniform_points(10, 2, seed=116))
        save_index(index, archive_path)
        meta, data = _read_archive(archive_path)
        meta["format_version"] = 2
        low, high = data.pop("box")
        data = dict(data, box_low=low, box_high=high)
        for key, value in meta.items():
            data[key] = (
                np.bytes_(value.encode())
                if isinstance(value, str)
                else np.asarray(value)
            )
        with open(archive_path, "wb") as out:
            np.savez_compressed(out, **data)
        with pytest.raises(ValueError, match="not an index archive.*repro build"):
            load_index(archive_path)

    def test_format_4_npz_refused(self, archive_path):
        # Format 4 was a stored .npz: a JSON `meta` member and the ten
        # columns as members of their own.
        index = NNCellIndex.build(uniform_points(10, 2, seed=116))
        save_index(index, archive_path)
        meta, data = _read_archive(archive_path)
        meta["format_version"] = 4
        with open(archive_path, "wb") as out:
            np.savez(out, meta=np.bytes_(json.dumps(meta).encode()), **data)
        with pytest.raises(ValueError, match="not an index archive.*repro build"):
            load_index(archive_path)

    def test_format_5_refused(self, archive_path):
        # Format 5 stored each constraint row's normal as the column
        # `sys_a`; there is no reader for it.
        index = NNCellIndex.build(uniform_points(10, 2, seed=116))
        write_format_5(index, archive_path)
        with pytest.raises(
            ValueError,
            match=r"version 5 \(expected 7\); rebuild the index with `repro build`",
        ):
            load_index(archive_path)
        # The version refuses it: the same file as version 7 loads up to
        # its extra column.
        reseal(archive_path, lambda doc: doc.update(format_version=7))
        with pytest.raises(ValueError, match="has unknown column 'sys_a'"):
            load_index(archive_path)

    def test_format_6_refused(self, archive_path):
        # Format 6 stored the data tree's buffer-pool size, `cache_pages`,
        # in its meta; there is no reader for it.
        index = NNCellIndex.build(uniform_points(10, 2, seed=116))
        write_format_6(index, archive_path)
        with pytest.raises(
            ValueError,
            match=r"version 6 \(expected 7\); rebuild the index with `repro build`",
        ):
            load_index(archive_path)
        # The version refuses it: the same file as version 7 loads up to
        # its extra meta key.
        reseal(archive_path, lambda doc: doc.update(format_version=7))
        with pytest.raises(ValueError, match="unknown key 'cache_pages'"):
            load_index(archive_path)

    def test_foreign_archive_refused(self, archive_path):
        with open(archive_path, "wb") as out:
            np.savez(out, points=np.eye(2))
        with pytest.raises(ValueError, match="not an index archive"):
            load_index(archive_path)

    def test_path_without_suffix_is_written_as_given(self, tmp_path, rng):
        # The archive is written at exactly the given path: a writer
        # that appends a suffix leaves that path missing.
        index = NNCellIndex.build(uniform_points(20, 2, seed=116))
        save_index(index, tmp_path / "foo")
        assert [p.name for p in tmp_path.iterdir()] == ["foo"]
        assert_equivalent(index, load_index(tmp_path / "foo"), rng, 2)

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
            path = tmp_path / f"index_{n}.nnc"
            save_index(NNCellIndex.build(uniform_points(n, 2, seed=118)), path)
            counts.append(len(_read_archive(path)[1]))
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
                "sys_offsets", "sys_b", "sys_ids",
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
                "'sys_offsets' ends at .* 'sys_b'",
                lambda d: {"sys_b": d["sys_b"][:-1]},
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
                # A row without an opponent has no normal to derive.
                "'sys_ids' must lie in \\[0, 5\\)",
                lambda d: {"sys_ids": np.r_[-1, d["sys_ids"][1:]]},
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
                "archive field 'sys_b' must hold finite float64",
                lambda d: {"sys_b": poisoned(d["sys_b"], np.nan)},
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
        rewrite(archive_path, corrupt(_read_archive(archive_path)[1]))
        with pytest.raises(ValueError, match=error):
            load_index(archive_path)

    @pytest.mark.parametrize("meta", ["{not json", "[3]", "\xff", [3], 3])
    def test_meta_not_an_object_rejected(self, archive_path, meta):
        save_index(NNCellIndex.build(uniform_points(5, 2, seed=120)), archive_path)
        rewrite(archive_path, meta=meta)
        with pytest.raises(ValueError, match="'meta' is not a JSON object"):
            load_index(archive_path)

    @pytest.mark.parametrize(
        "error, changes",
        [
            ("no key 'selector'", {"drop": ("selector",)}),
            ("no key 'query_atol'", {"drop": ("query_atol",)}),
            ("'selector' is 'voronoi', not one of", {"selector": "voronoi"}),
            ("'page_size' is '4096', not int", {"page_size": "4096"}),
            ("'page_size' is True, not int", {"page_size": True}),
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
        rewrite(archive_path, **changes)
        with pytest.raises(ValueError, match=error):
            load_index(archive_path)

    def test_every_member_is_stored(self, tmp_path):
        # Every column is stored raw: a file is its preamble, its padded
        # header and each column's bytes padded to 8, nothing more.  A
        # compressed or otherwise wrapped column, here, in a shard or in
        # global.nnc, fails.
        points = uniform_points(30, 2, seed=121)
        save_index(NNCellIndex.build(points), tmp_path / "index.nnc")
        with ShardedNNCellIndex.build(points, ShardConfig(n_shards=2)) as fleet:
            save_sharded_index(fleet, tmp_path / "fleet")
        archives = [tmp_path / "index.nnc", *sorted((tmp_path / "fleet").glob("*.nnc"))]
        assert [p.name for p in archives] == [
            "index.nnc", "global.nnc", "shard_0.nnc", "shard_1.nnc"
        ]
        for path in archives:
            data = path.read_bytes()
            magic, size, __ = _PREAMBLE.unpack_from(data)
            assert magic == _MAGIC and size % 8 == 0, path.name
            columns = _read_archive(path)[1].values()
            raw = sum(column.nbytes + -column.nbytes % 8 for column in columns)
            assert len(data) == _PREAMBLE.size + size + raw, path.name
        members = "points active box sys_offsets sys_b sys_ids"
        members += " rect_offsets rect_lows rect_highs"
        assert list(_read_archive(archives[0])[1]) == members.split()

    def test_saves_are_byte_identical(self, tmp_path):
        built = NNCellIndex.build(uniform_points(30, 3, seed=122))
        built.insert([0.3, 0.6, 0.2])
        built.delete(4)
        paths = [tmp_path / name for name in ("a.nnc", "b.nnc", "c.nnc")]
        save_index(built, paths[0])
        save_index(built, paths[1])
        save_index(load_index(paths[0]), paths[2])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() == paths[2].read_bytes()
        meta, columns = _read_archive(paths[0])
        stored = dict(
            built.cells, points=built.points, active=built._active,
            box=np.stack([built.box.low, built.box.high]),
        )
        assert sorted(columns) == sorted(stored)
        for name, column in columns.items():
            assert not column.flags.writeable, name
            assert_same_bytes(column, stored[name])

    @pytest.mark.parametrize(
        "error, changes",
        [
            ("has unknown column 'bogus'", {"bogus": np.zeros(3)}),
            (
                "column 'active' has dtype '<i8', not '|b1'",
                {"active": np.ones(5, np.int64)},
            ),
            (
                "column 'sys_ids' has dtype '<f8', not '<i8'",
                {"sys_ids": np.zeros(4)},
            ),
            (
                "column 'rect_lows' has dtype '<i8', not '<f8'",
                {"rect_lows": np.zeros((5, 2), np.int64)},
            ),
        ],
    )
    def test_column_set_and_dtypes_required(self, archive_path, error, changes):
        save_index(NNCellIndex.build(uniform_points(5, 2, seed=120)), archive_path)
        rewrite(archive_path, changes)
        with pytest.raises(ValueError, match=error):
            load_index(archive_path)

    def test_tiny_negative_extent_clamped_on_load(self, archive_path):
        # As the MBR constructor clamps it, within its 1e-12 tolerance.
        save_index(NNCellIndex.build(uniform_points(5, 2, seed=120)), archive_path)
        lows, highs = (_read_archive(archive_path)[1][name] for name in (
            "rect_lows", "rect_highs"
        ))
        rewrite(archive_path, {"rect_highs": poisoned(highs, lows[0, 0] - 1e-13)})
        loaded = load_index(archive_path)
        assert loaded.cells["rect_highs"][0, 0] == lows[0, 0]
        assert not loaded.cells["rect_highs"].flags.writeable
        assert_same_bytes(loaded.cells["rect_highs"][1:], highs[1:])

    def test_missing_column_rejected(self, archive_path):
        save_index(NNCellIndex.build(uniform_points(5, 2, seed=120)), archive_path)
        meta, columns = _read_archive(archive_path)
        del columns["sys_b"]
        _write_archive(archive_path, meta, columns)
        with pytest.raises(ValueError, match="has no column 'sys_b'"):
            load_index(archive_path)

    @pytest.mark.parametrize(
        "error, edit, tail",
        [
            ("column 'points' has dtype '|O', not one of",
             lambda d: column_entry(d, "points").__setitem__(1, "|O"), b""),
            ("column 'sys_b' has dtype '<f4', not one of",
             lambda d: column_entry(d, "sys_b").__setitem__(1, "<f4"), b""),
            ("column 'box' has shape \\[-2, 2\\], not a list of non-negative",
             lambda d: column_entry(d, "box").__setitem__(2, [-2, 2]), b""),
            ("column 'box' has shape \\[2.0, 2\\], not a list of non-negative",
             lambda d: column_entry(d, "box").__setitem__(2, [2.0, 2]), b""),
            ("'points' .* must be an \\(n, d\\) array",
             lambda d: column_entry(d, "points").__setitem__(2, [10]), b""),
            ("'sys_b' has shape .* one value per constraint row",
             lambda d: column_entry(d, "sys_b").__setitem__(
                 2, [column_entry(d, "sys_b")[2][0], 1]), b""),
            ("column 'rect_highs' runs past the end of the file",
             lambda d: column_entry(d, "rect_highs").__setitem__(2, [6, 2]), b""),
            ("8 bytes follow column 'rect_highs'", lambda d: None, bytes(8)),
            ("column 'bogus' runs past the end of the file",
             lambda d: d["columns"].append(["bogus", "<f8", [1]]), b""),
            ("column 'points' appears twice",
             lambda d: d["columns"].append(["points", "<f8", [0]]), b""),
            ("column entry 'points' is not \\[name, dtype, shape\\]",
             lambda d: d["columns"].__setitem__(0, "points"), b""),
            ("header key 'columns' is not a list",
             lambda d: d.update(columns={"points": "<f8"}), b""),
            ("header has unknown key 'extra'", lambda d: d.update(extra=1), b""),
            ("header has no key 'columns'", lambda d: d.pop("columns"), b""),
            ("header has no key 'meta'", lambda d: d.pop("meta"), b""),
        ],
    )
    def test_malformed_header_rejected(self, archive_path, error, edit, tail):
        save_index(NNCellIndex.build(uniform_points(5, 2, seed=120)), archive_path)
        reseal(archive_path, edit, tail=tail)
        with pytest.raises(ValueError, match=error):
            load_index(archive_path)

    @pytest.mark.parametrize(
        "header", [b"{not json", b"[3]", b"\xff", b"", b"[" * 100_000]
    )
    def test_header_not_an_object_rejected(self, archive_path, header):
        save_index(NNCellIndex.build(uniform_points(5, 2, seed=120)), archive_path)
        reseal(archive_path, header=header)
        with pytest.raises(ValueError, match="header is not a JSON object"):
            load_index(archive_path)

    def test_header_length_past_the_end_rejected(self, archive_path):
        save_index(NNCellIndex.build(uniform_points(5, 2, seed=120)), archive_path)
        data = archive_path.read_bytes()
        magic, __, checksum = _PREAMBLE.unpack_from(data)
        preamble = _PREAMBLE.pack(magic, len(data), checksum)
        archive_path.write_bytes(preamble + data[_PREAMBLE.size:])
        with pytest.raises(ValueError, match="header length .* runs past the end"):
            load_index(archive_path)


def damaged_copies(data, seed, flips=200):
    """Every truncation of ``data``, then ``flips`` seeded copies with
    one byte changed."""
    rng = np.random.default_rng(seed)
    for size in range(len(data)):
        yield data[:size]
    for __ in range(flips):
        copy = bytearray(data)
        copy[rng.integers(len(data))] ^= int(rng.integers(1, 256))
        yield bytes(copy)


@pytest.mark.parametrize("member", ["index.nnc", "shard_0.nnc", "global.nnc"])
def test_damaged_archive_raises_value_error(tmp_path, member):
    # No damaged copy may load, nor raise anything but the documented
    # ValueError, which the CLI prints as one `error:` line.
    points = uniform_points(20, 2, seed=123)
    if member == "index.nnc":
        save_index(NNCellIndex.build(points), tmp_path / member)
        target, load = tmp_path / member, load_index
    else:
        with ShardedNNCellIndex.build(points, ShardConfig(n_shards=2)) as fleet:
            save_sharded_index(fleet, tmp_path / "fleet")
        target, load = tmp_path / "fleet" / member, load_sharded_index
    original = target.read_bytes()
    seed = sum(member.encode())
    for data in damaged_copies(original, seed):
        target.write_bytes(data)
        with pytest.raises(ValueError):
            load(target if load is load_index else target.parent)


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
    query_atol=st.floats(0.0, 1e-6),
    data_space=st.sampled_from([None, MBR([-1.0, -0.5], [2.0, 1.5])]),
)


@settings(max_examples=12, deadline=None)
@given(config=_CONFIGS)
def test_reload_keeps_the_whole_build_config(tmp_path_factory, config):
    path = tmp_path_factory.mktemp("config") / "index.nnc"
    save_index(NNCellIndex.build(uniform_points(6, 2, seed=3), config), path)
    loaded = load_index(path).config
    for name in (
        "selector", "selector_params", "decompose", "decomposition",
        "page_size", "query_atol",
    ):
        assert getattr(loaded, name) == getattr(config, name), name
    assert loaded.data_space == MBR(*_read_archive(path)[1]["box"])
    assert loaded.workers == 1  # how a build ran is not stored


@pytest.mark.parametrize(
    "config",
    [
        BuildConfig(),
        BuildConfig(
            selector=SelectorKind.CORRECT,
            decompose=True,
            decomposition=DecompositionConfig(k_max=4, strategy="greedy"),
        ),
    ],
    ids=["default", "decomposed"],
)
def test_loaded_index_writes_the_bytes_a_built_one_writes(tmp_path, config):
    # build -> save, save -> load -> save, and load -> write -> save
    # against build -> write -> save: the derived normals must give a
    # written cell the rows and rectangles it has on the built index.
    built = NNCellIndex.build(uniform_points(25, 3, seed=124), config)
    path = {
        name: tmp_path / f"{name}.nnc"
        for name in ("built", "reloaded", "built_written", "loaded_written")
    }
    save_index(built, path["built"])
    loaded = load_index(path["built"])
    save_index(loaded, path["reloaded"])
    assert path["reloaded"].read_bytes() == path["built"].read_bytes()
    rng = np.random.default_rng(124)
    writes = [
        ("insert", rng.uniform(size=3)), ("delete", 6),
        ("insert", rng.uniform(size=3)), ("delete", 25),
    ]
    for index, name in ((built, "built_written"), (loaded, "loaded_written")):
        for method, argument in writes:
            getattr(index, method)(argument)
        save_index(index, path[name])
    assert (
        path["loaded_written"].read_bytes() == path["built_written"].read_bytes()
    )


def test_lemma_1_on_a_loaded_then_written_index(archive_path):
    # Every query's true nearest neighbour, by a linear scan, is among
    # the owners of the cell rectangles that contain it.
    config = BuildConfig(
        decompose=True, decomposition=DecompositionConfig(k_max=4)
    )
    save_index(NNCellIndex.build(uniform_points(30, 3, seed=125), config), archive_path)
    index = load_index(archive_path)
    rng = np.random.default_rng(125)
    for __ in range(3):
        index.insert(rng.uniform(size=3))
        index.delete(int(rng.choice(index.active_ids)))
    live = index.active_ids
    scan = LinearScan(index.points[live])
    for q in rng.uniform(size=(200, 3)):
        truth = scan.nearest(q)
        explained = index.explain(q)
        assert explained.path == "cell"
        owners = [owner for owner, __ in explained.candidates]
        assert live[truth.ids[0]] in owners
        pid, dist, __ = index.nearest(q)
        assert pid == live[truth.ids[0]]
        assert dist == pytest.approx(truth.nearest_distance)


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
    path = tmp_path_factory.mktemp("delete") / "index.nnc"
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
