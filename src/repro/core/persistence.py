"""Saving and loading NN-cell indexes.

Precomputing the solution space is the expensive step of the paper's
approach (thousands of LPs), so a production deployment computes it once
and reuses it.  This module serialises everything the precomputation
produced — the points, each cell's constraint system and its (decomposed)
rectangle approximations — into a single ``.npz`` archive.

The archive stores *results*, not tree pages: the trees are rebuilt from
the stored rectangles deterministically, keeping the format independent
of node-layout details.  A load makes only what a query reads: it
bulk-loads the data tree (fallback queries search it) and lays the
rectangles out, as a bulk load would, straight into the packed cell-tree
snapshot the queries walk.  It keeps the columns; the per-cell systems
and rectangles and the mutable cell tree are made from them on the first
write or the first call that needs them, and a save before any write
writes the same columns back.

Format version 3 has eleven members, whatever the number of points:

* ``meta`` — one JSON object: ``format_version`` and the build config
  (``selector``, ``sphere_radius_factor``, ``decompose``, ``index_kind``,
  ``page_size``, ``cache_pages``, ``query_atol``);
* ``points``, ``active`` — every point row (deleted points keep their
  slots) and the active mask;
* ``box`` — the data space as one ``(2, d)`` array, ``low`` then
  ``high``;
* ``sys_offsets``, ``sys_a``, ``sys_b``, ``sys_ids`` — the constraint
  systems (``A x <= b`` rows and the point that generated each row);
* ``rect_offsets``, ``rect_lows``, ``rect_highs`` — the rectangles.

Each per-cell field is one column concatenated over the active cells in
id order, with CSR offsets: cell ``i`` (the ``i``-th active id) owns
rows ``offsets[i]:offsets[i + 1]``.  Members are stored, not deflated:
the float columns deflate by only a few percent, and inflating them was
most of the cost of a load.

Archives are outside input.  :func:`load_index` reads ``meta`` first and
checks the type of every key, then checks that the columns fit together,
that every float is finite and — over whole columns — what the per-cell
constraint-system and rectangle constructors would check, and raises a
``ValueError`` naming the key or field otherwise.  Versions 1 and 2 are
refused; rebuild them with ``repro build``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, Union

import numpy as np

from ..geometry.mbr import MBR
from .candidates import SelectorKind, SelectorParams
from .nncell_index import BuildConfig, NNCellIndex

__all__ = [
    "is_sharded_archive",
    "load_any_index",
    "load_index",
    "load_sharded_index",
    "save_index",
    "save_sharded_index",
]

_FORMAT_VERSION = 3

_SHARD_FORMAT_VERSION = 1
_SHARD_MANIFEST = "manifest.json"
_SHARD_GLOBALS = "global.npz"

#: Keys of the ``meta`` object besides ``format_version`` -> the type of
#: its value (exactly: a bool is not an int, nor an int a float).
_META = {
    "selector": str,
    "sphere_radius_factor": float,
    "decompose": bool,
    "index_kind": str,
    "page_size": int,
    "cache_pages": int,
    "query_atol": float,
}

#: Offsets array -> the columns it partitions into per-cell runs.
_COLUMNS = {
    "sys_offsets": ("sys_a", "sys_b", "sys_ids"),
    "rect_offsets": ("rect_lows", "rect_highs"),
}

#: The per-cell members, which a loaded index keeps.
_CELL_ARRAYS = tuple(
    name for offsets, columns in _COLUMNS.items() for name in (offsets, *columns)
)

#: The array members besides ``meta``.
_ARRAYS = ("points", "active", "box") + _CELL_ARRAYS

#: The float members; every value in them must be finite.
_FLOATS = ("points", "box", "sys_a", "sys_b", "rect_lows", "rect_highs")


def _offsets(counts) -> np.ndarray:
    """CSR offsets of consecutive runs of the given lengths."""
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


def _cell_columns(index: NNCellIndex) -> "Dict[str, np.ndarray]":
    """The per-cell columns of ``index``: those it was loaded from if no
    write has happened since, else made from its cells."""
    if index._columns is not None:
        return dict(index._columns)
    active = [int(pid) for pid in index.active_ids]
    systems = [index._systems[pid] for pid in active]
    cell_rects = [index._cell_rects[pid] for pid in active]
    rects = [rect for cell in cell_rects for rect in cell]
    return {
        "sys_offsets": _offsets([s.n_constraints for s in systems]),
        "sys_a": np.concatenate([s.a for s in systems]),
        "sys_b": np.concatenate([s.b for s in systems]),
        "sys_ids": np.concatenate([s.point_ids for s in systems]),
        "rect_offsets": _offsets([len(cell) for cell in cell_rects]),
        "rect_lows": np.stack([r.low for r in rects]),
        "rect_highs": np.stack([r.high for r in rects]),
    }


def save_index(index: NNCellIndex, path: "Union[str, Path]") -> None:
    """Serialise a built index to ``path`` (a ``.npz`` archive)."""
    config = index.config
    meta = {
        "format_version": _FORMAT_VERSION,
        "selector": config.selector.value,
        "sphere_radius_factor": float(config.selector_params.sphere_radius_factor),
        "decompose": bool(config.decompose),
        "index_kind": config.index_kind,
        "page_size": int(config.page_size),
        "cache_pages": int(config.cache_pages),
        "query_atol": float(config.query_atol),
    }
    arrays = {
        "meta": np.bytes_(json.dumps(meta, sort_keys=True).encode()),
        "points": index.points,
        "active": index._active,
        "box": np.stack([index.box.low, index.box.high]),
        **_cell_columns(index),
    }
    np.savez(Path(path), **arrays)


def load_index(path: "Union[str, Path]") -> NNCellIndex:
    """Rebuild an index saved with :func:`save_index`."""
    with np.load(Path(path)) as archive:
        meta = _read_meta(archive)
        fields = {name: archive[name] for name in _ARRAYS}
    _check_columns(fields)
    _check_cells(fields)
    points = fields["points"]
    active = fields["active"]
    box = MBR(*fields["box"])
    config = BuildConfig(
        selector=SelectorKind(meta["selector"]),
        selector_params=SelectorParams(
            sphere_radius_factor=meta["sphere_radius_factor"]
        ),
        decompose=meta["decompose"],
        index_kind=meta["index_kind"],
        page_size=meta["page_size"],
        cache_pages=meta["cache_pages"],
        query_atol=meta["query_atol"],
        data_space=box,
    )
    columns = {name: fields[name] for name in _CELL_ARRAYS}
    return NNCellIndex._restore(points, active, config, columns)


def _version_error(version: Any) -> ValueError:
    return ValueError(
        f"unsupported index archive version {version} "
        f"(expected {_FORMAT_VERSION}); rebuild the index with `repro build`"
    )


def _read_meta(archive) -> "Dict[str, Any]":
    """The archive's ``meta`` object, with its version, the type of each
    key of :data:`_META`, the finiteness of each float and the selector
    name checked."""
    if "meta" not in archive.files:
        if "format_version" not in archive.files:
            raise ValueError("not an index archive: no member 'meta'")
        # Versions 1 and 2 kept the version in a member of its own.
        raise _version_error(int(archive["format_version"]))
    try:
        meta = json.loads(archive["meta"].item())
    except (TypeError, ValueError):
        meta = None
    if not isinstance(meta, dict):
        raise ValueError("index archive member 'meta' is not a JSON object")
    version = meta.get("format_version")
    if type(version) is not int or version != _FORMAT_VERSION:
        raise _version_error(version)
    for key, kind in _META.items():
        if key not in meta:
            raise ValueError(f"index archive meta has no key {key!r}")
        value = meta[key]
        if type(value) is not kind:
            raise ValueError(
                f"index archive meta key {key!r} is {value!r}, "
                f"not {kind.__name__}"
            )
        if kind is float and not math.isfinite(value):
            raise ValueError(
                f"index archive meta key {key!r} is {value!r}, not finite"
            )
    known = [kind.value for kind in SelectorKind]
    if meta["selector"] not in known:
        raise ValueError(
            f"index archive meta key 'selector' is {meta['selector']!r}, "
            f"not one of {known}"
        )
    return meta


def _check_columns(fields: "Dict[str, np.ndarray]") -> None:
    """Raise ``ValueError`` naming the field unless the members fit
    together and every float in them is finite, and make the columns
    read-only: cells share the column buffers, so an in-place write to
    one cell's slice must not reach another."""
    points, active = fields["points"], fields["active"]
    if points.ndim != 2 or active.shape != points.shape[:1] or active.dtype != bool:
        raise ValueError(
            f"index archive fields 'points' {points.shape} and 'active' "
            f"{active.shape} {active.dtype} must be an (n, d) array and a "
            "bool mask of n entries"
        )
    n_points, dim = points.shape
    if fields["box"].shape != (2, dim):
        raise ValueError(
            f"index archive field 'box' has shape {fields['box'].shape}; "
            f"expected (2, {dim})"
        )
    for name in _FLOATS:
        column = fields[name]
        if column.dtype != np.float64 or not np.isfinite(column).all():
            raise ValueError(
                f"index archive field {name!r} must hold finite float64 "
                "values"
            )
    n_active = int(np.count_nonzero(active))
    for offsets_name, columns in _COLUMNS.items():
        offsets = fields[offsets_name]
        if offsets.shape != (n_active + 1,):
            raise ValueError(
                f"index archive field {offsets_name!r} has shape "
                f"{offsets.shape}; expected one offset pair per active "
                f"point ({n_active + 1} entries)"
            )
        if offsets[0] != 0 or np.any(np.diff(offsets) < 0):
            raise ValueError(
                f"index archive field {offsets_name!r} must start at 0 "
                "and never decrease"
            )
        for name in columns:
            if fields[name].shape[:1] != (offsets[-1],):
                raise ValueError(
                    f"index archive field {offsets_name!r} ends at "
                    f"{offsets[-1]}, but {name!r} has shape "
                    f"{fields[name].shape}"
                )
            fields[name].setflags(write=False)
    if np.any(np.diff(fields["rect_offsets"]) == 0):
        raise ValueError(
            "index archive field 'rect_offsets' gives a cell no rectangle"
        )
    ids = fields["sys_ids"]
    if ids.size and (ids.min() < -1 or ids.max() >= n_points):
        raise ValueError(
            f"index archive field 'sys_ids' must lie in [-1, {n_points})"
        )


def _check_cells(fields: "Dict[str, np.ndarray]") -> None:
    """What the per-cell ``HalfspaceSystem`` and ``MBR`` constructors
    would check, over whole columns, so that making the cells later
    cannot fail; and their clamp of the rectangles' tiny negative
    extents (``rect_highs`` is replaced by the clamped copy)."""
    dim = fields["points"].shape[1]
    sys_a, sys_b, ids = fields["sys_a"], fields["sys_b"], fields["sys_ids"]
    if sys_a.ndim != 2 or (sys_a.shape[0] and sys_a.shape[1] != dim):
        raise ValueError(
            f"index archive field 'sys_a' has shape {sys_a.shape}; "
            f"expected (rows, {dim})"
        )
    for name, column in (("sys_b", sys_b), ("sys_ids", ids)):
        if column.ndim != 1:
            raise ValueError(
                f"index archive field {name!r} has shape {column.shape}; "
                "expected one value per constraint row"
            )
    if ids.dtype != np.int64:
        fields["sys_ids"] = _read_only(ids.astype(np.int64))
    lows, highs = fields["rect_lows"], fields["rect_highs"]
    for name, column in (("rect_lows", lows), ("rect_highs", highs)):
        if column.ndim != 2 or column.shape[1] != dim:
            raise ValueError(
                f"index archive field {name!r} has shape {column.shape}; "
                f"expected (rectangles, {dim})"
            )
    bad = np.flatnonzero(np.any(lows > highs + 1e-12, axis=1))
    if bad.size:
        raise ValueError(
            f"index archive fields 'rect_lows' and 'rect_highs': rectangle "
            f"{int(bad[0])} has low > high"
        )
    fields["rect_highs"] = _read_only(np.maximum(lows, highs))


def _read_only(column: np.ndarray) -> np.ndarray:
    column.setflags(write=False)
    return column


# ======================================================================
# Sharded archives: one directory, one sub-archive per live shard
#
# A sharded index persists as a *directory* so each shard stays an
# ordinary `save_index` .npz that loads independently — a deployment can
# ship shards to different hosts and only the manifest needs global
# knowledge.  `manifest.json` carries the shard/partitioner config and
# the per-shard local→global id maps; `global.npz` carries the full
# point array and active mask (rows of deleted points included, so
# global ids stay stable across save/load exactly as unsharded ids do).
# ======================================================================

def is_sharded_archive(path: "Union[str, Path]") -> bool:
    """Whether ``path`` is a sharded archive directory."""
    p = Path(path)
    return p.is_dir() and (p / _SHARD_MANIFEST).exists()


def save_sharded_index(index, path: "Union[str, Path]") -> None:
    """Serialise a :class:`~repro.shard.ShardedNNCellIndex` directory."""
    target = Path(path)
    if target.exists() and not target.is_dir():
        raise ValueError(
            f"{target} exists and is not a directory (sharded archives"
            " are directories)"
        )
    target.mkdir(parents=True, exist_ok=True)
    shard_entries = []
    for s, shard in enumerate(index._shards):
        if shard is None:
            shard_entries.append(
                {"archive": None, "global_ids": list(index._globals[s])}
            )
            continue
        name = f"shard_{s}.npz"
        save_index(shard, target / name)
        shard_entries.append(
            {"archive": name, "global_ids": list(index._globals[s])}
        )
    manifest = {
        "format_version": _SHARD_FORMAT_VERSION,
        "kind": "sharded-nncell",
        "dim": int(index.dim),
        "shard_config": {
            "n_shards": index.shard_config.n_shards,
            "partitioner": index.shard_config.partitioner,
            "hilbert_bits": index.shard_config.hilbert_bits,
            "build_workers": index.shard_config.build_workers,
            "query_workers": index.shard_config.query_workers,
        },
        "partitioner": index.partitioner.to_manifest(),
        "shards": shard_entries,
    }
    (target / _SHARD_MANIFEST).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    np.savez(
        target / _SHARD_GLOBALS,
        points=index.points,
        active=index._active,
        shard_of=np.asarray(index._shard_of, dtype=np.int64),
        local_of=np.asarray(index._local_of, dtype=np.int64),
    )


def load_sharded_index(path: "Union[str, Path]"):
    """Rebuild a sharded index saved with :func:`save_sharded_index`."""
    from ..shard import ShardConfig, ShardedNNCellIndex, partitioner_from_manifest

    source = Path(path)
    if not source.exists():
        raise FileNotFoundError(f"no sharded index archive at {source}")
    manifest_path = source / _SHARD_MANIFEST
    if not manifest_path.exists():
        raise ValueError(f"{source} is not a sharded index archive")
    manifest = json.loads(manifest_path.read_text())
    version = int(manifest.get("format_version", -1))
    if version != _SHARD_FORMAT_VERSION:
        raise ValueError(
            f"unsupported sharded archive version {version} "
            f"(expected {_SHARD_FORMAT_VERSION})"
        )
    shard_config = ShardConfig(**manifest["shard_config"])
    partitioner = partitioner_from_manifest(manifest["partitioner"])
    shards = []
    globals_ = []
    build_config = None
    for entry in manifest["shards"]:
        globals_.append([int(g) for g in entry["global_ids"]])
        if entry["archive"] is None:
            shards.append(None)
            continue
        shard = load_index(source / entry["archive"])
        if build_config is None:
            build_config = shard.config
        shards.append(shard)
    if build_config is None:  # pragma: no cover - archives are non-empty
        raise ValueError(f"{source} contains no live shards")
    if len(shards) != shard_config.n_shards:
        raise ValueError(
            f"{source}: manifest lists {len(shards)} shards, but its "
            f"shard_config has n_shards={shard_config.n_shards}"
        )
    with np.load(source / _SHARD_GLOBALS) as arrays:
        points = np.asarray(arrays["points"], dtype=np.float64)
        active = arrays["active"]
        shard_of = arrays["shard_of"]
        local_of = arrays["local_of"]
    _check_id_maps(source, shards, globals_, points, active, shard_of, local_of)
    return ShardedNNCellIndex._restore(
        points=points,
        active=active,
        shard_config=shard_config,
        build_config=build_config,
        partitioner=partitioner,
        shards=shards,
        globals_=globals_,
        shard_of=shard_of.tolist(),
        local_of=local_of.tolist(),
    )


def _check_id_maps(
    source: Path, shards, globals_, points, active, shard_of, local_of
) -> None:
    """Raise ``ValueError`` naming the shard unless the manifest's id
    maps, ``global.npz`` and the shard archives agree.

    Each live shard's rows are the global rows its map names, bit for
    bit, and ``shard_of``/``local_of`` route each of those ids back to
    its row, active exactly where the shard's row is.  The maps are not
    exact inverses: a torn-down shard's deleted ids keep their stale
    ``shard_of``/``local_of`` entries, so only the live shards' ids are
    checked, and no active id may lie outside them.
    """
    n = points.shape[0]
    for name, column, kind in (
        ("active", active, "bool"),
        ("shard_of", shard_of, "int"),
        ("local_of", local_of, "int"),
    ):
        if column.shape != (n,) or column.dtype.kind != kind[0]:
            raise ValueError(
                f"{source / _SHARD_GLOBALS}: {name!r} must hold one {kind} "
                f"per point ({n})"
            )
    held = 0
    for s, (shard, gids) in enumerate(zip(shards, globals_)):
        where = f"{source}: shard {s}"
        if shard is None:
            if gids:
                raise ValueError(
                    f"{where} has no archive but maps {len(gids)} global ids"
                )
            continue
        ids = np.asarray(gids, dtype=np.int64)
        rows = shard.points.shape[0]
        if ids.size != rows:
            raise ValueError(
                f"{where} maps {ids.size} global ids, but its archive "
                f"holds {rows} rows"
            )
        if ids.min() < 0 or ids.max() >= n:
            raise ValueError(f"{where} maps global ids outside [0, {n})")
        mapped = points[ids]
        if (
            mapped.shape != shard.points.shape
            or mapped.tobytes() != shard.points.tobytes()
        ):
            raise ValueError(
                f"{where}: its rows differ from the global points its "
                "map names"
            )
        if np.any(shard_of[ids] != s) or np.any(local_of[ids] != np.arange(rows)):
            raise ValueError(
                f"{where}: shard_of/local_of do not route its global ids "
                "to its rows"
            )
        if not np.array_equal(active[ids], shard._active):
            raise ValueError(
                f"{where}: its active rows differ from the global active mask"
            )
        held += len(shard)
    if held != np.count_nonzero(active):
        raise ValueError(
            f"{source / _SHARD_GLOBALS} marks {np.count_nonzero(active)} "
            f"points active, but the shards hold {held}"
        )


def load_any_index(path: "Union[str, Path]"):
    """Load either archive format: a directory loads as sharded, a file
    as a plain :class:`NNCellIndex` — the CLI front-ends' entry point."""
    if is_sharded_archive(path):
        return load_sharded_index(path)
    if Path(path).is_dir():
        raise ValueError(
            f"{path} is a directory without a {_SHARD_MANIFEST}"
            " (not a sharded index archive)"
        )
    return load_index(path)
