"""Saving and loading NN-cell indexes.

Precomputing the solution space is the expensive step of the paper's
approach (thousands of LPs), so a production deployment computes it once
and reuses it.  This module serialises everything the precomputation
produced — the points, each cell's constraint system and its (decomposed)
rectangle approximations — into a single ``.npz`` archive.

The archive stores *results*, not tree pages: the trees are rebuilt from
the stored rectangles deterministically, keeping the format independent
of node-layout details.  Its cell members are the index's own cell store
(:attr:`NNCellIndex.cells`), which a build concatenates, a write splices
and a save writes as it is.  A load makes only what a query reads: it
bulk-loads the data tree (fallback queries search it) and lays the
rectangles out, as a bulk load would, straight into the packed cell-tree
snapshot the queries walk, the snapshot a build or a write lays out from
the same columns.

Format version 4 has eleven members, whatever the number of points:

* ``meta`` — one JSON object: ``format_version`` and every
  :class:`BuildConfig` field but ``data_space`` (stored as ``box``) and
  ``workers`` (how the build ran, not what it made).  Nested configs
  are JSON objects; ``selector`` is stored by its value;
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

Archives are outside input.  :func:`load_index` reads ``meta`` first
with the checker the sharded manifest's ``shard_config`` also goes
through (exactly the config's keys, each of its default's type, floats
finite, enum values known, then the config's own checks), then checks
that the columns fit together, that every float is finite and — over
whole columns — what the per-cell constraint-system and rectangle
constructors would check, and raises a ``ValueError`` naming the key or
field otherwise.  Versions 1 to 3 are refused (a version-3 archive does
not say which decomposition built it); rebuild them with ``repro build``.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from pathlib import Path
from typing import Any, Dict, Tuple, Union

import numpy as np

from ..geometry.mbr import MBR
from .nncell_index import CELL_COLUMNS, BuildConfig, NNCellIndex

__all__ = [
    "is_sharded_archive",
    "load_any_index",
    "load_index",
    "load_sharded_index",
    "save_index",
    "save_sharded_index",
]

_FORMAT_VERSION = 4

_SHARD_FORMAT_VERSION = 2
_SHARD_MANIFEST = "manifest.json"
_SHARD_GLOBALS = "global.npz"

#: The :class:`BuildConfig` fields ``meta`` leaves out.
_UNSTORED = ("data_space", "workers")

#: The per-cell members, which a loaded index keeps.
_CELL_ARRAYS = tuple(
    name for offsets, columns in CELL_COLUMNS.items()
    for name in (offsets, *columns)
)

#: The array members besides ``meta``.
_ARRAYS = ("points", "active", "box") + _CELL_ARRAYS

#: The float members; every value in them must be finite.
_FLOATS = ("points", "box", "sys_a", "sys_b", "rect_lows", "rect_highs")


def save_index(index: NNCellIndex, path: "Union[str, Path]") -> None:
    """Serialise a built index to ``path`` (a ``.npz`` archive)."""
    meta = {
        "format_version": _FORMAT_VERSION,
        **_config_doc(index.config, _UNSTORED),
    }
    arrays = {
        "meta": np.bytes_(json.dumps(meta, sort_keys=True).encode()),
        "points": index.points,
        "active": index._active,
        "box": np.stack([index.box.low, index.box.high]),
        **index.cells,
    }
    np.savez(Path(path), **arrays)


def load_index(path: "Union[str, Path]") -> NNCellIndex:
    """Rebuild an index saved with :func:`save_index`."""
    with np.load(Path(path)) as archive:
        config = _read_meta(archive)
        fields = {name: archive[name] for name in _ARRAYS}
    _check_columns(fields)
    _check_cells(fields)
    config = dataclasses.replace(config, data_space=MBR(*fields["box"]))
    cells = {name: fields[name] for name in _CELL_ARRAYS}
    return NNCellIndex._restore(
        fields["points"], fields["active"], config, cells
    )


def _version_error(version: Any) -> ValueError:
    return ValueError(
        f"unsupported index archive version {version} "
        f"(expected {_FORMAT_VERSION}); rebuild the index with `repro build`"
    )


def _read_meta(archive) -> BuildConfig:
    """The build config of the archive's ``meta`` object, its version
    and every key checked by :func:`_read_config`."""
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
    version = meta.pop("format_version", None)
    if type(version) is not int or version != _FORMAT_VERSION:
        raise _version_error(version)
    return _read_config(BuildConfig, meta, "index archive meta", _UNSTORED)


def _defaults(cls, skip: "Tuple[str, ...]" = ()) -> "Dict[str, Any]":
    """The dataclass ``cls``'s fields but ``skip`` -> their defaults."""
    return {
        f.name: (
            f.default_factory() if f.default is dataclasses.MISSING
            else f.default
        )
        for f in dataclasses.fields(cls)
        if f.name not in skip
    }


def _config_doc(config, skip: "Tuple[str, ...]" = ()) -> "Dict[str, Any]":
    """``config`` as the JSON object :func:`_read_config` reads back:
    nested configs as objects, enums by value, every other field as its
    default's type."""
    doc: "Dict[str, Any]" = {}
    for key, default in _defaults(type(config), skip).items():
        value = getattr(config, key)
        if dataclasses.is_dataclass(default):
            doc[key] = _config_doc(value)
        elif isinstance(default, enum.Enum):
            doc[key] = value.value
        else:
            doc[key] = type(default)(value)
    return doc


def _read_config(cls, doc: Any, where: str, skip: "Tuple[str, ...]" = ()):
    """The dataclass ``cls`` read from the JSON object ``doc``.

    ``doc`` must hold exactly ``cls``'s fields but ``skip``, each of its
    default's exact type (a bool is not an int, nor an int a float),
    floats finite, enum values known and nested configs checked the same
    way (as ``where.field``); then ``cls``'s own ``__post_init__`` runs.
    Any failure is a ``ValueError`` naming the key.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{where} is not a JSON object")
    defaults = _defaults(cls, skip)
    for key in doc:
        if key not in defaults:
            raise ValueError(f"{where} has unknown key {key!r}")
    values: "Dict[str, Any]" = {}
    for key, default in defaults.items():
        if key not in doc:
            raise ValueError(f"{where} has no key {key!r}")
        value = doc[key]
        if dataclasses.is_dataclass(default):
            values[key] = _read_config(type(default), value, f"{where}.{key}")
            continue
        is_enum = isinstance(default, enum.Enum)
        kind = type(default.value if is_enum else default)
        if type(value) is not kind:
            raise ValueError(
                f"{where} key {key!r} is {value!r}, not {kind.__name__}"
            )
        if kind is float and not math.isfinite(value):
            raise ValueError(f"{where} key {key!r} is {value!r}, not finite")
        if is_enum:
            known = [member.value for member in type(default)]
            if value not in known:
                raise ValueError(
                    f"{where} key {key!r} is {value!r}, not one of {known}"
                )
            value = type(default)(value)
        values[key] = value
    return cls(**values)


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
    for offsets_name, columns in CELL_COLUMNS.items():
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
        offsets.setflags(write=False)
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
# The manifest is outside input too: the load checks its version, its
# `shard_config` keys and types, that the partitioner matches that
# config, and that the id maps agree with the archives.  Version 1 (which
# also kept a shard-build thread count) is refused.
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
        "shard_config": _config_doc(index.shard_config),
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
    from ..shard import (
        ShardConfig,
        ShardedNNCellIndex,
        partitioner_from_manifest,
    )

    source = Path(path)
    if not source.exists():
        raise FileNotFoundError(f"no sharded index archive at {source}")
    manifest_path = source / _SHARD_MANIFEST
    if not manifest_path.exists():
        raise ValueError(f"{source} is not a sharded index archive")
    manifest = json.loads(manifest_path.read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path} is not a JSON object")
    version = manifest.get("format_version")
    if type(version) is not int or version != _SHARD_FORMAT_VERSION:
        raise ValueError(
            f"unsupported sharded archive version {version!r} "
            f"(expected {_SHARD_FORMAT_VERSION}); rebuild the index with "
            "`repro build --shards N`"
        )
    shard_config = _read_config(
        ShardConfig,
        manifest.get("shard_config"),
        f"{manifest_path}: shard_config",
    )
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
    _check_partitioner(manifest_path, partitioner, shard_config, points.shape[1])
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


def _check_partitioner(manifest_path: Path, partitioner, config, dim: int) -> None:
    """Raise ``ValueError`` naming both values unless the manifest's
    partitioner is the one its ``shard_config`` fits: same kind, same
    shard count and, for Hilbert, the key precision ``fit`` picks."""
    from ..shard.partition import key_bits

    pairs = [
        ("kind", partitioner.kind, "partitioner", config.partitioner),
        ("n_shards", partitioner.n_shards, "n_shards", config.n_shards),
    ]
    if partitioner.kind == "hilbert":
        pairs.append((
            "bits", partitioner.bits,
            f"hilbert_bits={config.hilbert_bits} at d={dim}",
            key_bits(config.hilbert_bits, dim),
        ))
    for key, value, source, expected in pairs:
        if value != expected:
            raise ValueError(
                f"{manifest_path}: partitioner {key} is {value!r}, but "
                f"shard_config {source} gives {expected!r}"
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
