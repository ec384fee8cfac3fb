"""Saving and loading NN-cell indexes.

Precomputing the solution space is the expensive step of the paper's
approach (thousands of LPs), so a production deployment computes it once
and reuses it.  This module serialises everything the precomputation
produced — the points, each cell's constraint system and its (decomposed)
rectangle approximations — into a single archive file.

The archive stores *results*, not tree pages: the trees are rebuilt from
the stored points and rectangles deterministically, keeping the format
independent of node-layout details.  Its cell columns are the index's own
cell store (:attr:`NNCellIndex.cells`), which a build concatenates, a
write splices and a save writes as it is.  A load makes only what a
query reads: it lays the live points and the rectangles out, as a bulk
load would, straight into the two packed snapshots the queries search,
the snapshots a build or a write lays out from the same points and
columns.

Format version 7 is one file in three parts:

* a 24-byte preamble: the magic ``b"\\x93NNCELL\\0"``, the length of the
  header and a ``zlib.crc32`` of every byte after the preamble, the
  last two as little-endian u64;
* the header: one UTF-8 JSON object with sorted keys, padded with
  spaces to a multiple of 8 bytes.  ``format_version`` is 7; ``meta``
  holds every :class:`BuildConfig` field but ``data_space`` (stored as
  the ``box`` column) and ``workers`` (how the build ran, not what it
  made), nested configs as JSON objects and ``selector`` by its value;
  ``columns`` lists one ``[name, dtype, shape]`` entry per column;
* the columns' little-endian C-order bytes in table order, each
  zero-padded to a multiple of 8 bytes so that every column is aligned.

An index archive has nine columns, whatever the number of points:

* ``points``, ``active`` — every point row (deleted points keep their
  slots) and the active mask;
* ``box`` — the data space as one ``(2, d)`` array, ``low`` then
  ``high``;
* ``sys_offsets``, ``sys_b``, ``sys_ids`` — the constraint systems: each
  ``a . x <= b`` row as its ``b`` and its opponent, the point whose
  bisector with the cell's own point it is;
* ``rect_offsets``, ``rect_lows``, ``rect_highs`` — the rectangles.

A row's normal is not stored.  It is ``a = 2 (p_j - p_i)`` for the
cell's point ``p_i`` and the opponent ``p_j`` (Definition 2), so the
opponent's id fixes it, and :meth:`NNCellIndex.constraint_system`
derives it bit for bit as a build or a write computes it; storing it
would take ``8d`` of a row's ``8d + 16`` bytes.  ``b`` is stored: a
build computes it as ``|p_j|^2 - |p_i|^2`` over a vectorised dot product
and an insert as a difference of two scalar ones, which can differ in
the last bit.

Each per-cell field is one column concatenated over the active cells in
id order, with CSR offsets: cell ``i`` (the ``i``-th active id) owns
rows ``offsets[i]:offsets[i + 1]``.  A save streams the header and each
column's own buffer, so two saves of one index are the same bytes; a
load reads the file with one read into one read-only buffer, verifies
the checksum, parses the header and takes every column as a view of
that buffer.

Archives are outside input.  The container holds only ``<f8``, ``<i8``
and ``|b1`` columns (nothing is unpickled), every shape is a list of
non-negative ints and the columns end exactly at the end of the file.
:func:`load_index` requires exactly its nine columns, each of its dtype;
reads ``meta`` with a strict checker (exactly the config's keys, each of
its default's type, floats finite, enum values known, then the config's
own checks); then checks that the columns fit together, that every
float is finite and — over whole columns — what the per-cell
constraint-system and rectangle constructors would check.  Any failure,
a damaged or truncated file included, is a ``ValueError`` naming the key
or column.  A file without the magic is refused, every ``.npz`` archive
of versions 1 to 4 included, and so is any other header version, format
5 (which stored the normals) and format 6 (whose ``meta`` held the data
tree's buffer pool size, ``cache_pages``) included: rebuild the index
with ``repro build``.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

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

_FORMAT_VERSION = 7

#: Magic, header length and the crc32 of every byte after the preamble.
_PREAMBLE = struct.Struct("<8sQQ")
_MAGIC = b"\x93NNCELL\0"

#: The header and every column start at a multiple of this many bytes.
_ALIGN = 8

#: The column dtypes an archive may hold.
_DTYPES = ("<f8", "<i8", "|b1")

_SHARD_FORMAT_VERSION = 4
_SHARD_MANIFEST = "manifest.json"
_SHARD_GLOBALS = "global.nnc"

#: The :class:`BuildConfig` fields ``meta`` leaves out.
_UNSTORED = ("data_space", "workers")

#: An index archive's columns, in file order, and their dtypes.
_COLUMNS = {
    "points": "<f8",
    "active": "|b1",
    "box": "<f8",
    "sys_offsets": "<i8",
    "sys_b": "<f8",
    "sys_ids": "<i8",
    "rect_offsets": "<i8",
    "rect_lows": "<f8",
    "rect_highs": "<f8",
}

#: The columns of a sharded archive's global member and their dtypes.
_GLOBAL_COLUMNS = {"points": "<f8", "active": "|b1"}

#: The per-cell columns, which a loaded index keeps.
_CELL_ARRAYS = tuple(
    name for offsets, columns in CELL_COLUMNS.items()
    for name in (offsets, *columns)
)

#: The float columns; every value in them must be finite.
_FLOATS = tuple(name for name, dtype in _COLUMNS.items() if dtype == "<f8")


def save_index(index: NNCellIndex, path: "Union[str, Path]") -> None:
    """Serialise a built index to the file ``path``, exactly that path."""
    columns = {
        "points": index.points,
        "active": index._active,
        "box": np.stack([index.box.low, index.box.high]),
        **index.cells,
    }
    _write_archive(
        path,
        _config_doc(index.config, _UNSTORED),
        {name: columns[name] for name in _COLUMNS},
    )


def load_index(path: "Union[str, Path]") -> NNCellIndex:
    """Rebuild an index saved with :func:`save_index`."""
    meta, fields = _read_archive(path)
    _require_columns(fields, _COLUMNS, f"index archive {path}")
    config = _read_config(BuildConfig, meta, "index archive meta", _UNSTORED)
    _check_columns(fields)
    _check_cells(fields)
    config = dataclasses.replace(config, data_space=MBR(*fields["box"]))
    cells = {name: fields[name] for name in _CELL_ARRAYS}
    return NNCellIndex._restore(
        fields["points"], fields["active"], config, cells
    )


def _write_archive(
    path: "Union[str, Path]",
    meta: "Dict[str, Any]",
    columns: "Dict[str, np.ndarray]",
) -> None:
    """Write the JSON object ``meta`` and ``columns`` to the file
    ``path`` as a format-7 archive.

    Each (contiguous) column's own buffer is written and fed to the
    checksum in turn, never copied or joined; the checksum goes into the
    preamble last.
    """
    for name, column in columns.items():
        if column.dtype.str not in _DTYPES:
            raise ValueError(
                f"column {name!r} has dtype {column.dtype.str!r}, not one "
                f"of {list(_DTYPES)}"
            )
    header = json.dumps(
        {
            "columns": [
                [name, column.dtype.str, list(column.shape)]
                for name, column in columns.items()
            ],
            "format_version": _FORMAT_VERSION,
            "meta": meta,
        },
        sort_keys=True,
    ).encode()
    header += b" " * _padding(len(header))
    chunks = [header]
    for column in columns.values():
        chunks += [
            column.reshape(-1).view(np.uint8), bytes(_padding(column.nbytes))
        ]
    checksum = 0
    with open(path, "wb") as out:
        out.seek(_PREAMBLE.size)
        for chunk in chunks:
            out.write(chunk)
            checksum = zlib.crc32(chunk, checksum)
        out.seek(0)
        out.write(_PREAMBLE.pack(_MAGIC, len(header), checksum))


def _padding(size: int) -> int:
    """The zero bytes that take ``size`` to a multiple of ``_ALIGN``."""
    return -size % _ALIGN


def _read_archive(
    path: "Union[str, Path]",
) -> "Tuple[Dict[str, Any], Dict[str, np.ndarray]]":
    """The ``meta`` object and the columns of the archive at ``path``.

    The file is read with one read into one read-only buffer, and every
    column is a view of it.  Raises ``ValueError`` naming the problem
    unless the file has the magic and its checksum, a format-7 header
    whose column table is well formed, and columns that end exactly at
    the end of the file.
    """
    where = f"index archive {path}"
    data = np.fromfile(Path(path), dtype=np.uint8)
    data.setflags(write=False)
    if data[:len(_MAGIC)].tobytes() != _MAGIC:
        raise ValueError(
            f"{path} is not an index archive (archives of format 4 and "
            "older are .npz files); rebuild the index with `repro build`"
        )
    if data.size < _PREAMBLE.size:
        raise ValueError(
            f"{where} is truncated: {data.size} bytes, shorter than its "
            f"{_PREAMBLE.size}-byte preamble"
        )
    __, size, checksum = _PREAMBLE.unpack(data[:_PREAMBLE.size].tobytes())
    body = data[_PREAMBLE.size:]
    if zlib.crc32(body) != checksum:
        raise ValueError(
            f"{where} fails its checksum: the file is truncated or damaged"
        )
    if size > body.size:
        raise ValueError(
            f"{where}: header length {size} runs past the end of the file"
        )
    try:
        header = json.loads(body[:size].tobytes().decode())
    except (ValueError, RecursionError):
        header = None
    if not isinstance(header, dict):
        raise ValueError(f"{where}: header is not a JSON object")
    version = header.get("format_version")
    if type(version) is not int or version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported index archive version {version} (expected "
            f"{_FORMAT_VERSION}); rebuild the index with `repro build`"
        )
    odd = sorted(header.keys() ^ {"columns", "format_version", "meta"})
    if odd:
        state = "unknown" if odd[0] in header else "no"
        raise ValueError(f"{where}: header has {state} key {odd[0]!r}")
    meta, table = header["meta"], header["columns"]
    if not isinstance(meta, dict):
        raise ValueError(f"{where}: header key 'meta' is not a JSON object")
    if not isinstance(table, list):
        raise ValueError(f"{where}: header key 'columns' is not a list")
    columns: "Dict[str, np.ndarray]" = {}
    offset, last = size, "its header"
    for entry in table:
        if not (
            isinstance(entry, list) and len(entry) == 3
            and isinstance(entry[0], str)
        ):
            raise ValueError(
                f"{where}: column entry {entry!r} is not [name, dtype, shape]"
            )
        name, dtype, shape = entry
        if name in columns:
            raise ValueError(f"{where}: column {name!r} appears twice")
        if dtype not in _DTYPES:
            raise ValueError(
                f"{where}: column {name!r} has dtype {dtype!r}, not one of "
                f"{list(_DTYPES)}"
            )
        if not (
            isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)
        ):
            raise ValueError(
                f"{where}: column {name!r} has shape {shape!r}, not a list "
                "of non-negative ints"
            )
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        if offset + nbytes + _padding(nbytes) > body.size:
            raise ValueError(
                f"{where}: column {name!r} runs past the end of the file"
            )
        columns[name] = body[offset:offset + nbytes].view(dtype).reshape(shape)
        offset += nbytes + _padding(nbytes)
        last = f"column {name!r}"
    if offset != body.size:
        raise ValueError(
            f"{where}: {body.size - offset} bytes follow {last}, where the "
            "file should end"
        )
    return meta, columns


def _require_columns(
    columns: "Dict[str, np.ndarray]", expected: "Dict[str, str]", where: str
) -> None:
    """Raise ``ValueError`` naming the column unless ``columns`` are
    exactly those of ``expected``, each of its dtype."""
    for name in columns:
        if name not in expected:
            raise ValueError(f"{where} has unknown column {name!r}")
    for name, dtype in expected.items():
        if name not in columns:
            raise ValueError(f"{where} has no column {name!r}")
        if columns[name].dtype.str != dtype:
            raise ValueError(
                f"{where} column {name!r} has dtype "
                f"{columns[name].dtype.str!r}, not {dtype!r}"
            )


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
    """Raise ``ValueError`` naming the field unless the columns fit
    together and every float in them is finite."""
    points, active = fields["points"], fields["active"]
    if points.ndim != 2 or active.shape != points.shape[:1]:
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
        if not np.isfinite(fields[name]).all():
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
        for name in columns:
            if fields[name].shape[:1] != (offsets[-1],):
                raise ValueError(
                    f"index archive field {offsets_name!r} ends at "
                    f"{offsets[-1]}, but {name!r} has shape "
                    f"{fields[name].shape}"
                )
    if np.any(np.diff(fields["rect_offsets"]) == 0):
        raise ValueError(
            "index archive field 'rect_offsets' gives a cell no rectangle"
        )
    # Every row's normal is derived from its opponent's point.
    ids = fields["sys_ids"]
    if ids.size and (ids.min() < 0 or ids.max() >= n_points):
        raise ValueError(
            f"index archive field 'sys_ids' must lie in [0, {n_points})"
        )


def _check_cells(fields: "Dict[str, np.ndarray]") -> None:
    """What the per-cell ``HalfspaceSystem`` and ``MBR`` constructors
    would check, over whole columns, so that making the cells later
    cannot fail; and their clamp of the rectangles' tiny negative
    extents (``rect_highs`` is replaced by a clamped copy if it has
    any)."""
    dim = fields["points"].shape[1]
    for name in ("sys_b", "sys_ids"):
        column = fields[name]
        if column.ndim != 1:
            raise ValueError(
                f"index archive field {name!r} has shape {column.shape}; "
                "expected one value per constraint row"
            )
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
    if np.any(lows > highs):
        highs = np.maximum(lows, highs)
        highs.setflags(write=False)
        fields["rect_highs"] = highs


# ======================================================================
# Sharded archives: one directory, one sub-archive per live shard
#
# A sharded index persists as a *directory* so each shard stays an
# ordinary `save_index` archive, `shard_<s>.nnc`, that loads
# independently — a deployment can ship shards to different hosts and
# only the manifest needs global knowledge.  `manifest.json` carries the
# partitioner (its kind, shard count and, for Hilbert, its key bits and
# cuts: the fleet's `ShardConfig` is read back from it) and the
# per-shard local→global id maps, which ascend; `global.nnc`, an archive
# of the same format with an empty `meta`, carries the full point array
# and active mask (rows of deleted points included, so global ids stay
# stable across save/load exactly as unsharded ids do).  Each fact is
# stored once.  The manifest is outside input too: the load checks its
# version, that the partitioner is an object whose shard count is the
# number of `shards` entries and whose Hilbert key bits are the ones a
# fit picks, that each entry names its own `shard_<s>.nnc` (or none) and
# lists int ids, and that the id maps agree with the archives.  Versions
# 1 and 2 (whose members were `.npz` files) and 3 (which also stored a
# `shard_config` and each point's shard and row in `global.nnc`) are
# refused.
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
        name = None
        if shard is not None:
            name = f"shard_{s}.nnc"
            save_index(shard, target / name)
        shard_entries.append(
            {"archive": name, "global_ids": index._globals[s].tolist()}
        )
    manifest = {
        "format_version": _SHARD_FORMAT_VERSION,
        "kind": "sharded-nncell",
        "partitioner": index.partitioner.to_manifest(),
        "shards": shard_entries,
    }
    (target / _SHARD_MANIFEST).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    _write_archive(
        target / _SHARD_GLOBALS, {},
        {"points": index.points, "active": index._active},
    )


def load_sharded_index(path: "Union[str, Path]"):
    """Rebuild a sharded index saved with :func:`save_sharded_index`."""
    from ..shard import ShardedNNCellIndex, partitioner_from_manifest
    from ..shard.partition import key_bits

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
    if not isinstance(manifest.get("partitioner"), dict):
        raise ValueError(
            f"{manifest_path}: key 'partitioner' is not a JSON object"
        )
    partitioner = partitioner_from_manifest(manifest["partitioner"])
    shards = []
    globals_ = []
    build_config = None
    for archive, ids in _shard_entries(manifest_path, manifest.get("shards")):
        globals_.append(ids)
        if archive is None:
            shards.append(None)
            continue
        shard = load_index(source / archive)
        if build_config is None:
            build_config = shard.config
        shards.append(shard)
    if build_config is None:  # pragma: no cover - archives are non-empty
        raise ValueError(f"{source} contains no live shards")
    if len(shards) != partitioner.n_shards:
        raise ValueError(
            f"{source}: manifest lists {len(shards)} shards, but its "
            f"partitioner has n_shards={partitioner.n_shards}"
        )
    where = f"index archive {source / _SHARD_GLOBALS}"
    arrays = _read_archive(source / _SHARD_GLOBALS)[1]
    _require_columns(arrays, _GLOBAL_COLUMNS, where)
    points = arrays["points"]
    if points.ndim != 2:
        raise ValueError(f"{where}: 'points' must be an (n, d) array")
    # The precision `fit` picks keeps every key inside 62 bits.
    dim = points.shape[1]
    if partitioner.kind == "hilbert" and partitioner.bits != key_bits(dim):
        raise ValueError(
            f"{manifest_path}: partitioner bits is {partitioner.bits}, "
            f"but Hilbert keys at d={dim} have {key_bits(dim)}"
        )
    # The fleet marks deleted points in place.
    active = arrays["active"].copy()
    _check_id_maps(source, shards, globals_, points, active)
    return ShardedNNCellIndex._restore(
        points=points,
        active=active,
        build_config=build_config,
        partitioner=partitioner,
        shards=shards,
        globals_=globals_,
    )


def _shard_entries(
    manifest_path: Path, shards: Any
) -> "List[Tuple[Optional[str], np.ndarray]]":
    """The manifest's ``shards`` as ``(archive, global_ids)`` pairs, each
    id map a read-only int64 array (:func:`repro.shard.sharded.id_map`).

    Raises ``ValueError`` naming the key unless ``shards`` is a list of
    objects with exactly the keys ``archive`` — ``null`` or, for entry
    ``s``, the ``shard_<s>.nnc`` that :func:`save_sharded_index` writes,
    so that a manifest cannot send the load outside its directory — and
    ``global_ids``, a list of ints (a bool or a float is not an id) that
    fit in int64.
    """
    from ..shard.sharded import id_map

    if not isinstance(shards, list):
        raise ValueError(f"{manifest_path}: key 'shards' is not a list")
    pairs = []
    for s, entry in enumerate(shards):
        where = f"{manifest_path}: shards[{s}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} is not a JSON object")
        odd = sorted(entry.keys() ^ {"archive", "global_ids"})
        if odd:
            state = "unknown" if odd[0] in entry else "no"
            raise ValueError(f"{where} has {state} key {odd[0]!r}")
        archive, ids = entry["archive"], entry["global_ids"]
        if archive is not None and archive != f"shard_{s}.nnc":
            raise ValueError(
                f"{where} key 'archive' is {archive!r}, not null or "
                f"'shard_{s}.nnc'"
            )
        if not (isinstance(ids, list) and all(type(g) is int for g in ids)):
            raise ValueError(f"{where} key 'global_ids' is not a list of ints")
        try:
            pairs.append((archive, id_map(ids)))
        except OverflowError:
            raise ValueError(
                f"{where} key 'global_ids' holds an id outside int64"
            ) from None
    return pairs


def _check_id_maps(source: Path, shards, globals_, points, active) -> None:
    """Raise ``ValueError`` naming the shard unless the manifest's id
    maps, ``global.nnc`` and the shard archives agree.

    Each live shard's map strictly ascends (``delete`` binary-searches
    it) and names global rows equal to the shard's rows, bit for bit,
    active exactly where the shard's row is; no global id is in two
    maps, and no active id is outside them.
    """
    n = points.shape[0]
    if active.shape != (n,):
        raise ValueError(
            f"{source / _SHARD_GLOBALS}: 'active' must hold one bool per "
            f"point ({n})"
        )
    held = 0
    for s, (shard, ids) in enumerate(zip(shards, globals_)):
        where = f"{source}: shard {s}"
        if shard is None:
            if ids.size:
                raise ValueError(
                    f"{where} has no archive but maps {ids.size} global ids"
                )
            continue
        rows = shard.points.shape[0]
        if ids.size != rows:
            raise ValueError(
                f"{where} maps {ids.size} global ids, but its archive "
                f"holds {rows} rows"
            )
        if ids.min() < 0 or ids.max() >= n:
            raise ValueError(f"{where} maps global ids outside [0, {n})")
        if np.any(np.diff(ids) <= 0):
            raise ValueError(f"{where}: its map does not strictly ascend")
        mapped = points[ids]
        if (
            mapped.shape != shard.points.shape
            or mapped.tobytes() != shard.points.tobytes()
        ):
            raise ValueError(
                f"{where}: its rows differ from the global points its "
                "map names"
            )
        if not np.array_equal(active[ids], shard._active):
            raise ValueError(
                f"{where}: its active rows differ from the global active mask"
            )
        held += len(shard)
    mapped = np.sort(np.concatenate(globals_))
    twice = mapped[1:][mapped[1:] == mapped[:-1]]
    if twice.size:
        gid = int(twice[0])
        holders = [s for s, ids in enumerate(globals_) if gid in ids]
        raise ValueError(
            f"{source}: global id {gid} is mapped by shards {holders[0]} "
            f"and {holders[1]}"
        )
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
