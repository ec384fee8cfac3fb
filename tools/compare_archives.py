#!/usr/bin/env python
"""Compare two index archives column by column.

The engine layer's determinism contract says a parallel build must
produce an archive *identical* to the serial one; the build and shard
legs of ``tools/smoke.py`` enforce it by building twice and calling
:func:`compare_archives` (the comparison logic lives here, not inline in
the smoke script, so it is unit-tested like any other code —
``tests/test_tools.py``).  Archives are read through
:mod:`repro.core.persistence`, the one module that knows their format.

Usage::

    python tools/compare_archives.py serial.nnc parallel.nnc

Exit status 0 when every column matches (same name set, same dtype,
same shape, equal bytes) and so does the ``meta`` object; 1 otherwise,
listing each difference; 2 when a file is missing or is not an index
archive.  An archive keeps its build config in the JSON object
``meta``; when two differ, each differing leaf is listed on its own
line by its dotted path, for example ``meta.decomposition.k_max: 4 !=
100``, before the columns' differences.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Sequence

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
if str(REPO_SRC) not in sys.path:  # allow running without installation
    sys.path.insert(0, str(REPO_SRC))

from repro.core.persistence import _read_archive  # noqa: E402

__all__ = ["compare_archives", "main"]


def compare_archives(path_a: "str | Path", path_b: "str | Path") -> "List[str]":
    """Differences between two index archives; empty = identical.

    Each entry is a human-readable line naming the ``meta`` leaf or the
    column and the way it differs (missing, dtype, shape, or values).
    NaNs are treated as equal to themselves — the contract is "same
    bytes", not IEEE ``==``.  Raises ``ValueError`` if either file is not
    an index archive.
    """
    meta_a, a = _read_archive(path_a)
    meta_b, b = _read_archive(path_b)
    diffs = _meta_diffs(meta_a, meta_b, path_a, path_b)
    for key in sorted(a.keys() - b.keys()):
        diffs.append(f"{key}: only in {path_a}")
    for key in sorted(b.keys() - a.keys()):
        diffs.append(f"{key}: only in {path_b}")
    for key in sorted(a.keys() & b.keys()):
        left, right = a[key], b[key]
        if left.dtype != right.dtype:
            diffs.append(f"{key}: dtype {left.dtype} != {right.dtype}")
        elif left.shape != right.shape:
            diffs.append(f"{key}: shape {left.shape} != {right.shape}")
        elif left.tobytes() != right.tobytes():
            diffs.append(f"{key}: values differ")
    return diffs


def _meta_diffs(a: dict, b: dict, path_a, path_b) -> "List[str]":
    """Leaf-by-leaf differences of two ``meta`` objects: a leaf on one
    side only, or one whose JSON encoding differs."""
    a, b = _leaves(a, "meta"), _leaves(b, "meta")
    diffs: "List[str]" = []
    for key in sorted(a.keys() | b.keys()):
        if key not in b:
            diffs.append(f"{key}: only in {path_a}")
        elif key not in a:
            diffs.append(f"{key}: only in {path_b}")
        elif json.dumps(a[key]) != json.dumps(b[key]):
            diffs.append(f"{key}: {a[key]!r} != {b[key]!r}")
    return diffs


def _leaves(doc: dict, path: str) -> dict:
    """Every non-object value below the JSON object ``doc``, by its
    dotted path from ``path`` (an empty object is a leaf)."""
    leaves = {}
    for key, value in doc.items():
        if isinstance(value, dict) and value:
            leaves.update(_leaves(value, f"{path}.{key}"))
        else:
            leaves[f"{path}.{key}"] = value
    return leaves


def main(argv: "Sequence[str] | None" = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(
            "usage: python tools/compare_archives.py A.nnc B.nnc",
            file=sys.stderr,
        )
        return 2
    path_a, path_b = Path(args[0]), Path(args[1])
    for path in (path_a, path_b):
        if not path.exists():
            print(f"error: {path} does not exist", file=sys.stderr)
            return 2
    try:
        diffs = compare_archives(path_a, path_b)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if diffs:
        for line in diffs:
            print(line)
        print(f"{len(diffs)} difference(s) between {path_a} and {path_b}")
        return 1
    n_arrays = len(_read_archive(path_a)[1])
    print(f"parity OK: {n_arrays} arrays identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
