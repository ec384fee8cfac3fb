#!/usr/bin/env python
"""Compare two ``.npz`` archives array-by-array.

The engine layer's determinism contract says a parallel build must
produce an archive *identical* to the serial one; the build and shard
legs of ``tools/smoke.py`` enforce it by building twice and calling
:func:`compare_archives` (the comparison logic lives here, not inline in
the smoke script, so it is unit-tested like any other code —
``tests/test_tools.py``).

Usage::

    python tools/compare_archives.py serial.npz parallel.npz

Exit status 0 when every array matches (same key set, same dtype, same
shape, equal bytes); 1 otherwise, listing each difference.  An index
archive keeps its format version and build config in one JSON member,
``meta``; when two ``meta`` members differ, each differing leaf is listed
on its own line by its dotted path, for example
``meta.decomposition.k_max: 4 != 100``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Sequence

import numpy as np

__all__ = ["compare_archives", "main"]


def compare_archives(path_a: "str | Path", path_b: "str | Path") -> "List[str]":
    """Differences between two ``.npz`` archives; empty = identical.

    Each entry is a human-readable line naming the array and the way it
    differs (missing, dtype, shape, or values).  NaNs are treated as
    equal to themselves — the contract is "same bytes", not IEEE ``==``.
    """
    with np.load(path_a) as a, np.load(path_b) as b:
        diffs: "List[str]" = []
        keys_a, keys_b = set(a.files), set(b.files)
        for key in sorted(keys_a - keys_b):
            diffs.append(f"{key}: only in {path_a}")
        for key in sorted(keys_b - keys_a):
            diffs.append(f"{key}: only in {path_b}")
        for key in sorted(keys_a & keys_b):
            left, right = a[key], b[key]
            fields = _meta_diffs(left, right, path_a, path_b) if key == "meta" else []
            if fields:
                diffs.extend(fields)
            elif left.dtype != right.dtype:
                diffs.append(
                    f"{key}: dtype {left.dtype} != {right.dtype}"
                )
            elif left.shape != right.shape:
                diffs.append(
                    f"{key}: shape {left.shape} != {right.shape}"
                )
            elif left.tobytes() != right.tobytes():
                diffs.append(f"{key}: values differ")
        return diffs


def _meta_diffs(left, right, path_a, path_b) -> "List[str]":
    """Leaf-by-leaf differences of two ``meta`` members; empty when
    either side is not a JSON object or no leaf's encoding differs."""
    try:
        a, b = (json.loads(side.item()) for side in (left, right))
    except (TypeError, ValueError):
        return []
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return []
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
            "usage: python tools/compare_archives.py A.npz B.npz",
            file=sys.stderr,
        )
        return 2
    path_a, path_b = Path(args[0]), Path(args[1])
    for path in (path_a, path_b):
        if not path.exists():
            print(f"error: {path} does not exist", file=sys.stderr)
            return 2
    diffs = compare_archives(path_a, path_b)
    if diffs:
        for line in diffs:
            print(line)
        print(f"{len(diffs)} difference(s) between {path_a} and {path_b}")
        return 1
    with np.load(path_a) as archive:
        n_arrays = len(archive.files)
    print(f"parity OK: {n_arrays} arrays identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
