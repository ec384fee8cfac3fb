#!/usr/bin/env python
"""Docs link checker: every file reference in the docs must resolve.

Scans markdown files for

* inline links ``[text](target)`` — relative targets must exist on disk
  (``http(s)://``, ``mailto:`` and pure ``#anchor`` targets are skipped);
* prose references to repo files such as ``docs/scaling.md``,
  ``examples/quickstart.py`` or ``ROADMAP.md`` — mentioned paths must
  exist, so a renamed or deleted file cannot leave a dangling pointer in
  the documentation;
* architecture coverage — every ``src/repro/*`` subpackage must be
  mentioned (as ``repro.<name>``) in ``docs/architecture.md``, so a new
  layer cannot land without the architecture overview describing it.

Usage::

    python tools/check_doc_links.py [FILE_OR_DIR ...]

With no arguments, checks ``docs/``, ``README.md`` and every other
``*.md`` at the repo root, the markdown of each skill under
``.claude/skills/``, plus the architecture-coverage rule.  Exits
non-zero listing each broken reference as ``file:line: target``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Iterable, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``[text](target)`` — markdown inline links, tolerating titles.
_INLINE_LINK = re.compile(r"\[[^\]]*\]\(\s*([^)\s]+)(?:\s+\"[^\"]*\")?\s*\)")

#: Repo-relative file paths mentioned in prose or code spans:
#: ``docs/x.md``, ``examples/y.py``, ``benchmarks/z.py``, ``tools/w.py``,
#: ``src/repro/...py``, paths inside a dot-directory (the skill notes) and
#: root-level ``UPPERCASE.md`` files.  A dot-directory path is checked
#: whole, not as the root-level file its last part would name.
_PATH_MENTION = re.compile(
    r"((?:\b(?:docs|examples|benchmarks|tools|tests|src)/|(?<![\w./-])\.\w+/)"
    r"[\w./-]+\.(?:md|py)|\b[A-Z][A-Z_]+\.md)\b"
)

_SKIP_SCHEMES = ("http://", "https://", "mailto:")


def default_targets() -> "List[Path]":
    files = sorted((REPO_ROOT / "docs").glob("*.md"))
    files += sorted(REPO_ROOT.glob("*.md"))
    files += sorted(REPO_ROOT.glob(".claude/skills/*/*.md"))
    return files


def expand(arguments: "Iterable[str]") -> "List[Path]":
    files: "List[Path]" = []
    for argument in arguments:
        path = Path(argument)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.md")))
        else:
            files.append(path)
    return files


def check_file(path: Path) -> "List[Tuple[int, str]]":
    """Broken references in ``path`` as ``(line_number, target)`` pairs."""
    broken: "List[Tuple[int, str]]" = []
    for line_number, line in enumerate(
        path.read_text().splitlines(), start=1
    ):
        for match in _INLINE_LINK.finditer(line):
            target = match.group(1)
            if target.startswith(_SKIP_SCHEMES) or target.startswith("#"):
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                broken.append((line_number, target))
        for match in _PATH_MENTION.finditer(line):
            target = match.group(1)
            if not (REPO_ROOT / target).exists():
                broken.append((line_number, target))
    return broken


def repro_subpackages(
    src_root: "Path | None" = None,
) -> "List[str]":
    """Names of every ``src/repro/*`` subpackage (dirs with __init__.py)."""
    root = (src_root or REPO_ROOT / "src") / "repro"
    return sorted(
        child.name
        for child in root.iterdir()
        if child.is_dir() and (child / "__init__.py").exists()
    )


def check_architecture_coverage(
    architecture_md: "Path | None" = None,
    src_root: "Path | None" = None,
) -> "List[str]":
    """Subpackages *not* mentioned as ``repro.<name>`` in architecture.md.

    The architecture overview is the map of the system; a layer that is
    not on the map is undocumented.  Returns the missing names.
    """
    doc = architecture_md or REPO_ROOT / "docs" / "architecture.md"
    text = doc.read_text() if doc.exists() else ""
    return [
        name
        for name in repro_subpackages(src_root)
        if f"repro.{name}" not in text
    ]


def main(argv: "List[str] | None" = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    files = expand(arguments) if arguments else default_targets()
    failures = 0
    if not arguments:
        for name in check_architecture_coverage():
            print(
                f"docs/architecture.md: subpackage repro.{name}"
                f" is not mentioned",
                file=sys.stderr,
            )
            failures += 1
    for path in files:
        if not path.exists():
            print(f"{path}: file not found", file=sys.stderr)
            failures += 1
            continue
        for line_number, target in check_file(path):
            print(f"{path}:{line_number}: broken reference: {target}",
                  file=sys.stderr)
            failures += 1
    if failures:
        print(f"{failures} broken doc reference(s)", file=sys.stderr)
        return 1
    checked = len(files)
    print(f"doc links OK ({checked} file(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
