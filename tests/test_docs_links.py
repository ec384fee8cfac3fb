"""The repo's own docs must pass the link checker.

Runs :mod:`tools.check_doc_links` over ``docs/``, the root markdown
files and the skill notes under ``.claude/skills/`` — any reference to
a renamed or deleted file fails the suite, so documentation drift is
caught by CI, not by readers.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location(
        "check_doc_links", REPO_ROOT / "tools" / "check_doc_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repo_docs_have_no_broken_references(checker, capsys):
    assert checker.main([]) == 0
    assert "doc links OK" in capsys.readouterr().out


def test_checker_flags_broken_link(checker, tmp_path, capsys):
    bad = tmp_path / "bad.md"
    bad.write_text("See [the plan](missing_plan.md) for details.\n")
    assert checker.main([str(bad)]) == 1
    assert "missing_plan.md" in capsys.readouterr().err


def test_checker_flags_dangling_path_mention(checker, tmp_path):
    bad = tmp_path / "bad.md"
    bad.write_text("Tuning lives in docs/no_such_file.md now.\n")
    assert checker.main([str(bad)]) == 1


def test_checker_resolves_skill_paths_whole(checker, tmp_path, capsys):
    # A skill note's path was read as a root-level SKILL.md, and flagged.
    skill = next(p for p in checker.default_targets() if p.name == "SKILL.md")
    mention = skill.relative_to(REPO_ROOT).as_posix()
    ok = tmp_path / "ok.md"
    ok.write_text(f"Notes live in `{mention}`.\n")
    assert checker.main([str(ok)]) == 0
    missing = mention.replace(skill.parent.name, "no-such-skill")
    bad = tmp_path / "bad.md"
    bad.write_text(f"Notes live in `{missing}`.\n")
    assert checker.main([str(bad)]) == 1
    assert missing in capsys.readouterr().err


def test_checker_skips_external_and_anchor_links(checker, tmp_path, capsys):
    ok = tmp_path / "ok.md"
    ok.write_text(
        "[web](https://example.com) [anchor](#section) "
        "[mail](mailto:a@b.c)\n"
    )
    assert checker.main([str(ok)]) == 0


def test_default_targets_cover_docs_and_readme(checker):
    targets = checker.default_targets()
    names = {p.name for p in targets}
    assert "README.md" in names
    assert "architecture.md" in names
    assert REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md" in targets


def test_architecture_mentions_every_subpackage(checker):
    missing = checker.check_architecture_coverage()
    assert missing == [], (
        f"docs/architecture.md does not mention: "
        f"{', '.join('repro.' + name for name in missing)}"
    )


def test_subpackage_discovery_sees_known_layers(checker):
    names = checker.repro_subpackages()
    for expected in ("core", "index", "engine", "serve", "obs", "shard"):
        assert expected in names


def test_coverage_checker_flags_missing_mention(checker, tmp_path):
    src = tmp_path / "src"
    (src / "repro" / "newlayer").mkdir(parents=True)
    (src / "repro" / "newlayer" / "__init__.py").touch()
    (src / "repro" / "oldlayer").mkdir()
    (src / "repro" / "oldlayer" / "__init__.py").touch()
    doc = tmp_path / "architecture.md"
    doc.write_text("Only `repro.oldlayer` is described here.\n")
    missing = checker.check_architecture_coverage(doc, src)
    assert missing == ["newlayer"]
