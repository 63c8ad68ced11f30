"""Tests for the docs checker's cited-doc check (``tools/check_docs.py``)."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_missing_cited_doc_fails(tmp_path):
    code = tmp_path / "cites.py"
    code.write_text(
        '"""Deviations: see NOT_WRITTEN_YET.md and docs/paper.md."""\n'
        "# The README.md at the root exists; so does SNIPPETS.md.\n"
        "# The links https://example.org/GONE.md and *.md are not paths.\n",
        encoding="utf-8",
    )
    failures = _checker().check_md_refs([code])
    assert len(failures) == 1
    assert "cites.py:1" in failures[0]
    assert "NOT_WRITTEN_YET.md" in failures[0]


def test_doc_beside_the_citing_file_resolves(tmp_path):
    (tmp_path / "notes.md").write_text("# notes\n", encoding="utf-8")
    code = tmp_path / "cites.py"
    code.write_text("# see notes.md\n", encoding="utf-8")
    assert _checker().check_md_refs([code]) == []


def test_repository_cites_only_existing_docs():
    checker = _checker()
    files = checker.code_files()
    assert any(f.name == "theory.py" for f in files)
    assert checker.check_md_refs(files) == []
