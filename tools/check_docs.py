"""CI docs checker — dead links, phantom CLI flags and missing docs turn the build red.

Two checks over ``README.md`` and every ``docs/*.md``:

1. **Relative links resolve.** Each markdown link or image whose
   target is not an URL or a pure fragment must point at a file or
   directory that exists in the repository (fragments are stripped
   first). Renaming a file without fixing the docs fails here.

2. **Referenced CLI flags exist.** Every ``--flag`` token the docs
   mention must appear in the ``--help`` output of one of the
   project's command-line surfaces: the ``python -m repro``
   subcommands and this script. The help texts are
   scraped live, so a flag renamed in ``argparse`` but not in the docs
   (or vice versa) fails here.

And one over the code in ``src/``, ``benchmarks/`` and ``examples/``:

3. **Cited docs exist.** Every ``*.md`` path a ``.py`` file names
   (``docs/paper.md``, ``SNIPPETS.md``, ...) must exist, relative to
   the repository root or to the citing file. A comment that sends the
   reader to a document nobody wrote fails here.

Run::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
_EXTERNAL = ("http://", "https://", "mailto:")
_MD_REF = re.compile(r"(?<![\w./:-])([\w./-]*\w\.md)\b")
_CODE_DIRS = ("src", "benchmarks", "examples")


def doc_files() -> list[Path]:
    """The markdown surfaces the checks cover."""
    files = [ROOT / "README.md"]
    files.extend(sorted((ROOT / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def check_links(files: list[Path]) -> list[str]:
    """Relative links that do not resolve to an existing path."""
    failures = []
    for md in files:
        for match in _LINK.finditer(md.read_text(encoding="utf-8")):
            target = match.group(1)
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (md.parent / path).resolve()
            if not resolved.exists():
                failures.append(
                    f"{md.relative_to(ROOT)}: dead relative link -> {target}"
                )
    return failures


def code_files() -> list[Path]:
    """The Python files whose ``*.md`` citations :func:`check_md_refs` covers."""
    return sorted(
        f for d in _CODE_DIRS for f in (ROOT / d).rglob("*.py") if f.is_file()
    )


def check_md_refs(files: list[Path]) -> list[str]:
    """``*.md`` paths named in code that exist neither at the root nor beside it."""
    failures = []
    for py in files:
        for lineno, line in enumerate(
            py.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for match in _MD_REF.finditer(line):
                name = match.group(1)
                if (ROOT / name).exists() or (py.parent / name).exists():
                    continue
                where = py.relative_to(ROOT) if py.is_relative_to(ROOT) else py
                failures.append(f"{where}:{lineno}: missing doc -> {name}")
    return failures


def _help_text(cmd: list[str]) -> str:
    out = subprocess.run(
        cmd,
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{out.stderr}")
    return out.stdout + out.stderr


def known_flags() -> set[str]:
    """Every ``--flag`` any documented CLI surface actually accepts."""
    surfaces = [
        [sys.executable, "-m", "repro", "--help"],
        [sys.executable, str(ROOT / "tools" / "check_docs.py"), "--help"],
    ]
    top = _help_text(surfaces[0])
    # argparse lists subcommands as "{build,datasets,...}"
    sub = re.search(r"\{([a-z,\-]+)\}", top)
    if sub:
        for name in sub.group(1).split(","):
            surfaces.append([sys.executable, "-m", "repro", name, "--help"])
    flags: set[str] = set()
    for cmd in surfaces:
        flags.update(_FLAG.findall(_help_text(cmd)))
    return flags


def check_flags(files: list[Path], flags: set[str]) -> list[str]:
    """Documented ``--flag`` tokens no CLI surface accepts."""
    failures = []
    for md in files:
        for match in _FLAG.finditer(md.read_text(encoding="utf-8")):
            if match.group(0) not in flags:
                failures.append(
                    f"{md.relative_to(ROOT)}: unknown CLI flag {match.group(0)}"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--skip-flags",
        action="store_true",
        help="only check links (flag scraping imports the library)",
    )
    args = parser.parse_args(argv)

    files = doc_files()
    failures = check_links(files)
    failures.extend(check_md_refs(code_files()))
    n_flags = 0
    if not args.skip_flags:
        flags = known_flags()
        n_flags = len(flags)
        failures.extend(check_flags(files, flags))
    if failures:
        print(f"docs check: {len(failures)} failures")
        for line in failures:
            print(f"  FAIL {line}")
        return 1
    print(
        f"docs check: {len(files)} files ok "
        f"({n_flags} known CLI flags scraped)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
