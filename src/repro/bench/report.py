"""Plain-text table rendering for benchmark outputs.

Benchmarks print the same rows the paper's tables report (plus the
paper's numbers alongside, for shape comparison) and persist them under
the repository root's git-ignored ``benchmark_results/`` so the output
survives pytest capture.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

__all__ = ["format_table", "emit", "results_dir"]


def format_table(rows: Sequence[dict], title: str | None = None) -> str:
    """Align a list of row dicts into a monospaced table.

    Column order follows the first row's key order; missing cells
    render empty.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(rows[0].keys())
    for row in rows[1:]:
        for key in row:
            if key not in columns:
                columns.append(key)
    cells = [[str(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells)) for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    rule = "-" * len(header)
    body = "\n".join("  ".join(c.ljust(w) for c, w in zip(line, widths)) for line in cells)
    parts = [title, rule, header, rule, body, rule] if title else [header, rule, body]
    return "\n".join(p for p in parts if p is not None)


def results_dir() -> Path:
    """``benchmark_results/`` at the repository root, created on demand.

    The root is the nearest ancestor of this file holding ``setup.py``,
    so the directory does not depend on the working directory. An
    installed copy outside the repository falls back to
    ``$CWD/benchmark_results/``.
    """
    here = Path(__file__).resolve()
    root = next((p for p in here.parents if (p / "setup.py").exists()), Path.cwd())
    out = root / "benchmark_results"
    out.mkdir(parents=True, exist_ok=True)
    return out


def emit(name: str, *blocks: str | Iterable[dict]) -> str:
    """Print benchmark output and persist it to ``results/<name>.txt``.

    Each block is either a preformatted string or a sequence of row
    dicts (rendered with :func:`format_table`).
    """
    rendered = []
    for block in blocks:
        if isinstance(block, str):
            rendered.append(block)
        else:
            rendered.append(format_table(list(block)))
    text = "\n\n".join(rendered)
    print(f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{text}\n")
    (results_dir() / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    return text
