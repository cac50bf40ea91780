"""Fixed-width table rendering for experiment reports.

``python -m repro report`` prints the same rows/series the paper's
figures plot; this module keeps that formatting in one place.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["format_table", "format_paper_comparison"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned monospace table.

    Cells are stringified with ``str``; numeric alignment is right, text
    left (decided per column from the data).
    """
    str_rows = [[_fmt(c) for c in row] for row in rows]
    cols = len(headers)
    for i, row in enumerate(str_rows):
        if len(row) != cols:
            raise ValueError(
                f"row {i} has {len(row)} cells, expected {cols}"
            )
    widths = [
        max(len(headers[j]), *(len(r[j]) for r in str_rows)) if str_rows
        else len(headers[j])
        for j in range(cols)
    ]
    numeric = [
        bool(str_rows) and all(_is_numeric_text(r[j]) for r in str_rows)
        for j in range(cols)
    ]

    def render_row(cells: Sequence[str]) -> str:
        parts = []
        for j, cell in enumerate(cells):
            parts.append(
                cell.rjust(widths[j]) if numeric[j] else cell.ljust(widths[j])
            )
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(render_row(r) for r in str_rows)
    return "\n".join(lines)


def format_paper_comparison(
    rows: Sequence[tuple[str, str, str]], title: str | None = None
) -> str:
    """Render (quantity, paper value, measured value) comparison rows."""
    return format_table(("quantity", "paper", "measured"), rows, title=title)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:,.4g}" if abs(cell) < 1e6 else f"{cell:,.0f}"
    return str(cell)


def _is_numeric_text(text: str) -> bool:
    stripped = text.replace(",", "").replace("$", "").replace("%", "")
    try:
        float(stripped)
    except ValueError:
        return False
    return True
