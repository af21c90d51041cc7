"""Report formatting for experiment results.

Experiments produce lists of row dicts; this module renders them as
aligned text/markdown tables and persists them under ``results/`` so a
benchmark run leaves the regenerated paper tables on disk.
"""

from __future__ import annotations

import pathlib
import typing as t

from repro.errors import ReproError, require_real

Row = t.Mapping[str, object]


def format_cell(value: object) -> str:
    """Human-friendly cell rendering (SI-ish numbers, 3 significant)."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e6:
            return f"{value / 1e6:.1f}M"
        if abs(value) >= 1e4:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_table(rows: t.Sequence[Row],
                 columns: t.Sequence[str] | None = None,
                 title: str = "") -> str:
    """Render rows as a markdown table."""
    if not rows:
        raise ReproError("cannot format an empty table")
    cols = list(columns) if columns else list(rows[0].keys())
    rendered = [[format_cell(row.get(col, "")) for col in cols]
                for row in rows]
    widths = [max(len(col), *(len(line[i]) for line in rendered))
              for i, col in enumerate(cols)]

    def fmt_line(cells: t.Sequence[str]) -> str:
        return "| " + " | ".join(
            cell.ljust(width) for cell, width in zip(cells, widths)) + " |"

    lines = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    lines.append(fmt_line(cols))
    lines.append("|" + "|".join("-" * (width + 2) for width in widths) + "|")
    lines.extend(fmt_line(line) for line in rendered)
    return "\n".join(lines)


def save_report(name: str, content: str,
                directory: str | pathlib.Path = "results") -> pathlib.Path:
    """Write a report file; returns its path."""
    out_dir = pathlib.Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.md"
    path.write_text(content + "\n")
    return path


def ascii_chart(rows: t.Sequence[Row], label_key: str,
                value_keys: t.Sequence[str], width: int = 48,
                title: str = "") -> str:
    """Render grouped horizontal bars for quick terminal visualisation.

    One group per row (labelled by ``row[label_key]``), one bar per value
    key, all scaled to the global maximum.  Used by the CLI so
    ``python -m repro bench fig13_hybrid`` shows the figure's shape, not
    just the table.
    """
    if not rows:
        raise ReproError("cannot chart an empty series")
    values = [float(t.cast(float, row[key]))
              for row in rows for key in value_keys
              if row.get(key) is not None]
    if not values:
        raise ReproError("chart needs at least one positive value")
    peak = require_real("chart peak", max(values), ReproError, positive=True)
    label_width = max(len(str(row[label_key])) for row in rows)
    key_width = max(len(key) for key in value_keys)

    lines = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    for row in rows:
        lines.append(f"{str(row[label_key]).ljust(label_width)}")
        for key in value_keys:
            value = row.get(key)
            if value is None:
                continue
            bar = "#" * max(1, round(float(t.cast(float, value))
                                     / peak * width))
            lines.append(f"  {key.ljust(key_width)} |{bar} "
                         f"{format_cell(value)}")
    return "\n".join(lines)
