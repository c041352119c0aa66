"""Plain-text renderers for the regenerated tables and figures."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def render_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "") -> str:
    """Fixed-width ASCII table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths, strict=True)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths, strict=True)))
    return "\n".join(lines)


def render_bar_chart(labels: Sequence[str],
                     series: Sequence[Sequence[float]],
                     series_names: Sequence[str],
                     width: int = 46, title: str = "") -> str:
    """Horizontal ASCII bar chart with one bar group per label.

    The stand-in for the paper's Figure 3 IPC bars.
    """
    if not series or any(len(s) != len(labels) for s in series):
        raise ValueError("each series needs one value per label")
    peak = max(max(s) for s in series) or 1.0
    glyphs = "#=o*"
    lines: List[str] = []
    if title:
        lines.append(title)
    label_w = max(len(l) for l in labels)
    for i, label in enumerate(labels):
        for j, values in enumerate(series):
            bar = glyphs[j % len(glyphs)] * max(
                1, round(values[i] / peak * width)
            )
            name = label if j == 0 else ""
            lines.append(
                f"{name:>{label_w}} {glyphs[j % len(glyphs)]} "
                f"{values[i]:5.2f} {bar}"
            )
        lines.append("")
    legend = "   ".join(
        f"{glyphs[j % len(glyphs)]} = {name}"
        for j, name in enumerate(series_names)
    )
    lines.append(legend)
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    if cell is None:
        return "-"
    return str(cell)


def percent_delta(value: float, baseline: float) -> str:
    """'+4.2%'-style delta string."""
    if baseline == 0:
        return "n/a"
    return f"{(value / baseline - 1) * 100:+.1f}%"


def shape_check(name: str, measured: float, paper: float,
                tolerance: float) -> str:
    """One line of the paper-vs-measured shape report."""
    ok = abs(measured - paper) <= tolerance
    flag = "OK " if ok else "DIFF"
    return (f"[{flag}] {name}: measured {measured:+.1f}%  "
            f"paper {paper:+.1f}%  (tol ±{tolerance:.0f})")
