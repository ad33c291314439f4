"""Plain-text report formatting for benchmark output.

The benchmarks print the same rows/series the paper's figures show; these
helpers keep that output aligned and readable in a terminal or a log file.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import ConfigurationError


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Monospace table with per-column width fitting."""
    if not headers:
        raise ConfigurationError("a table needs headers")
    cells = [[str(h) for h in headers]]
    for row in rows:
        if len(row) != len(headers):
            raise ConfigurationError("row width does not match headers")
        cells.append([_fmt(value) for value in row])
    widths = [max(len(r[c]) for r in cells) for c in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_cell(value: object, floatfmt: str = "{:.4g}") -> str:
    """One table cell as text: ``-`` for None, yes/no, ``floatfmt``."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return floatfmt.format(value)
    return str(value)


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e4 or magnitude < 1e-3:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


def series_summary(name: str, values: Sequence[float]) -> str:
    """One-line min/mean/max summary of a numeric series."""
    if len(values) == 0:
        return f"{name}: (empty)"
    array = np.asarray(values, dtype=float)
    return (
        f"{name}: n={array.size} min={array.min():.4g} "
        f"mean={array.mean():.4g} max={array.max():.4g}"
    )


def bullet_list(items: Sequence[str]) -> str:
    """Indented bullet list."""
    return "\n".join(f"  - {item}" for item in items)


def print_section(title: str, body: str = "") -> None:
    """Print a titled section (used by benchmark harnesses)."""
    bar = "=" * max(8, len(title))
    print(f"\n{bar}\n{title}\n{bar}")
    if body:
        print(body)


def relative_error(measured: float, reference: float) -> float:
    """|measured - reference| / |reference| (inf-safe)."""
    if reference == 0.0:
        return float("inf") if measured != 0.0 else 0.0
    return abs(measured - reference) / abs(reference)
