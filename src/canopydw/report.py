"""Cell rendering and tabular output shared by reports, storage, CLI, and service.

Every report (stats, estimate, query, reconcile metrics) is one ResultTable,
rendered here for the CLI table, the CLI CSV and the HTTP JSON, so each
surface reports byte-identical cell values.
"""

from __future__ import annotations

import csv
import io
import math
from typing import NamedTuple, Sequence

MIB = 2**20
GIB = 2**30


def render_cell(value) -> str:
    """Canonical text form of one cell.

    None renders empty; floats use the shortest round-trip decimal form;
    everything else via str().
    """
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_line(cells: Sequence[object]) -> str:
    """One CSV line; the writer renders each cell as render_cell does."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()[:-1]


def csv_lines(columns: Sequence[str], rows: Sequence[Sequence[object]]) -> list[str]:
    out = [csv_line(columns)]
    out.extend(csv_line(r) for r in rows)
    return out


def text_table(columns: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Aligned two-space-separated table with a header rule."""
    rendered = [[render_cell(c) for c in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(list(columns)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rendered)
    return "\n".join(lines)


class ResultTable(NamedTuple):
    """A report: column names plus rows of raw Python values."""

    columns: tuple[str, ...]
    rows: Sequence[Sequence[object]]

    def to_csv(self) -> str:
        return "\n".join(csv_lines(self.columns, self.rows)) + "\n"

    def to_text(self) -> str:
        return text_table(self.columns, self.rows)

    def rendered_rows(self) -> list[list[str]]:
        return [[render_cell(c) for c in row] for row in self.rows]

    def to_json(self) -> dict:
        """The HTTP payload: the columns and the rendered rows."""
        return {"columns": list(self.columns), "rows": self.rendered_rows()}


def choose_binary_unit(max_bytes: float) -> str:
    return "GiB" if max_bytes >= GIB else "MiB"


def format_binary_size(nbytes: float, unit: str) -> str:
    """Format a byte count in MiB or GiB for report display.

    Values >= 100 get one decimal, values >= 1 two decimals, smaller values
    two significant digits (so tiny tables still show a meaningful figure).
    """
    value = nbytes / (GIB if unit == "GiB" else MIB)
    if value >= 100:
        return f"{value:.1f}"
    if value >= 1:
        return f"{value:.2f}"
    if value == 0:
        return "0"
    decimals = 1 - math.floor(math.log10(abs(value)))
    text = f"{value:.{decimals}f}"
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text or "0"
