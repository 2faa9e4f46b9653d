"""Result records: point estimates with errors and tabular sweep reports."""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["Estimate", "SweepReport", "format_number", "write_frames"]


@dataclass(frozen=True)
class Estimate:
    """A point estimate with a standard error."""

    value: float
    stderr: float = 0.0

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be >= 0")


def format_number(x) -> str:
    """Deterministic CSV cell formatting.

    Scientific notation for 0 < |x| < 1e-3, shortest round-trip repr
    otherwise.  Integers and strings pass through.
    """
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, np.integer):
        x = int(x)
    elif isinstance(x, np.floating):
        x = float(x)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if x == 0.0:
            return "0.0"
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if abs(x) < 1e-3:
            return f"{x:.12e}"
        return repr(x)
    return str(x)


class SweepReport:
    """Tabular sweep result: one dict per row, the columns the key order of the first row."""

    def __init__(self, rows: list):
        if not rows:
            raise ValueError("a report needs at least one row")
        self.columns = tuple(rows[0])
        for row in rows:
            if tuple(row) != self.columns:
                raise ValueError(f"row keys {list(row)} differ from the columns {list(self.columns)}")
        self.rows = rows

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([format_number(row[c]) for c in self.columns])
        return buf.getvalue()

    def write_csv(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_csv_text(), encoding="utf-8")
        return path


def write_frames(path, symbols, frames) -> Path:
    """Dump a link run: one line per symbol, symbol bit then the N observation bits."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for s, frame in zip(symbols, frames):
            fh.write(f"{int(s)} " + "".join(str(int(b)) for b in frame) + "\n")
    return path
