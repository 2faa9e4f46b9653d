"""Result records: point estimates with errors and tabular sweep reports."""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

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


@dataclass
class SweepReport:
    """Tabular sweep result: fixed column order, one dict per row."""

    columns: Sequence[str]
    rows: list = field(default_factory=list)

    def append(self, **cells) -> None:
        missing = set(self.columns) - set(cells)
        extra = set(cells) - set(self.columns)
        if missing or extra:
            raise ValueError(f"row keys mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        self.rows.append(dict(cells))

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]

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
