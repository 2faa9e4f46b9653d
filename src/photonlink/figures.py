"""Plot-ready CSV extraction for the reproduction figures.

No plotting happens here; each figure id selects and orders columns
from a sweep report so the file can be fed straight to a plotting tool.
"""
from __future__ import annotations

from .errors import ConfigError
from .report import SweepReport

__all__ = ["emit_figure_data", "FIGURE_COLUMNS"]

# figure id -> the report columns it keeps, in output order
FIGURE_COLUMNS = {
    "fig5": ("l_ns", "kappa", "gamma", "efficiency"),
    "fig6": ("lambda", "kappa", "gamma", "p_miss", "stderr"),
    "fig8": ("t_over_tau", "lambda_tau", "delta"),
    "fig9": ("power_dbm", "kappa", "gamma", "n_cycles", "ber", "stderr"),
    "fig10": ("power_dbm", "kappa", "gamma", "n_cycles", "rate", "stderr"),
    "fig11": ("mean_photons", "kappa", "excitation", "stderr"),
    "fig12": ("mean_photons", "kappa", "excitation", "stderr"),
    "fig13": ("kappa", "t_c", "kappa_tc", "n_cutoff"),
    "fig15": ("kappa_tc", "n_cutoff", "kind"),
}

# row filters for figures sharing one source report
_FILTERS = {
    "fig11": ("reset", "correct"),
    "fig12": ("reset", "wrong"),
}


def emit_figure_data(report: SweepReport, figure_id: str) -> SweepReport:
    """Extract the plot-ready table for one figure from a sweep report."""
    if figure_id not in FIGURE_COLUMNS:
        raise ConfigError(f"unknown figure id {figure_id!r}; known: {sorted(FIGURE_COLUMNS)}")
    if not report.rows:
        raise ConfigError(f"empty report, nothing to emit for {figure_id}")
    columns = FIGURE_COLUMNS[figure_id]
    missing = [c for c in columns if c not in report.columns]
    if missing:
        raise ConfigError(f"report lacks columns {missing} required by {figure_id}")
    out = SweepReport(columns=columns, meta={"figure": figure_id})
    keep = _FILTERS.get(figure_id)
    for row in report.rows:
        if keep is not None and row.get(keep[0]) != keep[1]:
            continue
        out.append(**{c: row[c] for c in columns})
    if not out.rows:
        raise ConfigError(f"no rows matched the {figure_id} filter")
    return out
