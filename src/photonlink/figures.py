"""Plot-ready CSV extraction for the reproduction figures.

No plotting happens here; each figure id selects and orders columns
from a sweep report so the file can be fed straight to a plotting tool.
"""
from __future__ import annotations

from .errors import ConfigError
from .report import SweepReport

__all__ = ["emit_figure_data", "FIGURE_COLUMNS"]

# figure id -> (source column, output column) pairs, in output order
FIGURE_COLUMNS = {
    "fig5": (("l_ns", "l_ns"), ("kappa", "kappa"), ("gamma", "gamma"), ("efficiency", "efficiency")),
    "fig6": (
        ("lambda", "lambda"),
        ("kappa", "kappa"),
        ("gamma", "gamma"),
        ("p_miss", "p_miss"),
        ("stderr", "stderr"),
    ),
    "fig8": (("t_over_tau", "t_over_tau"), ("lambda_tau", "lambda_tau"), ("delta", "delta")),
    "fig9": (
        ("power_dbm", "power_dbm"),
        ("kappa", "kappa"),
        ("gamma", "gamma"),
        ("n_cycles", "n_cycles"),
        ("ber", "ber"),
        ("stderr", "stderr"),
    ),
    "fig10": (
        ("power_dbm", "power_dbm"),
        ("kappa", "kappa"),
        ("gamma", "gamma"),
        ("n_cycles", "n_cycles"),
        ("rate", "rate"),
        ("stderr", "stderr"),
    ),
    "fig11": (
        ("mean_photons", "mean_photons"),
        ("kappa", "kappa"),
        ("excitation", "excitation"),
        ("stderr", "stderr"),
    ),
    "fig12": (
        ("mean_photons", "mean_photons"),
        ("kappa", "kappa"),
        ("excitation", "excitation"),
        ("stderr", "stderr"),
    ),
    "fig13": (("kappa", "kappa"), ("t_c", "t_c"), ("kappa_tc", "kappa_tc"), ("n_cutoff", "n_cutoff")),
    "fig15": (("kappa_tc", "kappa_tc"), ("n_cutoff", "n_cutoff"), ("kind", "kind")),
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
    mapping = FIGURE_COLUMNS[figure_id]
    missing = [src for src, _ in mapping if src not in report.columns]
    if missing:
        raise ConfigError(f"report lacks columns {missing} required by {figure_id}")
    out = SweepReport(columns=tuple(dst for _, dst in mapping), meta={"figure": figure_id})
    keep = _FILTERS.get(figure_id)
    for row in report.rows:
        if keep is not None and row.get(keep[0]) != keep[1]:
            continue
        out.append(**{dst: row[src] for src, dst in mapping})
    if not out.rows:
        raise ConfigError(f"no rows matched the {figure_id} filter")
    return out
