"""Span tracing of photonlink's layers from outside the package.

Each wrapper replaces a public name where its caller looks it up (a
module attribute or a class attribute), records a span (id, name,
parent id, start, end) and updates counters at the same boundary.
Spans stay in memory until the run ends; `layer_metrics` turns them
into per-layer self times.  Nothing here edits the package's source.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import math
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "link", "detection", "physics", "saturation")

# per-layer metric name -> unit; the traced run prints exactly these
PER_LAYER_UNITS = {
    "cli.main.s": "s",
    "cli.write_csv.s": "s",
    "cli.rows": "count",
    "cli.bytes_written": "bytes",
    "link.build_spec.s": "s",
    "link.simulate_link.s": "s",
    "link.symbols": "count",
    "link.viterbi_decode.s": "s",
    "link.forward_loglik.s": "s",
    "link.conditional_forward_loglik.s": "s",
    "link.mutual_information.s": "s",
    "link.emission_loglik_stats.s": "s",
    "detection.poisson_mixture.s": "s",
    "detection.poisson_mixture.calls": "count",
    "detection.excitation_given_count.s": "s",
    "detection.excitation_given_count.calls": "count",
    "detection.dp_traces": "count",
    "detection.n_max": "count",
    "detection.table_hit_ratio": "ratio",
    "physics.kernel.s": "s",
    "physics.kernel.elems": "count",
    "saturation.saturated_excitation.s": "s",
    "saturation.saturated_excitation.calls": "count",
    "saturation.replicas": "count",
    "saturation.arrivals": "count",
    "saturation.survivor_mask.s": "s",
    "saturation.cutoff_photon_number.s": "s",
    "saturation.grid_eval_ratio": "ratio",
    "saturation.fit_cutoff_curve.s": "s",
    **{f"layer.{layer}.s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, parent id or None, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped in a span; count(counts, bound_args, result) runs after it."""
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(self.spans), name, self._stack[-1] if self._stack else None,
                   time.perf_counter(), None]
            self.spans.append(rec)
            self._stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time covered by its direct children, summed per name."""
        child = defaultdict(float)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, _, start, end in self.spans:
            out[name] += (end - start) - child[sid]
        return out


# -- counters taken at the wrapped boundaries ---------------------------------

def _count_symbols(c, a, _):
    c["link.symbols"] += a["n_symbols"]


def _count_mixture(c, a, _):
    c["detection.poisson_mixture.calls"] += 1


def _count_lookup(c, a, _):
    c["detection.lookups"] += 1
    c["detection.n_max"] = max(c["detection.n_max"], a["n"])


def _count_conditional(c, a, _):
    c["detection.excitation_given_count.calls"] += 1
    if a["n"] >= 2:  # n <= 1 is exact quadrature, n >= 2 runs the DP on mc_samples traces
        c["detection.dp_traces"] += a["mc_samples"]


def _count_kernel(c, a, _):
    c["physics.kernel.elems"] += np.size(a["t"])


def _count_saturated(c, a, _):
    c["saturation.saturated_excitation.calls"] += 1
    c["saturation.replicas"] += a["replicas"]
    c["saturation.arrivals"] += a["replicas"] * a["lam"] * a["timing"].t_c


def _count_scan(c, a, result):
    c["saturation.grid_offered"] += np.size(a["n_grid"])
    c["saturation.grid_evaluated"] += int(np.count_nonzero(~np.isnan(result.excitation)))


def _count_csv(c, a, result):
    c["cli.rows"] += len(a["self"].rows)
    c["cli.bytes_written"] += result.stat().st_size


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the layer wrappers for the duration of the block, then restore."""
    from photonlink import detection, link, report, saturation

    targets = [
        (report.SweepReport, "write_csv", "cli.write_csv", _count_csv),
        (link.LinkConfig, "build_spec", "link.build_spec", None),
        (link, "simulate_link", "link.simulate_link", _count_symbols),
        (link, "viterbi_decode", "link.viterbi_decode", None),
        (link, "forward_loglik", "link.forward_loglik", None),
        (link, "conditional_forward_loglik", "link.conditional_forward_loglik", None),
        (link, "mutual_information", "link.mutual_information", None),
        (link.HmmSpec, "emission_loglik_stats", "link.emission_loglik_stats", None),
        (link, "saturated_excitation", "saturation.saturated_excitation", _count_saturated),
        (detection.ConditionalExcitationTable, "poisson_mixture", "detection.poisson_mixture",
         _count_mixture),
        (detection.ConditionalExcitationTable, "conditional", "detection.conditional",
         _count_lookup),
        (detection, "excitation_given_count", "detection.excitation_given_count",
         _count_conditional),
        (detection, "ground_return_prob", "physics.kernel", _count_kernel),
        (detection, "excited_kernel", "physics.kernel", _count_kernel),
        (saturation, "saturated_excitation", "saturation.saturated_excitation", _count_saturated),
        (saturation, "survivor_mask", "saturation.survivor_mask", None),
        (saturation, "cutoff_photon_number", "saturation.cutoff_photon_number", _count_scan),
        (saturation, "fit_cutoff_curve", "saturation.fit_cutoff_curve", None),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
    try:
        for owner, attr, name, count in targets:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed as in PER_LAYER_UNITS.

    trace.overhead_s is left to the caller, which holds the untraced run.
    """
    selfs = tracer.self_times()
    c = tracer.counts
    out = {name: 0.0 for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
    for name, unit in PER_LAYER_UNITS.items():
        if unit == "s" and name[:-2] in selfs:
            out[name] = selfs[name[:-2]]
        elif name in c:
            out[name] = float(c[name])
    out["detection.table_hit_ratio"] = _ratio(
        c["detection.lookups"] - c["detection.excitation_given_count.calls"], c["detection.lookups"])
    out["saturation.grid_eval_ratio"] = _ratio(
        c["saturation.grid_evaluated"], c["saturation.grid_offered"])
    for layer in LAYERS:
        out[f"layer.{layer}.s"] = math.fsum(v for k, v in selfs.items() if k.split(".")[0] == layer)
    roots = [end - start for _, _, parent, start, end in tracer.spans if parent is None]
    out["trace.wall_s"] = math.fsum(roots)
    return out
