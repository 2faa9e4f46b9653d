"""Fixed-window dead-time (saturation) model and survivor counting statistics.

A photon survives saturation iff no other photon arrives within tau on
either side.  Closed-form survivor moments are provided for a fixed
count and for Poisson arrival, together with quadrature and Monte Carlo
oracles, the sub-/super-Poisson crossover, saturated excitation curves
(exact for gamma = 0 from the first-survivor delay-renewal equation,
Monte Carlo otherwise) and the 3 dB cutoff machinery.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import FitConvergenceError, NotSaturatingError, RootBracketError
from .physics import CycleTiming, DeviceParams, detector_events
from .report import Estimate
from .rng import substream

__all__ = [
    "SaturationWindow",
    "SurvivorMoments",
    "CutoffFit",
    "CutoffResult",
    "filter_survivors",
    "survivor_mask",
    "survivor_moments_given_count",
    "poisson_weighted_moments",
    "survivor_moments_poisson",
    "delta_lambda",
    "find_lambda0",
    "PieceIntegrals",
    "pair_survival_integrals",
    "saturated_excitation",
    "first_survivor_excitation",
    "cutoff_photon_number",
    "fit_cutoff_curve",
    "log_grid",
]

_MIN_WINDOW_RATIO = 4.0  # closed forms assume t_c / tau >= 4


@dataclass(frozen=True)
class SaturationWindow:
    """Dead-time half-window tau around each arrival."""

    tau: float

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be > 0")

    @classmethod
    def from_device(cls, dev: DeviceParams) -> "SaturationWindow":
        return cls(tau=dev.alpha_sat / dev.kappa)


@dataclass(frozen=True)
class SurvivorMoments:
    """First two moments of the survivor count and the dispersion regime.

    regime compares mean against variance: "sub-poisson" when the count
    is narrower than Poisson (mean > variance), "super-poisson" when
    wider, "poisson-boundary" on the boundary.
    """

    mean: float
    second_moment: float
    variance: float
    regime: str


def _classify(mean: float, variance: float) -> str:
    tol = 1e-12 * max(1.0, abs(mean))
    delta = mean - variance
    if delta > tol:
        return "sub-poisson"
    if delta < -tol:
        return "super-poisson"
    return "poisson-boundary"


def survivor_mask(times: np.ndarray, tau: float) -> np.ndarray:
    """Boolean mask of surviving photons for sorted arrival rows.

    Works on a 1-d trace or a batch of rows; rows may be padded with
    +inf, padding never survives.
    """
    t = np.atleast_2d(np.asarray(times, dtype=float))
    if t.shape[1] == 0:
        mask = np.zeros_like(t, dtype=bool)
    else:
        with np.errstate(invalid="ignore"):
            # padded rows produce inf - inf gaps; NaN compares False below
            gaps = np.diff(t, axis=1)
        big = np.full((t.shape[0], 1), np.inf)
        left_ok = np.concatenate([big, gaps], axis=1) >= tau
        right_ok = np.concatenate([gaps, big], axis=1) >= tau
        mask = left_ok & right_ok & np.isfinite(t)
    return mask[0] if np.asarray(times).ndim == 1 else mask


def filter_survivors(times, window: SaturationWindow) -> np.ndarray:
    """Return the surviving sub-sequence of a sorted arrival trace."""
    t = np.asarray(times, dtype=float)
    if t.size and np.any(np.diff(t) < 0):
        raise ValueError("arrival times must be nondecreasing")
    return t[survivor_mask(t, window.tau)]


def _require_window(tau: float, t_c: float) -> None:
    if tau < 0 or not t_c > 0:
        raise ValueError("require tau >= 0 and t_c > 0")
    if tau > 0 and t_c / tau < _MIN_WINDOW_RATIO:
        raise ValueError(f"closed forms require t_c/tau >= {_MIN_WINDOW_RATIO}, got {t_c / tau}")


def survivor_moments_given_count(n: int, tau: float, t_c: float) -> SurvivorMoments:
    """Survivor-count moments for exactly n uniform arrivals in [0, t_c]."""
    _require_window(tau, t_c)
    if n < 0:
        raise ValueError("n must be >= 0")
    x1 = 1.0 - tau / t_c
    x2 = 1.0 - 2.0 * tau / t_c
    x3 = 1.0 - 3.0 * tau / t_c
    x4 = 1.0 - 4.0 * tau / t_c
    mean = 2.0 * x1**n + (n - 2.0) * x2**n
    second = 2.0 * x1**n + (n + 4.0) * x2**n + (n * n - 7.0 * n + 12.0) * x4**n + (6.0 * n - 18.0) * x3**n
    variance = second - mean * mean
    if variance < 0:
        if variance < -1e-9 * max(1.0, second):
            raise ArithmeticError(f"negative variance {variance} for n={n}")
        variance = 0.0
    return SurvivorMoments(mean=mean, second_moment=second, variance=variance, regime=_classify(mean, variance))


def poisson_weighted_moments(alpha: float, big_lambda: float) -> tuple:
    """(E[alpha^N], E[N alpha^N], E[N^2 alpha^N]) for N ~ Poisson(big_lambda).

    alpha = 0 is allowed (with 0^0 = 1); the closed forms hold there by
    continuity and are needed at the boundary window ratio t_c/tau = 4.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if big_lambda < 0:
        raise ValueError("big_lambda must be >= 0")
    base = math.exp(-(1.0 - alpha) * big_lambda)
    al = alpha * big_lambda
    return base, al * base, (al * al + al) * base


def survivor_moments_poisson(lam: float, tau: float, t_c: float) -> SurvivorMoments:
    """Survivor-count moments under Poisson arrival at rate lam.

    The variance is computed as second moment minus squared mean and is
    cross-checked against its independently expanded closed form.
    """
    _require_window(tau, t_c)
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    lt = lam * tau
    e1, e2, e3, e4 = (math.exp(-k * lt) for k in (1, 2, 3, 4))
    mean = 2.0 * e1 + (lam * (t_c - 2.0 * tau) - 2.0) * e2
    y3 = lam * t_c - 3.0 * lam * tau
    y4 = lam * t_c - 4.0 * lam * tau
    second = (
        2.0 * e1
        + (lam * (t_c - 2.0 * tau) + 4.0) * e2
        + (6.0 * y3 - 18.0) * e3
        + (y4 * y4 - 6.0 * y4 + 12.0) * e4
    )
    variance = second - mean * mean
    expanded = (
        2.0 * e1
        + lam * (t_c - 2.0 * tau) * e2
        + (2.0 * lam * t_c - 10.0 * lt - 10.0) * e3
        + (-4.0 * lam * lam * t_c * tau + 12.0 * lt * lt - 2.0 * lam * t_c + 16.0 * lt + 8.0) * e4
    )
    if abs(variance - expanded) > 1e-10 * max(1.0, abs(variance)):
        raise ArithmeticError(f"variance forms disagree: {variance} vs {expanded}")
    if variance < 0:
        if variance < -1e-9:
            raise ArithmeticError(f"negative variance {variance}")
        variance = 0.0
    return SurvivorMoments(mean=mean, second_moment=second, variance=variance, regime=_classify(mean, variance))


def delta_lambda(lam: float, tau: float, t_c: float) -> float:
    """Mean minus variance of the survivor count; positive means sub-Poisson.

    Evaluated in the expanded form
        -2 e^{-2a} - ((2b - 10) a - 10) e^{-3a}
        + ((4b - 12) a^2 + (2b - 16) a - 8) e^{-4a},
    a = lam * tau, b = t_c / tau.  Computing mean - variance directly
    cancels catastrophically beyond a ~ 25, where the true value is
    exponentially smaller than either moment.
    """
    _require_window(tau, t_c)
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if tau == 0.0 or lam == 0.0:
        return 0.0
    a = lam * tau
    b = t_c / tau
    return (
        -2.0 * math.exp(-2.0 * a)
        - ((2.0 * b - 10.0) * a - 10.0) * math.exp(-3.0 * a)
        + ((4.0 * b - 12.0) * a * a + (2.0 * b - 16.0) * a - 8.0) * math.exp(-4.0 * a)
    )


def find_lambda0(tau: float, t_c: float, rel_tol: float = 1e-10, a_max: float = 50.0) -> float:
    """Arrival rate where the survivor statistics cross from sub- to super-Poisson.

    Brackets the sign change of delta_lambda on lam*tau in (0, a_max]
    and bisects to the requested relative tolerance.
    """
    _require_window(tau, t_c)
    if tau <= 0:
        raise ValueError("tau must be > 0 to locate a crossover")
    a_grid = np.geomspace(1e-6, a_max, 400)
    signs = np.array([delta_lambda(a / tau, tau, t_c) for a in a_grid])
    pos = np.nonzero(signs > 0)[0]
    neg = np.nonzero(signs < 0)[0]
    if pos.size == 0 or neg.size == 0 or neg[-1] < pos[0]:
        raise RootBracketError(f"no sub-to-super crossover on lam*tau in (0, {a_max}]")
    i = pos[-1]
    j = i + 1
    if j >= a_grid.size or signs[j] >= 0:
        raise RootBracketError("sign pattern is not a single crossover")
    lo, hi = a_grid[i], a_grid[j]
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if delta_lambda(mid / tau, tau, t_c) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) / tau


@dataclass(frozen=True)
class PieceIntegrals:
    """Regional contributions to the pair survival probability E(I1 I2).

    Each piece carries the 2/t_c^2 normalization, so the four pieces sum
    to E(I1 I2).  numeric holds adaptive-quadrature values of the region
    integrals, closed the exact antiderivatives.
    """

    numeric: tuple
    closed: tuple

    @property
    def pair_survival_numeric(self) -> float:
        return float(sum(self.numeric))

    @property
    def pair_survival_closed(self) -> float:
        return float(sum(self.closed))


def pair_survival_integrals(n: int, tau: float, t_c: float) -> PieceIntegrals:
    """Evaluate the four pair-survival region integrals and their closed forms.

    The regions partition the position of the earlier photon of the pair:
    near the left edge, in the bulk, and two bands near the right edge.
    Used as the proof-level oracle for the second survivor moment.
    """
    from scipy import integrate

    _require_window(tau, t_c)
    if n < 2:
        raise ValueError("pair survival needs n >= 2")
    T = t_c
    qopts = dict(epsabs=1e-13, epsrel=1e-11)

    a1 = integrate.dblquad(
        lambda t2, t1: (1 - (t2 + tau) / T) ** (n - 2), 0, tau,
        lambda t1: t1 + tau, lambda t1: t1 + 2 * tau, **qopts)[0]
    a2 = integrate.dblquad(
        lambda t2, t1: (1 - (t1 + 3 * tau) / T) ** (n - 2), 0, tau,
        lambda t1: t1 + 2 * tau, lambda t1: T - tau, **qopts)[0]
    b1 = integrate.dblquad(
        lambda t2, t1: (1 - (t2 - t1 + 2 * tau) / T) ** (n - 2), tau, T - 3 * tau,
        lambda t1: t1 + tau, lambda t1: t1 + 2 * tau, **qopts)[0]
    b2 = integrate.dblquad(
        lambda t2, t1: (1 - 4 * tau / T) ** (n - 2), tau, T - 3 * tau,
        lambda t1: t1 + 2 * tau, lambda t1: T - tau, **qopts)[0]
    c1 = integrate.dblquad(
        lambda t2, t1: (1 - (t2 - t1 + 2 * tau) / T) ** (n - 2), T - 3 * tau, T - 2 * tau,
        lambda t1: t1 + tau, lambda t1: T - tau, **qopts)[0]
    c2 = integrate.dblquad(
        lambda t2, t1: ((t1 - tau) / T) ** (n - 2), T - 3 * tau, T - 2 * tau,
        lambda t1: T - tau, lambda t1: t1 + 2 * tau, **qopts)[0]
    d1 = integrate.dblquad(
        lambda t2, t1: (1 - (T - t1 + tau) / T) ** (n - 2), T - 2 * tau, T - tau,
        lambda t1: t1 + tau, lambda t1: T, **qopts)[0]
    scale = 2.0 / (T * T)
    numeric = (scale * (2 * a1 + a2), scale * (2 * b1 + b2), scale * (2 * c1 + c2), scale * d1)

    x2 = 1 - 2 * tau / T
    x3 = 1 - 3 * tau / T
    x4 = 1 - 4 * tau / T
    nn = float(n)
    closed_a = (
        (4 / (nn * (nn - 1))) * x2**n
        + ((2 * nn - 10) / (nn * (nn - 1))) * x3**n
        + ((6 - 2 * nn) / (nn * (nn - 1))) * x4**n
    )
    closed_b = (4 / (nn - 1)) * x4 * x3 ** (n - 1) + ((nn - 5) / (nn - 1)) * x4**n
    closed_c = (
        (4 * tau / (T * (nn - 1))) * x3 ** (n - 1)
        + ((2 * nn - 6) / (nn * (nn - 1))) * (x3**n - x4**n)
        - (2 * x4 / (nn - 1)) * x3 ** (n - 1)
        + (2 / (nn - 1)) * x4**n
    )
    closed_d = (2 / (nn * (nn - 1))) * (x2**n - x3**n) - (2 * tau / ((nn - 1) * T)) * x3 ** (n - 1)
    return PieceIntegrals(numeric=numeric, closed=(closed_a, closed_b, closed_c, closed_d))


def _poisson_sorted_arrivals(rng: np.random.Generator, mean: float, m: int, t_c: float):
    """m rows of sorted Poisson-process arrivals on [0, t_c], padded with +inf."""
    counts = rng.poisson(mean, m)
    n_max = int(counts.max()) if m else 0
    if n_max == 0:
        return np.full((m, 1), np.inf), counts
    arr = rng.random((m, n_max)) * t_c
    arr[np.arange(n_max)[None, :] >= counts[:, None]] = np.inf
    arr.sort(axis=1)
    return arr, counts


def _pack_rows(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Left-pack kept entries of each row, preserving order; pad with +inf."""
    order = np.argsort(~keep, axis=1, kind="stable")
    packed = np.take_along_axis(values, order, axis=1)
    kcount = keep.sum(axis=1)
    width = int(kcount.max()) if kcount.size else 0
    packed = packed[:, : max(width, 1)]
    packed[np.arange(packed.shape[1])[None, :] >= kcount[:, None]] = np.inf
    return packed


def saturated_excitation(
    lam: float,
    timing: CycleTiming,
    dev: DeviceParams,
    enter_excited: bool = False,
    replicas: int = 4096,
    rng: Optional[np.random.Generator] = None,
    window: Optional[SaturationWindow] = None,
    max_block_elems: int = 20_000_000,
) -> Estimate:
    """Excitation probability at the observation time with dead-time filtering.

    Samples Poisson traces, removes saturated photons, then runs the
    renewal transition dynamics on the survivors.  For gamma = 0 the
    Bernoulli draw is replaced by the exact conditional probability given
    the first survivor (same estimand, lower variance); with ground entry
    that estimand has the exact value first_survivor_excitation, and this
    estimator is its Monte Carlo oracle.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if rng is None:
        rng = substream(0, 0x5A)
    if window is None:
        window = SaturationWindow.from_device(dev)
    tau = window.tau
    t_c, t_obs = timing.t_c, timing.t_obs
    kappa, gamma = dev.kappa, dev.gamma
    r = dev.transition_rate
    mean = lam * t_c
    block = max(1, min(replicas, int(max_block_elems / max(mean * 1.3 + 8.0, 8.0))))

    vals = np.empty(replicas)
    done = 0
    while done < replicas:
        m = min(block, replicas - done)
        arr, _counts = _poisson_sorted_arrivals(rng, mean, m, t_c)
        keep = survivor_mask(arr, tau)
        if gamma == 0.0 and not enter_excited:
            # only the first survivor matters: once armed, the system never
            # returns to ground, so later survivors cannot transition
            has = keep.any(axis=1)
            first = arr[np.arange(m), np.argmax(keep, axis=1)]
            out = np.where(has, -np.expm1(-r * np.where(has, t_c - first, 0.0)), 0.0)
            vals[done : done + m] = out
        else:
            surv = _pack_rows(arr, keep)
            n_cols = surv.shape[1]
            if enter_excited:
                init_decay = rng.exponential(1.0 / gamma, m) if gamma > 0 else np.full(m, np.inf)
                avail = init_decay.copy()
                last_fire = np.zeros(m)
                last_decay = init_decay.copy()
            else:
                avail = np.zeros(m)
                last_fire = np.full(m, np.inf)
                last_decay = np.full(m, np.inf)
            fire_w = rng.exponential(4.0 / kappa, (m, n_cols))
            decay_w = rng.exponential(1.0 / gamma, (m, n_cols)) if gamma > 0 else np.full((m, n_cols), np.inf)
            last_fire, last_decay = detector_events(
                surv, fire_w, decay_w, t_c, avail, last_fire, last_decay
            )
            vals[done : done + m] = ((last_fire <= t_c) & (last_decay > t_obs)).astype(float)
        done += m
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
    return Estimate(est, se)


def saturation_gap(
    lam: float,
    timing: CycleTiming,
    dev: DeviceParams,
    replicas: int = 200_000,
    rng: Optional[np.random.Generator] = None,
    window: Optional[SaturationWindow] = None,
    max_block_elems: int = 20_000_000,
) -> tuple:
    """Paired estimate of (unsaturated - saturated) excitation at observation.

    Both dynamics run on the same traces with the same transition and
    decay clocks; only the dead-time filter differs, so the difference
    estimator is nearly noise-free.  Returns (gap Estimate, saturated
    Estimate).
    """
    if rng is None:
        rng = substream(0, 0x5B)
    if window is None:
        window = SaturationWindow.from_device(dev)
    t_c, t_obs = timing.t_c, timing.t_obs
    kappa, gamma = dev.kappa, dev.gamma
    mean = lam * t_c
    block = max(1, min(replicas, int(max_block_elems / max(mean * 1.3 + 8.0, 8.0))))
    diffs = np.empty(replicas)
    sat_vals = np.empty(replicas)
    done = 0
    while done < replicas:
        m = min(block, replicas - done)
        arr, _ = _poisson_sorted_arrivals(rng, mean, m, t_c)
        keep = survivor_mask(arr, window.tau)
        n_cols = arr.shape[1]
        fire_w = rng.exponential(4.0 / kappa, (m, n_cols))
        decay_w = rng.exponential(1.0 / gamma, (m, n_cols)) if gamma > 0 else np.full((m, n_cols), np.inf)
        states = []
        for mask in (None, keep):
            last_fire, last_decay = detector_events(
                arr, fire_w, decay_w, t_c, np.zeros(m), np.full(m, np.inf), np.full(m, np.inf), mask
            )
            states.append(((last_fire <= t_c) & (last_decay > t_obs)).astype(float))
        plain, filtered = states
        diffs[done : done + m] = plain - filtered
        sat_vals[done : done + m] = filtered
        done += m
    gap = Estimate(float(diffs.mean()), float(diffs.std(ddof=1) / math.sqrt(replicas)))
    sat = Estimate(float(sat_vals.mean()), float(sat_vals.std(ddof=1) / math.sqrt(replicas)))
    return gap, sat


def _exp_weights(z):
    """((1 - e^-z)/z, (z - 1 + e^-z)/z^2) elementwise for z >= 0.

    Times h, these integrate e^{-lam (h - w)} over w in [0, h] against 1
    and against the ramp w/h, with z = lam h.
    """
    z = np.asarray(z, dtype=float)
    small = z < 1e-3
    zs = np.where(small, 1.0, z)
    p1 = np.where(small, 1.0 - z / 2.0 + z * z / 6.0 - z**3 / 24.0, -np.expm1(-zs) / zs)
    p2 = np.where(small, 0.5 - z / 6.0 + z * z / 24.0 - z**3 / 120.0, (zs + np.expm1(-zs)) / (zs * zs))
    return p1, p2


def first_survivor_excitation(
    lam,
    t_c: float,
    dev: DeviceParams,
    window: Optional[SaturationWindow] = None,
    cells_per_tau: int = 16,
) -> np.ndarray:
    """Exact gamma = 0, ground-entry excitation at t_c under dead-time filtering.

    This is the value saturated_excitation estimates for gamma = 0 and
    ground entry: the first survivor, arriving at s, arms the detector,
    which is excited by t_c with probability 1 - exp(-kappa/4 (t_c - s)).
    Let x(t) be the probability that no survivor has occurred and no
    photon arrived in (t - tau, t], and a(t) the probability that a
    survivor arrived by t - tau.  They obey the delay-renewal equations
    of the dead-time counter (Feller 1948), with the edge rules of
    survivor_mask (the first and last arrivals are free on their outer
    side):

        x'(t) = -lam x(t) + lam e^{-lam tau} (1 - a(t - tau) - x(t - tau)),
        a'(t) = lam e^{-lam tau} x(t - tau),

    with x = e^{-lam t}, a = 0 on [0, tau].  The first two blocks of
    length tau are solved in closed form.  Later blocks use the method of
    steps on cells_per_tau cells per block (plus one node at the
    fractional block where t_c falls): x integrates the exponential kernel
    exactly against the piecewise-linear forcing of the previous block, a
    uses the trapezoid rule.  The error is second order in the cell width.
    Every block map is the same affine map, so the ~t_c/tau blocks are
    applied by repeated squaring of the stacked per-lambda matrices, and
    the cost grows with log(kappa t_c), not kappa t_c.  No exponent is
    positive, so lam tau of 1e5 and more is safe.  Returns an array
    shaped like lam.
    """
    lam = np.asarray(lam, dtype=float)
    shape = lam.shape
    lam = lam.ravel()
    if np.any(lam < 0):
        raise ValueError("lambda must be >= 0")
    if cells_per_tau < 1:
        raise ValueError("cells_per_tau must be >= 1")
    if window is None:
        window = SaturationWindow.from_device(dev)
    tau = window.tau
    _require_window(tau, t_c)
    r = dev.transition_rate

    # block nodes in units of tau; t_c = (n + rho) tau is snapped to 1e-9 tau
    blocks = t_c / tau
    n = int(math.floor(blocks + 1e-9))
    rho = max(blocks - n, 0.0)
    sigma = np.linspace(0.0, 1.0, cells_per_tau + 1)
    if np.abs(sigma - rho).min() > 1e-9:
        sigma = np.sort(np.append(sigma, rho))
    end = int(np.argmin(np.abs(sigma - rho)))  # node of t_c in its block
    m = sigma.size - 1
    h = np.diff(sigma) * tau

    # state layout: x and a on the block nodes, y, constant 1
    ix, ia = np.arange(m + 1), m + 1 + np.arange(m + 1)
    iy, ione = 2 * m + 2, 2 * m + 3
    size = 2 * m + 4
    n_lam = lam.size
    e_lt = np.exp(-lam * tau)
    flux = lam * e_lt  # survivor flux per unit of x
    z = lam[:, None] * h[None, :]
    p1, p2 = _exp_weights(z)
    w_prev = e_lt[:, None] * z * (p1 - p2)
    w_next = e_lt[:, None] * z * p2
    decay = np.exp(-z)
    q1, q2 = _exp_weights(r * h)

    # rows giving the next block's node values from this block's state
    x_rows = np.zeros((n_lam, m + 1, size))
    a_rows = np.zeros((n_lam, m + 1, size))
    x_rows[:, 0, ix[m]] = 1.0
    a_rows[:, 0, ia[m]] = 1.0
    for j in range(m):
        row = decay[:, j, None] * x_rows[:, j]
        for k, w in ((j, w_prev[:, j]), (j + 1, w_next[:, j])):
            row[:, ione] += w  # forcing 1 - a - x at node k
            row[:, ia[k]] -= w
            row[:, ix[k]] -= w
        x_rows[:, j + 1] = row
        a_rows[:, j + 1] = a_rows[:, j]
        a_rows[:, j + 1, ix[j]] += flux * h[j] / 2.0
        a_rows[:, j + 1, ix[j + 1]] += flux * h[j] / 2.0

    def y_row(stop: int) -> np.ndarray:
        """y at node stop of the block, where y(t) = int^t flux x(s) e^{-r (t - s)} ds."""
        row = np.zeros((n_lam, size))
        row[:, iy] = math.exp(-r * sigma[stop] * tau)
        for j in range(stop):
            g = math.exp(-r * (sigma[stop] - sigma[j + 1]) * tau) * h[j]
            row[:, ix[j]] += flux * g * (q1[j] - q2[j])
            row[:, ix[j + 1]] += flux * g * q2[j]
        return row

    step = np.zeros((n_lam, size, size))
    step[:, ix] = x_rows
    step[:, ia] = a_rows
    step[:, iy] = y_row(m)
    step[:, ione, ione] = 1.0

    # readout functional on the state of the block before t_c:
    # P = a(t_c) - e^{-r tau} y(t_c - tau) + int_0^tau lam e^{-lam u} (1 - e^{-r u}) x(t_c - u) du
    readout = a_rows[:, end] - math.exp(-r * tau) * y_row(end)
    unit = np.eye(size)
    tail = [((sigma[end] - sigma[j]) * tau, x_rows[:, j]) for j in range(end, -1, -1)]
    tail += [((1.0 + sigma[end] - sigma[j]) * tau, unit[ix[j]]) for j in range(m - 1, end - 1, -1)]
    for (u0, row0), (u1, row1) in zip(tail, tail[1:]):
        g = u1 - u0
        for rate, sign in ((lam, 1.0), (lam + r, -1.0)):
            s1, s2 = _exp_weights(rate * g)
            pre = sign * lam * g * np.exp(-rate * u0)
            readout += (pre * s2)[:, None] * row0 + (pre * (s1 - s2))[:, None] * row1

    # closed-form state of block 1, t in [tau, 2 tau]
    lts = lam[:, None] * tau * sigma[None, :]
    state = np.zeros((n_lam, size))
    state[:, ix] = e_lt[:, None] * (1.0 - lts * np.exp(-lts))
    state[:, ia] = e_lt[:, None] * -np.expm1(-lts)
    state[:, iy] = flux * tau * np.exp(-np.minimum(lam, r) * tau) * _exp_weights(np.abs(lam - r) * tau)[0]
    state[:, ione] = 1.0

    power, todo = step, n - 2
    while todo:
        if todo & 1:
            state = np.matmul(power, state[:, :, None])[:, :, 0]
        todo >>= 1
        if todo:
            power = np.matmul(power, power)
    # rounding in the squarings can leave values ~1e-13 outside [0, 1]
    return np.clip(np.einsum("ld,ld->l", readout, state), 0.0, 1.0).reshape(shape)


def log_grid(lo: float, hi: float, points_per_decade: int) -> np.ndarray:
    """Logarithmic grid with a fixed point density per decade."""
    if not (hi > lo > 0):
        raise ValueError("require hi > lo > 0")
    n = max(2, int(round(math.log10(hi / lo) * points_per_decade)) + 1)
    return np.geomspace(lo, hi, n)


@dataclass(frozen=True)
class CutoffResult:
    """Outcome of a 3 dB cutoff scan over the mean photon number."""

    n_cutoff: float
    n_grid: np.ndarray
    excitation: np.ndarray
    stderr: np.ndarray
    peak_value: float
    peak_index: int


def cutoff_photon_number(
    dev: DeviceParams,
    t_c: float,
    n_grid: np.ndarray,
    replicas: int = 256,
    rng_seed: int = 0,
    delta_o: float = 0.0,
    enter_excited: bool = False,
    window: Optional[SaturationWindow] = None,
    early_stop_frac: float = 0.2,
) -> CutoffResult:
    """Mean photon number where the saturated excitation drops 3 dB.

    Scans the given increasing grid of mean photon numbers, locates the
    maximum, then the first point at or below half the maximum, and
    interpolates the crossing linearly on log-log axes.

    For gamma = 0 and ground entry the whole grid is evaluated at once by
    the exact first_survivor_excitation, with zero standard errors, and
    replicas and rng_seed are not used.  Otherwise each point is a
    saturated_excitation Monte Carlo estimate, and the scan stops early
    once the curve has fallen below early_stop_frac of the running
    maximum (the crossing is already bracketed by then); remaining grid
    points are reported as NaN.
    """
    n_grid = np.asarray(n_grid, dtype=float)
    if n_grid.size < 3 or np.any(np.diff(n_grid) <= 0):
        raise ValueError("n_grid must be increasing with at least 3 points")
    if dev.gamma == 0.0 and not enter_excited:
        exc = first_survivor_excitation(n_grid / t_c, t_c, dev, window)
        se = np.zeros(n_grid.size)
    else:
        delta_o_eff = delta_o if delta_o > 0 else t_c * 1e-9
        timing = CycleTiming(t_c=t_c, delta_o=delta_o_eff, t_w=t_c * 1e-9)
        exc = np.full(n_grid.size, np.nan)
        se = np.full(n_grid.size, np.nan)
        best = 0.0
        for i, nbar in enumerate(n_grid):
            est = saturated_excitation(
                nbar / t_c, timing, dev, enter_excited=enter_excited, replicas=replicas,
                rng=substream(rng_seed, 0xC0, i), window=window,
            )
            exc[i] = est.value
            se[i] = est.stderr
            best = max(best, est.value)
            if best > 0 and est.value <= early_stop_frac * best:
                break
    valid = ~np.isnan(exc)
    peak_index = int(np.nanargmax(exc))
    peak = float(exc[peak_index])
    if peak <= 0:
        raise NotSaturatingError("excitation is zero over the whole sweep")
    half = 0.5 * peak
    crossing = None
    for j in range(peak_index + 1, n_grid.size):
        if not valid[j]:
            break
        if exc[j] <= half:
            crossing = j
            break
    if crossing is None:
        raise NotSaturatingError("no 3 dB drop within the sweep range")
    j = crossing
    x0, x1 = math.log(n_grid[j - 1]), math.log(n_grid[j])
    y0, y1 = math.log(max(exc[j - 1], 1e-300)), math.log(max(exc[j], 1e-300))
    if y0 == y1:
        n_cut = n_grid[j]
    else:
        n_cut = math.exp(x0 + (math.log(half) - y0) * (x1 - x0) / (y1 - y0))
    return CutoffResult(
        n_cutoff=float(n_cut), n_grid=n_grid, excitation=exc, stderr=se,
        peak_value=peak, peak_index=peak_index,
    )


@dataclass(frozen=True)
class CutoffFit:
    """Power-law fit n_cutoff = a * x^b + c with RMS relative residual."""

    a: float
    b: float
    c: float
    residual: float
    x_range: tuple

    def __post_init__(self):
        if not self.b > 0:
            raise ValueError("fitted exponent b must be > 0")

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        lo, hi = self.x_range
        if np.any(x < lo * (1 - 1e-9)) or np.any(x > hi * (1 + 1e-9)):
            raise ValueError(f"x outside fitted range [{lo}, {hi}]")
        return self.a * x**self.b + self.c


def fit_cutoff_curve(
    samples: Sequence[tuple],
    init: tuple = (1.0, 1.0, 0.0),
    max_iter: int = 200,
    step_tol: float = 1e-12,
) -> CutoffFit:
    """Least-squares fit of a three-parameter power law on relative residuals.

    Levenberg-Marquardt damping with the analytic Jacobian; deterministic
    for a fixed initialization.  Requires at least four samples spanning
    two decades of the abscissa.
    """
    pts = sorted((float(x), float(y)) for x, y in samples)
    if len(pts) < 4:
        raise ValueError("need at least 4 samples")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("samples must be positive")
    if x[-1] / x[0] < 100.0 * (1 - 1e-9):
        raise ValueError("samples must span at least two decades")

    theta = np.array(init, dtype=float)
    lam_damp = 1e-3

    def residuals(th):
        a, b, c = th
        return (a * x**b + c - y) / y

    res = residuals(theta)
    cost = float(res @ res)
    converged = False
    for _ in range(max_iter):
        a, b, c = theta
        xb = x**b
        jac = np.column_stack([xb / y, a * xb * np.log(x) / y, 1.0 / y])
        g = jac.T @ res
        h = jac.T @ jac
        step_ok = False
        for _ in range(50):
            try:
                delta = np.linalg.solve(h + lam_damp * np.diag(np.diag(h)), -g)
            except np.linalg.LinAlgError:
                lam_damp *= 10.0
                continue
            trial = theta + delta
            tr_res = residuals(trial)
            tr_cost = float(tr_res @ tr_res)
            if tr_cost < cost:
                theta, res, cost = trial, tr_res, tr_cost
                lam_damp = max(lam_damp / 10.0, 1e-12)
                step_ok = True
                break
            lam_damp *= 10.0
        if not step_ok:
            converged = True  # damping exhausted: at a (local) minimum
            break
        if np.linalg.norm(delta) <= step_tol * (np.linalg.norm(theta) + step_tol):
            converged = True
            break
    if not converged:
        raise FitConvergenceError(f"no convergence after {max_iter} iterations")
    rms = math.sqrt(cost / x.size)
    return CutoffFit(a=float(theta[0]), b=float(theta[1]), c=float(theta[2]),
                     residual=rms, x_range=(float(x[0]), float(x[-1])))
